#!/usr/bin/env python3
"""lmsql benchmark: drives the product path, `lmsql run` (lmsql.cli.main),
over one seeded, generated workload and prints its metrics.

    python3 perfbench/run.py --workload live-calls --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run: generate the inputs from the seed; gate on tests/fixtures/bench
(`lmsql run` + `lmsql eval` must give semantic accuracy 1.0); time set-up
in fresh interpreters; then run whole passes of `lmsql run` over the
dataset in this process until --seconds have been measured, and at least
two. Times are scaled to a reference CPU speed and each example counts
with its best time over the passes (see README.md). Every pass
must write byte-identical results.jsonl, and every answer must match the
sqlite-computed gold under the semantic judge. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer ones from a traced run
(see README.md). The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BENCH_FIXTURE = ROOT / "tests" / "fixtures" / "bench"
SETUP_REPEATS = 7
# hooks.calibrate()'s time on the reference CPU that reported times are scaled to:
# a 2-vCPU shared x86-64 cloud host in its fast phase.
REFERENCE_CAL_S = 3.5e-4
CAL_WINDOW = 4  # neighbours on each side whose readings an example's time also uses

END_TO_END = {
    "examples_per_s": "1/s",
    "example_ms.p50": "ms",
    "example_ms.p90": "ms",
    "backend_calls_per_example": "count",
    "prompt_tokens_per_example": "tokens",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class GateError(Exception):
    """The program's output broke a gate: the run is reported as incorrect."""


def quiet(argv: list) -> tuple:
    """lmsql.cli.main(argv) with its stdout captured."""
    import lmsql.cli
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = lmsql.cli.main(argv)
    return code, buf.getvalue()


def gate_bench_fixture(work: Path) -> None:
    out = work / "gate-bench.jsonl"
    dataset = str(BENCH_FIXTURE / "dataset.jsonl")
    code, _ = quiet(["run", dataset, "--config", str(BENCH_FIXTURE / "config.json"), "-o", str(out)])
    if code != 0:
        raise GateError(f"lmsql run on tests/fixtures/bench exited with {code}")
    code, text = quiet(["eval", str(out), dataset, "--judge", "semantic"])
    if code != 0 or "semantic\t1.0000" not in text:
        raise GateError(f"tests/fixtures/bench semantic accuracy is not 1.0: {text.strip()!r}")


def at_reference(wall: float, cpu: float, cal: float, share: float = 0.0) -> float:
    """`wall` seconds as the reference CPU, unshared, would take them. The `cpu`
    seconds the process computed are scaled by how much slower than on the
    reference the calibration `cal` ran (the host's CPU runs in fast and slow
    phases). Of the rest of `wall`, the time the process waited (sleeps, I/O)
    stays; the time the hypervisor took its CPU away, estimated from the share
    `share` of the machine's CPU time stolen meanwhile, is dropped."""
    stolen = cpu * share / (1 - share)
    return cpu * REFERENCE_CAL_S / cal + max(0.0, wall - cpu - stolen)


def stolen_share(busy: int, stolen: int) -> float:
    return stolen / (busy + stolen) if busy + stolen else 0.0


def measure_setup(run_args: list, trace: bool) -> tuple:
    """Median set-up time over fresh interpreters, plus median per-load times."""
    from hooks import cpu_ticks
    elapsed, loads = [], []
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--trace"] if trace else [])
    for _ in range(SETUP_REPEATS):
        busy, stolen = cpu_ticks()
        start = time.perf_counter()
        with subprocess.Popen(cmd + ["--"] + run_args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            busy_end, stolen_end = cpu_ticks()
            cal = proc.stdout.readline()
            proc.wait(timeout=120)
        if not line.startswith("READY ") or not cal.startswith("CAL "):
            raise GateError(f"set-up probe did not reach the first example (exit {proc.returncode})")
        load = json.loads(line[len("READY "):])
        elapsed.append(at_reference(wall, load.pop("cpu_s"), float(cal[len("CAL "):]),
                                    stolen_share(busy_end - busy, stolen_end - stolen)))
        loads.append(load)
    medians = {k: statistics.median(d[k] for d in loads) for k in loads[0]}
    return statistics.median(elapsed), medians


def one_pass(hooks, run_args: list, out: Path) -> dict:
    first = len(hooks.example_times)
    spans_from = len(hooks.tracer.spans) if hooks.tracer else 0
    code, _ = quiet(["run"] + run_args + ["-o", str(out)])
    if code != 0:
        raise GateError(f"lmsql run exited with {code}")
    times = hooks.example_times[first:]
    latencies = []
    for i, (start, end, cpu, *_) in enumerate(times):
        near = times[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        cal = statistics.median(t[3] for t in near)
        share = stolen_share(sum(t[4] for t in near), sum(t[5] for t in near))
        latencies.append(at_reference(end - start, cpu, cal, share))
    return {"bytes": out.read_bytes(), "examples": len(times), "latencies": latencies,
            "wall": times[-1][1] - times[0][0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "service": hooks.service.counts(),
            "spans": (spans_from, len(hooks.tracer.spans) if hooks.tracer else 0)}


def measure(hooks, run_args: list, out: Path, seconds: float, reference: bytes,
            at_least: int) -> list:
    """Whole passes, at least `at_least` of them, until `seconds` have elapsed; every
    pass must write the reference bytes."""
    passes = []
    start = time.perf_counter()
    with hooks.installed():
        while len(passes) < at_least or time.perf_counter() - start < seconds:
            p = one_pass(hooks, run_args, out)
            if reference is None:
                reference = p["bytes"]
            if p["bytes"] != reference:
                raise GateError("results.jsonl differs between runs of the same inputs")
            passes.append(p)
    return passes


def same_counts(passes: list, what: str, key) -> None:
    values = [key(p) for p in passes]
    if any(v != values[0] for v in values):
        raise RuntimeError(f"benchmark bug: {what} drifted between identical passes: {values}")


def check_answers(results: bytes, inputs: Path) -> tuple:
    """(failed examples, problems) of one pass's results under the semantic judge
    and the generator's expected candidate outcomes."""
    from lmsql import Answer, semantic_em
    dataset = {r["id"]: r for r in map(json.loads, (inputs / "dataset.jsonl").read_text().splitlines())}
    expect = json.loads((inputs / "expect.json").read_text())["candidates"]
    records = [json.loads(line) for line in results.decode("utf-8").splitlines()]
    problems = []
    if [r["id"] for r in records] != list(dataset):
        problems.append("results ids differ from the dataset")
    failed = 0
    for r in records:
        gold = dataset[r["id"]]
        ok = "error" not in r and semantic_em(Answer(tuple(r["final_answer"])),
                                              Answer(tuple(gold["gold"])), gold["question"]).matched
        failed += not ok
        for i, (cand, kind) in enumerate(zip(r.get("candidates", []), expect[r["id"]])):
            if kind in gen.ERROR_KINDS and cand["error"] is None:
                problems.append(f"{r['id']} candidate {i} ({kind}) did not end with an error")
            if kind == "syntax" and cand["parsed"]:
                problems.append(f"{r['id']} candidate {i} should not parse")
            if kind == "ok" and cand["error"] is not None:
                problems.append(f"{r['id']} candidate {i} failed: {cand['error']}")
    return failed, problems


def best_latencies(passes: list) -> list:
    """Each example's best time over the passes, as timeit takes the best of its
    repeats: a burst of host noise rarely hits the same example in every pass."""
    return [min(times) for times in zip(*(p["latencies"] for p in passes))]


def throughput(passes: list) -> float:
    """Examples per second of their best example times."""
    best = best_latencies(passes)
    return len(best) / sum(best)


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Generate, gate, set up and measure one workload; `tiny` is the smoke-test size."""
    from hooks import LAYER_METRICS, Hooks, layer_metrics
    from spans import NAME, PAYLOAD, Tracer

    spec = gen.WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", name, "--seed", str(seed),
                    "--out", str(inputs)] + (["--tiny"] if tiny else []), check=True, timeout=170)
    manifest = json.loads((inputs / "expect.json").read_text())["manifest"]
    run_args = [str(inputs / "dataset.jsonl"), "--config", str(inputs / "config.json")]
    cache_args = ["--cache-dir", str(work / "cache")] if spec["cache"] else []

    gate_bench_fixture(work)
    probe_args = run_args + (["--cache-dir", str(work / "probe-cache")] if spec["cache"] else [])
    setup_s, setup_layers = measure_setup(probe_args + ["-o", str(work / "probe.jsonl")], trace)

    latency = spec["latency_ms"]
    reference = None
    service = None
    if spec["cache"]:
        # Untimed cold pass: fills the cache the timed passes read. One worker, so that
        # each distinct request reaches the service exactly once (no cache races).
        fill = Hooks(latency)
        with fill.installed():
            cold = one_pass(fill, run_args + cache_args + ["--parallelism", "1"],
                            work / "cold.jsonl")
        reference, service = cold["bytes"], cold["service"]
    run_args = run_args + cache_args

    phases = [("untraced", Hooks(latency), seconds / 2 if trace else seconds, 2)]
    if trace:
        phases.append(("traced", Hooks(latency, Tracer()), seconds / 2, 2))
    measured = {}
    for label, hooks, budget, at_least in phases:
        passes = measure(hooks, run_args, work / "results.jsonl", budget, reference, at_least)
        reference = passes[0]["bytes"]
        same_counts(passes, "service counts", lambda p: p["service"])
        if spec["cache"] and passes[0]["service"]["calls"]:
            raise GateError("warm passes reached the service although the cache was filled")
        measured[label] = (hooks, passes)
    if service is None:
        service = measured["untraced"][1][0]["service"]

    failed_per_pass, problems = check_answers(reference, inputs)
    passes = [p for _, ps in measured.values() for p in ps]
    examples_per_pass = passes[0]["examples"]
    result = {"workload": name, "seed": seed, "manifest": manifest, "problems": problems,
              "attempted": sum(p["examples"] for p in passes),
              "failed": failed_per_pass * len(passes), "passes": len(passes)}
    hooks, untraced = measured["untraced"]
    eps = throughput(untraced)
    result["wall_examples_per_s"] = (sum(p["examples"] for p in untraced)
                                     / sum(p["wall"] for p in untraced))
    if not trace:
        latencies = [x * 1e3 for x in best_latencies(untraced)]
        result["metrics"] = {
            "examples_per_s": eps,
            "example_ms.p50": percentile(latencies, 50),
            "example_ms.p90": percentile(latencies, 90),
            "backend_calls_per_example": service["calls"] / examples_per_pass,
            "prompt_tokens_per_example": service["tokens"] / examples_per_pass,
            "setup_s": setup_s,
            "peak_rss_mb": untraced[0]["peak_rss_mb"],
        }
        result["units"] = END_TO_END
        return result

    hooks, traced = measured["traced"]
    spans = hooks.tracer.spans

    def layer_counts(p):
        mine = spans[p["spans"][0]:p["spans"][1]]
        return (sum(s[NAME] == "table.linearize" for s in mine),
                sum(s[NAME] == "interp.retrieve" for s in mine),
                sum(isinstance(c, Exception) for s in mine if s[NAME] == "syntax.parse"
                    for c in s[PAYLOAD][0]))
    same_counts(traced, "linearize, retrieval and parse-failure counts", layer_counts)
    per_example = {k: service[k] / examples_per_pass for k in ("calls", "distinct")}
    metrics = layer_metrics(spans, per_example)
    metrics.update(setup_layers)
    traced_eps = throughput(traced)
    metrics["trace.examples_per_s"] = traced_eps
    metrics["trace.untraced_examples_per_s"] = eps
    metrics["trace.overhead_frac"] = eps / traced_eps - 1
    result["metrics"] = {k: metrics[k] for k in LAYER_METRICS}
    result["units"] = LAYER_METRICS
    return result


def report(result: dict) -> dict:
    """Print a human-readable block; return the contract JSON object."""
    name = result["workload"]
    m = result["manifest"]
    print(f"== {name} (seed {result['seed']}): {m['examples']} examples x {result['passes']} passes, "
          f"n={m['n']}, tables {m['table_rows'][0]}-{m['table_rows'][-1]} rows, "
          f"hostile share {m['hostile_share']:.3f}")
    for key, unit in result["units"].items():
        print(f"{name:12s} {key:32s} {result['metrics'][key]:>14.6g} {unit}")
    print(f"{name:12s} {'failed_frac':32s} {result['failed'] / result['attempted']:>14.6g} ratio")
    print(f"{name:12s} {'wall_examples_per_s':32s} {result['wall_examples_per_s']:>14.6g} 1/s "
          "(unscaled, first to last example of each pass)")
    for problem in result["problems"][:20]:
        print(f"PROBLEM {name}: {problem}", file=sys.stderr)
    correct = not result["problems"] and result["failed"] == 0
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": result["units"][k]}
                        for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lmsql benchmark over `lmsql run`")
    ap.add_argument("--workload", required=True, choices=list(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lmsql" / "__init__.py").is_file():
        print(f"perfbench: no lmsql source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lmsql
    if Path(lmsql.__file__).resolve().parent != (SRC / "lmsql").resolve():
        print(f"perfbench: imported lmsql from {lmsql.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except GateError as e:
            print(f"perfbench: gate broken on {name}: {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        outputs[name] = report(result)
    final = outputs[names[0]] if len(names) == 1 else {"workloads": outputs}
    print(json.dumps(final))
    return 0 if all(o["correct"] for o in outputs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
