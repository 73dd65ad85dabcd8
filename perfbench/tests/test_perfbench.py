"""Tests of the benchmark itself: generator determinism, LatencyBackend
counting and sleeping, span self-time arithmetic, a tiny smoke run of every
workload, and the benchmark's refusal to run without the lmsql source.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
from hooks import LAYER_METRICS, LatencyBackend  # noqa: E402
from lmsql import CompletionRequest, MockBackend, ParseError, parse  # noqa: E402
from spans import Tracer, covered, self_time, union_length, children_of  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", tiny=True)
    gen.generate(workload, 7, tmp_path / "b", tiny=True)
    gen.generate(workload, 8, tmp_path / "c", tiny=True)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    assert {"dataset.jsonl", "mock.json", "config.json", "exemplars.json", "expect.json"} <= set(a)


def test_gold_does_not_come_from_lmsql(tmp_path):
    code = ("import sys, gen; gen.generate('live-calls', 1, sys.argv[1], tiny=True); "
            "assert not any(m.startswith('lmsql') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=HERE, check=True, timeout=60)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_candidate_kinds_match_the_parser(tmp_path, workload):
    gen.generate(workload, 3, tmp_path, tiny=True)
    rules = json.loads((tmp_path / "mock.json").read_text())
    expect = json.loads((tmp_path / "expect.json").read_text())["candidates"]
    dataset = [json.loads(line) for line in (tmp_path / "dataset.jsonl").read_text().splitlines()]
    parse_rules = [r for r in rules if r["prompt_pattern"].endswith("Binder:\\ $")]
    assert len(parse_rules) == len(dataset)
    for rule, example in zip(parse_rules, dataset):
        for text, kind in zip(rule["responses"], expect[example["id"]]):
            if kind == "syntax":
                with pytest.raises(ParseError):
                    parse(text)
            else:
                parse(text)


def test_latency_backend_counts_and_sleeps():
    mock = MockBackend()
    mock.add_rule(r"ask (\w+)", [r"answer \1"])
    service = LatencyBackend(mock, ms=30)
    assert service.identity == mock.identity
    start = time.perf_counter()
    replies = [service.complete(CompletionRequest(p)) for p in ("ask a", "ask b", "ask a")]
    elapsed = time.perf_counter() - start
    assert replies == [["answer a"], ["answer b"], ["answer a"]]
    assert service.counts() == {"calls": 3, "distinct": 2, "tokens": 3 * 2}
    assert elapsed >= 3 * 0.030
    assert service.reached() == 3

    seen = []
    worker = threading.Thread(target=lambda: seen.append(service.reached()))
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive() and seen == [0], "reached() counts per thread"


def _span(i, start, end, parent):
    return [i, f"s{i}", start, end, parent, None, None]


def test_union_and_self_time():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    parent = _span(0, 0.0, 10.0, None)
    # two children ran in parallel (overlap 3..4), one later, one sticks out past the end
    kids = [_span(1, 1.0, 4.0, 0), _span(2, 3.0, 6.0, 0), _span(3, 8.0, 9.0, 0),
            _span(4, 9.5, 12.0, 0)]
    spans = [parent] + kids + [_span(5, 1.5, 2.0, 1)]  # grandchild does not count for the parent
    assert covered(parent, kids) == pytest.approx(5.0 + 1.0 + 0.5)
    assert self_time(parent, children_of(spans)) == pytest.approx(10.0 - 6.5)
    assert self_time(kids[0], children_of(spans)) == pytest.approx(3.0 - 0.5)


def test_worker_thread_spans_hang_under_the_example():
    tracer = Tracer()
    inner = []

    def run_example(example):
        step = tracer.wrap("layer.step", lambda: time.sleep(0.001))
        worker = threading.Thread(target=step)
        worker.start()
        worker.join(timeout=5)
        inner.append(worker.is_alive())
        step()

    tracer.example(run_example)({"id": "x"})
    assert inner == [False]
    root, *steps = tracer.spans
    assert root[1] == "cli.example" and root[5] == "x"
    assert [s[4] for s in steps] == [root[0], root[0]]
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_times_are_scaled_to_the_reference_cpu():
    ref = run.REFERENCE_CAL_S
    # at the reference speed the wall time stands as measured
    assert run.at_reference(2.0, 1.5, ref) == pytest.approx(2.0)
    # on a CPU half as fast only the computing is halved; waiting stays
    assert run.at_reference(3.0, 2.0, 2 * ref) == pytest.approx(1.0 + 1.0)
    assert run.at_reference(0.5, 0.0, 3 * ref) == pytest.approx(0.5)
    # with a quarter of the machine's CPU time stolen, 1 s of computing took
    # 4/3 s of wall time; the stolen third of a second is dropped, waiting stays
    assert run.at_reference(1.0 + 1 / 3 + 0.2, 1.0, ref, 0.25) == pytest.approx(1.2)
    assert run.at_reference(1.0, 1.0, ref, 0.25) == pytest.approx(1.0)
    assert run.stolen_share(30, 10) == 0.25 and run.stolen_share(0, 0) == 0.0
    from hooks import calibrate
    assert calibrate() > 0


def test_benchmark_json_matches_the_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(run, "WORK", tmp_path)
    plain = run.run_workload(workload, 5, seconds=0.0, trace=False, tiny=True)
    assert not plain["problems"] and plain["failed"] == 0
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in plain["metrics"].values())
    traced = run.run_workload(workload, 5, seconds=0.0, trace=True, tiny=True)
    assert set(traced["metrics"]) == set(LAYER_METRICS)
    assert not traced["problems"] and traced["failed"] == 0
    # counts repeat exactly across runs of the same code and seed
    again = run.run_workload(workload, 5, seconds=0.0, trace=True, tiny=True)
    for key in ("backend.calls", "prompts.prompt_tokens", "table.linearize_calls",
                "interp.retrieve_calls", "syntax.parse_fail_frac"):
        assert traced["metrics"][key] == again["metrics"][key], key
    assert plain["metrics"]["backend_calls_per_example"] == traced["metrics"]["backend.calls"]
    if gen.WORKLOADS[workload]["cache"]:
        assert traced["metrics"]["backend.cache_hits"] > 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "live-calls",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
