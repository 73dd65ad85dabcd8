"""Outside-in instrumentation of `lmsql run`.

Nothing under src/ changes: these hooks replace module attributes that the
pipeline looks up at call time (for example `lmsql.cli.plan_parse_prompt`)
with wrappers, and put them back afterwards. If a target disappears, the
benchmark stops with an error naming it instead of silently measuring less.
"""

from __future__ import annotations

import hashlib
import re
import statistics
import threading
import time
from contextlib import contextmanager

import lmsql.cli
import lmsql.interp
import lmsql.prompts
from lmsql.backend import Backend, approx_tokens
from lmsql.syntax import print_program

from spans import END, NAME, PAYLOAD, START, Tracer, children_of, covered, descendants, self_time


class LatencyBackend(Backend):
    """Stands where the completion service stands, under any cache: sleeps a
    fixed time per request and counts requests, distinct request keys and
    the approx_tokens of their prompts."""

    def __init__(self, inner: Backend, ms: float, tracer: Tracer = None):
        self.inner = inner
        self.identity = inner.identity
        self.ms = ms
        self.tracer = tracer
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = 0
        self.tokens = 0
        self._keys: set = set()

    @property
    def distinct(self) -> int:
        return len(self._keys)

    def counts(self) -> dict:
        return {"calls": self.calls, "distinct": self.distinct, "tokens": self.tokens}

    def reached(self) -> int:
        """Requests the calling thread has sent so far."""
        return getattr(self._local, "n", 0)

    def _complete(self, req) -> list:
        key = hashlib.blake2b(repr((req.prompt, req.temperature, req.top_p,
                                    req.max_output_tokens, req.n, req.stop)).encode("utf-8"),
                              digest_size=16).digest()
        with self._lock:
            self.calls += 1
            self.tokens += approx_tokens(req.prompt)
            self._keys.add(key)
        self._local.n = self.reached() + 1
        span = self.tracer.begin("backend.service") if self.tracer else None
        try:
            if self.ms:
                time.sleep(self.ms / 1000.0)
            return self.inner.complete(req)
        finally:
            if span is not None:
                self.tracer.end(span)


_CAL_TEXT = "SELECT name FROM w WHERE kind = 'public' AND place = 'oslo' ORDER BY score DESC"
_CAL_PAIR = re.compile(r"(\w+)\s*=\s*'([^']*)'")


def calibrate() -> float:
    """CPU seconds this thread takes for a fixed piece of pure-Python work
    (regex, string, dict, list and sort operations, as the pipeline spends
    its CPU time): a reading of how fast the host's CPU runs at this moment.
    It is CPU time, so time the thread spends waiting for a CPU is left out."""
    start = time.thread_time()
    for _ in range(20):
        pairs = {m.group(1): m.group(2) for m in _CAL_PAIR.finditer(_CAL_TEXT)}
        rows = [[str(j), pairs.get("kind", ""), j * 3] for j in range(20)]
        rows.sort(key=lambda r: (r[2] % 7, r[0]))
        ",".join(r[0] for r in rows).upper()
    return time.thread_time() - start


def cpu_ticks() -> tuple:
    """(busy, stolen) clock ticks of the whole machine so far, from /proc/stat.
    Stolen ticks are time the hypervisor gave this machine's CPUs to other
    guests while they had work to run; (0, 0) where there is no /proc/stat."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, _, _, irq, softirq, steal = map(int, f.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


class HookError(RuntimeError):
    pass


@contextmanager
def patched(targets: list):
    """targets: (module, attribute, factory(original) -> replacement)."""
    saved = []
    try:
        for module, name, factory in targets:
            if not hasattr(module, name):
                raise HookError(f"hook target {module.__name__}.{name} is gone; "
                                f"update perfbench/hooks.py")
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, factory(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class Hooks:
    """Inserts the LatencyBackend under `lmsql run`, times every example and,
    with a tracer, records a span around each layer's public functions."""

    def __init__(self, latency_ms: float, tracer: Tracer = None):
        self.latency_ms = latency_ms
        self.tracer = tracer
        self.service: LatencyBackend = None  # the service of the latest `lmsql run`
        # (start, end, process CPU seconds, calibration seconds, busy ticks,
        #  stolen ticks) per example
        self.example_times: list = []

    def _service(self, mock_from_fixtures):
        def make(path):
            self.service = LatencyBackend(mock_from_fixtures(path), self.latency_ms, self.tracer)
            return self.service
        return make

    def _timed_example(self, run_example):
        inner = self.tracer.example(run_example) if self.tracer else run_example
        times = self.example_times

        def timed(*args, **kwargs):
            before = calibrate()
            busy, stolen = cpu_ticks()
            start, cpu = time.perf_counter(), time.process_time()
            try:
                return inner(*args, **kwargs)
            finally:
                end, cpu_end = time.perf_counter(), time.process_time()
                busy_end, stolen_end = cpu_ticks()
                times.append((start, end, cpu_end - cpu, (before + calibrate()) / 2,
                              busy_end - busy, stolen_end - stolen))
        return timed

    def _cache(self, with_cache):
        tracer = self.tracer

        def make(backend, cache_dir, seed=0):
            cache = with_cache(backend, cache_dir, seed=seed)
            complete = cache.complete

            def timed(req):
                before = backend.reached()
                span = tracer.begin("backend.cache")
                try:
                    return complete(req)
                finally:
                    tracer.end(span, backend.reached() == before)
            cache.complete = timed
            return cache
        return make

    def targets(self) -> list:
        cli, interp, prompts = lmsql.cli, lmsql.interp, lmsql.prompts
        out = [(cli, "mock_from_fixtures", self._service),
               (cli, "_run_example", self._timed_example)]
        t = self.tracer
        if t is None:
            return out

        def span(name, keep=False):
            return lambda fn: t.wrap(name, fn, keep)
        out += [
            (cli, "with_cache", self._cache),
            (cli, "load_table", span("table.load")),
            (cli, "normalize", span("table.normalize")),
            (cli, "plan_parse_prompt", span("prompts.plan", keep=True)),
            (prompts, "linearize", span("table.linearize")),
            (cli, "sample_candidates", span("prompts.sample")),
            (cli, "parse_candidates", span("syntax.parse", keep=True)),
            (cli, "_execute_candidate", span("cli.candidate", keep=True)),
            (cli, "run_program", span("interp.run")),
            (interp, "assign_roles", span("syntax.roles")),
            (interp, "api_calls_bottom_up", span("syntax.roles")),
            (interp, "retrieve_exec_demos", span("interp.retrieve")),
            (interp, "build_map_prompt", span("interp.map_prompt")),
            (interp, "parse_map_response", span("interp.map_parse")),
            (interp, "execute_sql", span("engine.execute", keep=True)),
            (cli, "vote", span("voting.vote")),
        ]
        return out

    def installed(self):
        return patched(self.targets())


def setup_targets(times: dict) -> list:
    """Timers for the one-off loads `lmsql run` does before its first example."""
    def timer(key):
        def factory(fn):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[key] = times.get(key, 0.0) + (time.perf_counter() - start) * 1e3
            return timed
        return factory
    cli = lmsql.cli
    return [(cli, "mock_from_fixtures", timer("backend.fixture_load_ms")),
            (cli, "load_exemplars", timer("prompts.exemplar_load_ms")),
            (cli, "default_exec_demos", timer("interp.pool_load_ms")),
            (cli, "load_exec_demos", timer("interp.pool_load_ms"))]


# ---- per-layer report ----

def shape_of(program) -> str:
    """Query shape of an executed program, for the engine.execute_ms split."""
    text = print_program(program)
    if "(SELECT" in text:
        return "subquery"
    if " LIKE " in text:
        return "like"
    if "GROUP BY" in text or "HAVING" in text:
        return "group"
    return "filter"


SHAPES = ("filter", "group", "like", "subquery")

# name -> unit, in report order; "/example" values are per example processed.
LAYER_METRICS = {
    "backend.calls": "count/example",
    "backend.distinct": "count/example",
    "backend.useful_ratio": "ratio",
    "backend.wait_ms": "ms/example",
    "backend.cache_hits": "count/example",
    "backend.cache_hit_ms": "ms/example",
    "backend.fixture_load_ms": "ms",
    "interp.retrieve_calls": "count/example",
    "interp.retrieve_ms": "ms/example",
    "interp.map_prompt_ms": "ms/example",
    "interp.map_parse_ms": "ms/example",
    "interp.self_ms": "ms/example",
    "interp.candidate_wait_ms": "ms/example",
    "interp.candidate_ok_ratio": "ratio",
    "interp.pool_load_ms": "ms",
    "engine.execute_ms": "ms/example",
    **{f"engine.execute_ms.{s}": "ms/example" for s in SHAPES},
    "engine.rows_in": "rows/call",
    "table.load_ms": "ms/example",
    "table.linearize_calls": "count/example",
    "table.linearize_ms": "ms/example",
    "prompts.plan_ms": "ms/example",
    "prompts.prompt_tokens": "tokens/example",
    "prompts.shots_kept": "shots/example",
    "prompts.rows_kept": "rows/example",
    "prompts.exemplar_load_ms": "ms",
    "syntax.parse_ms": "ms/example",
    "syntax.roles_ms": "ms/example",
    "syntax.parse_fail_frac": "ratio",
    "voting.vote_ms": "ms/example",
    "cli.self_ms": "ms/example",
    "cli.import_s": "s",
    "trace.examples_per_s": "1/s",
    "trace.untraced_examples_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list, service: dict) -> dict:
    """Per-layer values from the traced passes' spans. `service` holds the
    service counts per example (calls, distinct)."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    children = children_of(spans)
    examples = by_name.get("cli.example", [])
    n = len(examples)

    def ms(name):
        return sum(s[END] - s[START] for s in by_name.get(name, [])) * 1e3 / n

    def count(name):
        return len(by_name.get(name, [])) / n

    out = {}
    out["backend.calls"] = service["calls"]
    out["backend.distinct"] = service["distinct"]
    out["backend.useful_ratio"] = service["distinct"] / service["calls"]
    out["backend.wait_ms"] = ms("backend.service")
    hits = [s for s in by_name.get("backend.cache", []) if s[PAYLOAD]]
    out["backend.cache_hits"] = len(hits) / n
    out["backend.cache_hit_ms"] = sum(s[END] - s[START] for s in hits) * 1e3 / n
    out["interp.retrieve_calls"] = count("interp.retrieve")
    out["interp.retrieve_ms"] = ms("interp.retrieve")
    out["interp.map_prompt_ms"] = ms("interp.map_prompt")
    out["interp.map_parse_ms"] = ms("interp.map_parse")
    out["interp.self_ms"] = sum(self_time(s, children) for s in by_name.get("interp.run", [])) * 1e3 / n

    parse_end = {s[5]: s[END] for s in by_name.get("syntax.parse", [])}
    cands = by_name.get("cli.candidate", [])
    out["interp.candidate_wait_ms"] = sum(max(0.0, c[START] - parse_end[c[5]]) for c in cands) * 1e3 / n
    out["interp.candidate_ok_ratio"] = sum(1 for c in cands if c[PAYLOAD][0].ok()) / len(cands)

    execs = by_name.get("engine.execute", [])
    out["engine.execute_ms"] = ms("engine.execute")
    split = {s: 0.0 for s in SHAPES}
    for e in execs:
        split[shape_of(e[PAYLOAD][1][0])] += e[END] - e[START]
    for s in SHAPES:
        out[f"engine.execute_ms.{s}"] = split[s] * 1e3 / n
    out["engine.rows_in"] = statistics.fmean(e[PAYLOAD][1][1].row_count for e in execs)

    out["table.load_ms"] = ms("table.load") + ms("table.normalize")
    out["table.linearize_calls"] = count("table.linearize")
    out["table.linearize_ms"] = ms("table.linearize")

    plans = [s[PAYLOAD][0] for s in by_name.get("prompts.plan", []) if s[PAYLOAD][0]]
    out["prompts.plan_ms"] = ms("prompts.plan")
    out["prompts.prompt_tokens"] = statistics.fmean(p.tokens for p in plans)
    out["prompts.shots_kept"] = statistics.fmean(p.num_shots for p in plans)
    out["prompts.rows_kept"] = statistics.fmean(p.inference_rows for p in plans)

    parsed = [p for s in by_name.get("syntax.parse", []) for p in s[PAYLOAD][0]]
    out["syntax.parse_ms"] = ms("syntax.parse")
    out["syntax.roles_ms"] = ms("syntax.roles")
    out["syntax.parse_fail_frac"] = sum(1 for p in parsed if isinstance(p, Exception)) / len(parsed)
    out["voting.vote_ms"] = ms("voting.vote")

    cli_self = 0.0
    for ex in examples:
        layers = [d for d in descendants(ex, children) if not d[NAME].startswith("cli.")]
        cli_self += (ex[END] - ex[START]) - covered(ex, layers)
    out["cli.self_ms"] = cli_self * 1e3 / n
    return out
