"""The benchmark's hook contract, checked on the bench fixture.

perfbench/hooks.py times `lmsql run` by wrapping module attributes it looks
up at call time. A traced benchmark run fails when a wrapped name is gone,
when it is never reached, or when a one-off load happens after the first
example. This test runs the same hooks (imported, not copied) over
tests/fixtures/bench, so that such a change fails here first.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from lmsql import cli

from conftest import fixture_path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hooks import LAYER_METRICS, Hooks, layer_metrics, patched, setup_targets  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = fixture_path("bench")
SETUP_LOADS = {"backend.fixture_load_ms", "prompts.exemplar_load_ms", "interp.pool_load_ms"}


def test_traced_run_reaches_every_hook(tmp_path):
    times: dict = {}
    loaded_before_first_example = []

    def first_example(run_example):
        def run(*args, **kwargs):
            if not loaded_before_first_example:
                loaded_before_first_example.append(set(times))
            return run_example(*args, **kwargs)
        return run

    calls: Counter = Counter()

    def counting(key):
        def factory(fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted
        return factory

    hooks = Hooks(0, Tracer())
    hooked = [(module, name) for module, name, _ in hooks.targets()]
    counters = [(module, name, counting((module, name))) for module, name in hooked]
    with patched(setup_targets(times) + [(cli, "_run_example", first_example)] + counters), \
            hooks.installed():
        code = cli.main(["run", str(BENCH / "dataset.jsonl"), "--config",
                         str(BENCH / "config.json"), "-o", str(tmp_path / "results.jsonl")])
    assert code == 0
    assert [f"{module.__name__}.{name}" for module, name in hooked
            if not calls[module, name]] == []  # every hooked name is reached
    assert loaded_before_first_example == [SETUP_LOADS]
    examples = len(hooks.example_times)
    service = {k: v / examples for k, v in hooks.service.counts().items()}
    metrics = layer_metrics(hooks.tracer.spans, service)
    traced = {k for k in LAYER_METRICS if k.startswith("trace.")}
    assert set(metrics) == set(LAYER_METRICS) - SETUP_LOADS - {"cli.import_s"} - traced
