"""Schedule perturbation: `lmsql run` writes the same records whatever order
its concurrent work finishes in.

The candidates of an example run on worker threads, their sibling model
calls are in flight at once on the call pool, and the run's cache is
single-flight. A wrapper under the cache, where the service stands, delays
each request by a drawn 0-3 ms that depends on its key, so that requests
finish in a drawn order, and the cache's claim of a key takes a drawn 0-1
ms. Threads switch every 10 us rather than every 5 ms, so that they
interleave more finely. The records must be the bytes of an undelayed run at --parallelism 1,
the rewritten programs (which name each call's column) must be that run's,
and each distinct request must reach the service once.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import Future
from functools import cache
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from lmsql import Backend, backend, cli, print_program

from conftest import fixture_path

# fig1's program joins two sibling calls with AND; shared_calls asks fig1's
# question with six candidates that share those calls: in both orders, twice
# in one program, nested, and beside a call that fails
FIXTURES = ("bench", "fig1", "shared_calls")


class DelayBackend(Backend):
    """Sleeps before each request, unless salt is None: a fixed function of
    the request and the salt, from 0 to 3 ms. Counts each request it is sent."""

    def __init__(self, inner: Backend, salt):
        self.inner = inner
        self.identity = inner.identity
        self.salt = salt
        self.sent: Counter = Counter()
        self._lock = threading.Lock()

    def _complete(self, req) -> list:
        key = repr((req.prompt, req.temperature, req.top_p, req.max_output_tokens, req.n, req.stop))
        with self._lock:
            self.sent[key] += 1
        if self.salt is not None:
            digest = hashlib.blake2b(f"{self.salt}\n{key}".encode("utf-8"), digest_size=4).digest()
            time.sleep(int.from_bytes(digest, "big") % 3001 / 1e6)
        return self.inner.complete(req)


def slow_future(salt: int):
    """A Future whose making takes 0-1 ms, drawn by salt. The cache makes one
    while it claims a key, so this widens the window between finding the
    key unclaimed and claiming it, where only the cache's lock keeps a
    second thread from claiming the same key."""
    pause = salt % 1001 / 1e6

    class SlowFuture(Future):
        def __init__(self):
            time.sleep(pause)
            super().__init__()
    return SlowFuture


def run(fixture: str, parallelism: int, salt=None) -> tuple:
    """(the bytes of results.jsonl, the sorted rewritten programs of the
    candidates that ran, the service's request counts) of `lmsql run` on a
    fixture, with requests delayed by salt, or not."""
    services, rewritten = [], []

    def service(path):
        services.append(DelayBackend(load(path), salt))
        return services[-1]

    def traced(*args):
        trace = run_program(*args)
        rewritten.append(print_program(trace.rewritten))
        return trace
    load, run_program = cli.mock_from_fixtures, cli.run_program
    inputs = fixture_path(fixture)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "mock_from_fixtures", service), \
            mock.patch.object(cli, "run_program", traced), \
            mock.patch.object(backend, "Future", Future if salt is None else slow_future(salt)):
        out = Path(tmp) / "results.jsonl"
        code = cli.main(["run", str(inputs / "dataset.jsonl"), "--config",
                         str(inputs / "config.json"), "--parallelism", str(parallelism),
                         "-o", str(out)])
        assert code == 0
        return out.read_bytes(), sorted(rewritten), services[0].sent


@cache
def reference(fixture: str) -> tuple:
    return run(fixture, 1)[:2]


@settings(max_examples=30, deadline=None)
@given(fixture=st.sampled_from(FIXTURES), parallelism=st.sampled_from([1, 2, 4]),
       salt=st.integers(0, 2**32 - 1))
def test_records_and_requests_do_not_depend_on_the_schedule(fixture, parallelism, salt):
    reference(fixture)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results, rewritten, sent = run(fixture, parallelism, salt)
    finally:
        sys.setswitchinterval(interval)
    assert (results, rewritten) == reference(fixture)
    assert sent and set(sent.values()) == {1}  # each distinct request reached the service once
