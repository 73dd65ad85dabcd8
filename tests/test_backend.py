from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest

import lmsql
from lmsql import (Backend, BadResponse, CompletionRequest, HttpBackend, MockBackend,
                   RateLimited, TransportError, approx_tokens,
                   mock_from_fixtures, with_cache)
from lmsql.errors import FormatError

from conftest import RecordingBackend


def req(prompt="p", **kw):
    return CompletionRequest(prompt, **kw)


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest("p", n=0)
    with pytest.raises(ValueError):
        CompletionRequest("p", max_output_tokens=0)
    with pytest.raises(ValueError):
        CompletionRequest("p", temperature=3.0)
    with pytest.raises(ValueError):
        CompletionRequest("p", top_p=0.0)


def test_mock_exact_lookup():
    mock = MockBackend()
    mock.add_exact("p", ["yes"])
    assert mock.complete(req("p")) == ["yes"]


def test_mock_returns_n_in_order():
    canned = [f"prog {i}" for i in range(20)]
    mock = MockBackend()
    mock.add_exact("p", canned)
    assert mock.complete(req("p", n=20)) == canned
    # fewer canned than n: cycle deterministically
    mock.add_exact("q", ["a", "b"])
    assert mock.complete(req("q", n=5)) == ["a", "b", "a", "b", "a"]


def test_mock_unknown_prompt_names_nearest():
    mock = MockBackend()
    mock.add_exact("the quick brown fox", ["y"])
    with pytest.raises(BadResponse) as exc:
        mock.complete(req("the quick brown cat"))
    assert "the quick brown fox" in str(exc.value)


def test_mock_regex_rule_with_backreference():
    mock = MockBackend()
    mock.add_rule(r"value of (\w+)", [r"extracted \1"])
    assert mock.complete(req("what is the value of feet today")) == ["extracted feet"]


def test_stop_truncation():
    mock = MockBackend()
    mock.add_exact("p", ["keep this\n\ndrop this"])
    out = mock.complete(req("p", stop=("\n\n",)))
    assert out == ["keep this"]
    for completion in out:
        assert "\n\n" not in completion


def test_fixture_file_loading(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([
        {"match": "exact", "prompt_pattern": "hello", "responses": ["world"]},
        {"match": "regex", "prompt_pattern": "nu(m)ber", "responses": [r"got \1"]},
    ]))
    mock = mock_from_fixtures(path)
    assert mock.complete(req("hello")) == ["world"]
    assert mock.complete(req("a number here")) == ["got m"]
    bad = tmp_path / "bad.json"
    for entry in ({"match": "sometimes", "prompt_pattern": "x", "responses": []},
                  {"match": "regex", "prompt_pattern": "(", "responses": []},
                  {"match": "exact", "prompt_pattern": 5, "responses": []},
                  {"match": "exact", "prompt_pattern": "x", "responses": "yes"},
                  "not an object"):
        bad.write_text(json.dumps([entry]))
        with pytest.raises(FormatError, match=r"bad\.json\[0\]"):
            mock_from_fixtures(bad)


def test_cache_memoizes(tmp_path):
    inner = RecordingBackend(MockBackend([("exact", "p", ["yes"])]))
    cached = with_cache(inner, tmp_path / "cache")
    assert cached.complete(req("p")) == ["yes"]
    assert cached.complete(req("p")) == ["yes"]
    assert len(inner.calls) == 1


def test_cache_key_covers_all_fields(tmp_path):
    inner = RecordingBackend(MockBackend([("exact", "p", ["yes"])]))
    cached = with_cache(inner, tmp_path / "cache")
    cached.complete(req("p", temperature=0.0))
    cached.complete(req("p", temperature=0.5))
    assert len(inner.calls) == 2
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_cache_survives_restart(tmp_path):
    mock = MockBackend([("exact", "p", ["yes"])])
    first = with_cache(RecordingBackend(mock), tmp_path / "cache")
    first.complete(req("p"))
    inner = RecordingBackend(mock)
    second = with_cache(inner, tmp_path / "cache")
    assert second.complete(req("p")) == ["yes"]
    assert inner.calls == []  # served from disk


def test_cache_recomputes_after_removal(tmp_path):
    import shutil
    mock = MockBackend([("exact", "p", ["yes"])])
    cached = with_cache(mock, tmp_path / "cache")
    before = cached.complete(req("p"))
    shutil.rmtree(tmp_path / "cache")
    cached2 = with_cache(mock, tmp_path / "cache")
    assert cached2.complete(req("p")) == before


def test_cache_seed_scopes_sampled_requests(tmp_path):
    inner = RecordingBackend(MockBackend([("exact", "p", ["yes"])]))
    a = with_cache(inner, tmp_path / "cache", seed=1)
    b = with_cache(inner, tmp_path / "cache", seed=2)
    hot = req("p", temperature=0.7)
    assert a.key(hot) != b.key(hot)
    assert a.key(req("p")) == b.key(req("p"))  # temp 0 ignores the seed


class GatedBackend(Backend):
    """Blocks every request until `release` is set; optionally fails the first."""

    identity = "gated"

    def __init__(self, fail_first=False):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def _complete(self, req):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        self.entered.set()
        assert self.release.wait(timeout=10)
        if first and self.fail_first:
            raise TransportError("service down")
        return ["yes"] * req.n


def _in_threads(fn, count):
    """Start `count` threads running fn; returns (threads, results, errors)."""
    results, errors = [None] * count, [None] * count

    def run(i):
        try:
            results[i] = fn()
        except Exception as e:
            errors[i] = e
    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    return threads, results, errors


def _await_waiters(threads, count):
    """Block until `count` of the threads wait on another caller's request:
    parked in a lock wait (innermost frame `wait`) outside the cache's fetch."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        parked = 0
        for t in threads:
            frame, names = sys._current_frames().get(t.ident), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            parked += names[:1] == ["wait"] and "_fetch" not in names
        if parked == count:
            return
        time.sleep(0.001)
    raise AssertionError(f"expected {count} waiting callers")


def test_cache_single_flight(tmp_path):
    inner = GatedBackend()
    cached = with_cache(inner, tmp_path / "cache")
    threads, results, errors = _in_threads(lambda: cached.complete(req("p", n=2)), 2)
    assert inner.entered.wait(timeout=10)
    _await_waiters(threads, 1)  # one caller sends, the other waits on it
    inner.release.set()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert errors == [None, None]
    assert inner.calls == 1
    assert results[0] == results[1] == ["yes", "yes"]
    assert results[0] is not results[1]
    results[0].append("mutated")
    assert cached.complete(req("p", n=2)) == ["yes", "yes"]
    assert inner.calls == 1


def test_cache_failure_reaches_every_waiter_and_is_retried():
    inner = GatedBackend(fail_first=True)
    cached = with_cache(inner, None)
    threads, results, errors = _in_threads(lambda: cached.complete(req("p")), 3)
    assert inner.entered.wait(timeout=10)
    _await_waiters(threads, 2)
    inner.release.set()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert inner.calls == 1
    assert results == [None, None, None]
    assert all(isinstance(e, TransportError) for e in errors)
    assert cached.complete(req("p")) == ["yes"]  # the failure was not memoized
    assert inner.calls == 2


def test_cache_single_flight_under_contention():
    class Counting(Backend):
        identity = "counting"

        def __init__(self):
            self.calls = {}
            self._lock = threading.Lock()

        def _complete(self, req):
            with self._lock:
                self.calls[req.prompt] = self.calls.get(req.prompt, 0) + 1
            time.sleep(0.001)
            return [req.prompt.upper()]

    inner = Counting()
    cached = with_cache(inner, None)
    prompts = [f"p{i}" for i in range(40)]

    def worker():
        return [cached.complete(req(p))[0] for p in prompts * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads, results, errors = _in_threads(worker, 8)
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == [None] * 8
    assert all(r == [p.upper() for p in prompts * 3] for r in results)
    assert inner.calls == {p: 1 for p in prompts}


def test_cache_memory_only_writes_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inner = RecordingBackend(MockBackend([("exact", "p", ["yes"])]))
    cached = with_cache(inner, None)
    assert cached.complete(req("p")) == ["yes"]
    assert cached.complete(req("p")) == ["yes"]
    assert cached.complete(req("p", n=2)) == ["yes", "yes"]  # n is part of the key
    assert len(inner.calls) == 2
    assert list(tmp_path.iterdir()) == []


class FakeResponse:
    """A reply as urlopen hands it back; urlopen raises HTTPError for status >= 400."""

    def __init__(self, status, body=None, text="", headers=None):
        self.status = status
        self.body = (text if body is None else json.dumps(body)).encode("utf-8")
        self.headers = headers or {}

    def read(self):
        return self.body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class FakeUrlopen:
    """Scripted transport: each element is an exception or a FakeResponse."""

    def __init__(self, script):
        self.script = list(script)
        self.posts = []

    def __call__(self, request, timeout=None):
        self.posts.append(json.loads(request.data))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        if step.status >= 400:
            raise urllib.error.HTTPError(request.full_url, step.status, "error", step.headers,
                                         io.BytesIO(step.body))
        return step


def http_backend(script, **kw):
    sleeps = []
    backend = HttpBackend("http://svc/complete", sleeper=sleeps.append,
                          urlopen=FakeUrlopen(script), **kw)
    return backend, sleeps


def test_http_success_and_payload():
    backend, _ = http_backend([FakeResponse(200, {"choices": [{"text": "a"}, {"text": "b"}]})])
    assert backend.complete(req("p", n=2)) == ["a", "b"]
    assert backend.urlopen.posts[0]["n"] == 2
    assert backend.urlopen.posts[0]["max_tokens"] == 512


def test_http_retries_then_succeeds():
    backend, sleeps = http_backend([
        urllib.error.URLError("down"),
        FakeResponse(500),
        FakeResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req("p")) == ["ok"]
    assert sleeps == [0.5, 1.0]  # exponential backoff between attempts


@pytest.mark.parametrize("retry_after, wait", [
    ("2", 2.0),
    (" 0 ", 0.0),
    ("86400", lmsql.backend.RETRY_AFTER_CAP_S),  # a hostile header cannot stall the run
    ("9" * 5000, lmsql.backend.RETRY_AFTER_CAP_S),
    (None, 0.5),  # no header: the backoff schedule
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5),  # an HTTP-date is not honoured
    ("-3", 0.5),
    ("1.5", 0.5),
    ("soon", 0.5),
])
@pytest.mark.parametrize("status", [429, 503])
def test_http_honours_retry_after(status, retry_after, wait):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    backend, sleeps = http_backend([
        FakeResponse(status, headers=headers),
        FakeResponse(status),
        FakeResponse(200, {"choices": [{"text": "ok"}]}),
    ])
    assert backend.complete(req("p")) == ["ok"]
    assert sleeps == [wait, 1.0]  # the next wait follows the schedule again


def test_http_gives_up_after_bounded_retries():
    backend, sleeps = http_backend([urllib.error.URLError("down")] * 3)
    with pytest.raises(TransportError):
        backend.complete(req("p"))
    assert len(backend.urlopen.posts) == 3


def test_http_client_error_fails_without_retry():
    backend, sleeps = http_backend([FakeResponse(400, text="bad request")])
    with pytest.raises(TransportError, match="HTTP 400: bad request"):
        backend.complete(req("p"))
    assert len(backend.urlopen.posts) == 1
    assert sleeps == []


def test_cli_imports_without_requests():
    code = 'import sys; sys.modules["requests"] = None; import lmsql.cli'
    env = dict(os.environ, PYTHONPATH=str(Path(lmsql.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_http_bad_reply():
    backend, _ = http_backend([FakeResponse(200, {"nope": 1})])
    with pytest.raises(BadResponse):
        backend.complete(req("p"))


def test_http_token_budget():
    backend, _ = http_backend([])
    prompt = "x" * 4 * 7600  # 7600 tokens, plus 512 for the output, is over 8000
    assert approx_tokens(prompt) == 7600
    with pytest.raises(RateLimited, match="budget is 8000"):
        backend.complete(req(prompt))
    assert backend.urlopen.posts == []
