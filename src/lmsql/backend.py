"""Completion backends: remote HTTP service, deterministic fixture mock, and
a response cache (in memory for the run, optionally persisted on disk).

All backends share one contract, enforced in Backend.complete: a request
whose approx_tokens(prompt) + max_output_tokens exceeds TOKEN_BUDGET is
refused with BudgetExhausted, and a reply is exactly request.n completions,
each truncated at the first stop string and cut to max_output_tokens tokens.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
import os
import re
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import BadResponse, BudgetExhausted, FormatError, IoError, TransportError
from .table import read_json, text_fields


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    top_p: float = 1.0
    max_output_tokens: int = 512
    n: int = 1
    stop: tuple = ("\n\n",)

    def __post_init__(self):
        object.__setattr__(self, "stop", tuple(self.stop))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")


CHARS_PER_TOKEN = 4
TOKEN_BUDGET = 8000  # approx_tokens of the prompt plus max_output_tokens, per request


def approx_tokens(text: str) -> int:
    """Deterministic token-count approximation used for budget checks: a
    text fits a budget of b tokens iff it has at most b * CHARS_PER_TOKEN
    characters."""
    return math.ceil(len(text) / CHARS_PER_TOKEN)


def truncate_at_stop(text: str, stop) -> str:
    cut = len(text)
    for s in stop:
        idx = text.find(s)
        if idx >= 0:
            cut = min(cut, idx)
    return text[:cut]


class Backend:
    """A text-completion capability with a stable identity for cache keying."""

    identity: str = "backend"

    def complete(self, req: CompletionRequest) -> list:
        needed = approx_tokens(req.prompt) + req.max_output_tokens
        if needed > TOKEN_BUDGET:
            raise BudgetExhausted(f"request needs ~{needed} tokens, budget is {TOKEN_BUDGET}")
        raw = self._complete(req)
        cap = req.max_output_tokens * CHARS_PER_TOKEN
        out = [truncate_at_stop(r, req.stop)[:cap] for r in raw]
        if len(out) != req.n:
            raise BadResponse(f"{self.identity} returned {len(out)} completions, wanted {req.n}")
        return out

    def _complete(self, req: CompletionRequest) -> list:
        raise NotImplementedError


class NullBackend(Backend):
    """Placeholder for call-free execution; any completion attempt fails."""

    identity = "null"

    def _complete(self, req: CompletionRequest) -> list:
        raise TransportError("no completion backend configured")


class MockBackend(Backend):
    """Closed-world backend answering from exact prompts or regex rules.

    Regex rule responses may use backreferences (\\1, \\g<name>) into the
    matched prompt. When fewer canned responses than n exist, they repeat
    cyclically, which keeps temp-0 replays bit-identical.
    """

    identity = "mock"

    def __init__(self, rules=None):
        self._exact: dict = {}
        self._regex: list = []
        for kind, pattern, responses in rules or []:
            if kind == "exact":
                self.add_exact(pattern, responses)
            else:
                self.add_rule(pattern, responses)

    def add_exact(self, prompt: str, responses) -> None:
        self._exact[prompt] = [str(r) for r in responses]

    def add_rule(self, pattern: str, responses) -> None:
        self._regex.append((re.compile(pattern, re.DOTALL), [str(r) for r in responses]))

    def _lookup(self, prompt: str) -> list:
        if prompt in self._exact:
            return self._exact[prompt]
        for pat, responses in self._regex:
            m = pat.search(prompt)
            if m:
                return [m.expand(r) for r in responses]
        raise BadResponse("no fixture for prompt: " + self._nearest(prompt))

    def _nearest(self, prompt: str) -> str:
        keys = list(self._exact)
        if keys:
            best = max(keys, key=lambda k: difflib.SequenceMatcher(None, prompt, k).quick_ratio())
            return f"nearest fixture key starts {best[:120]!r}"
        if self._regex:
            return f"no regex rule matched (have {len(self._regex)}); prompt tail {prompt[-120:]!r}"
        return "mock has no fixtures at all"

    def _complete(self, req: CompletionRequest) -> list:
        responses = self._lookup(req.prompt)
        if not responses:
            raise BadResponse("fixture entry has zero responses")
        return [responses[i % len(responses)] for i in range(req.n)]


def mock_from_fixtures(path) -> MockBackend:
    """Load MockBackend rules from a JSON array of
    {"match": "exact"|"regex", "prompt_pattern": ..., "responses": [...]}."""
    name = Path(path).name
    mock = MockBackend()
    for i, entry in enumerate(read_json(path, "fixture file", array=True)):
        where = f"{name}[{i}]"
        match, pattern = text_fields(entry, ("match", "prompt_pattern"), where)
        responses = entry.get("responses")
        if not isinstance(responses, list):
            raise FormatError(f"{where}: field 'responses' must be an array")
        if match == "exact":
            mock.add_exact(pattern, responses)
        elif match == "regex":
            try:
                mock.add_rule(pattern, responses)
            except re.error as e:
                raise FormatError(f"{where}: bad regex: {e}")
        else:
            raise FormatError(f"{where}: match must be 'exact' or 'regex', got {match!r}")
    return mock


class CachingBackend(Backend):
    """Response cache for one run: an in-memory tier, optionally backed by a
    content-addressed disk tier under cache_dir.

    The key covers the backend identity and the full request; nonzero
    temperature additionally mixes in the run seed, since replays of a
    nondeterministic service are only meaningful per run.

    Each key is resolved once (single-flight): the first caller sends the
    request and concurrent callers of the same key wait for its result. A
    failure reaches the owner and every waiter and is not remembered, so a
    later call retries.
    """

    def __init__(self, inner: Backend, cache_dir=None, seed: int = 0):
        self.inner = inner
        self.identity = inner.identity
        self.seed = seed
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        if self.cache_dir is not None:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise IoError(f"cannot create cache dir {cache_dir}: {e}")
        self._lock = threading.Lock()
        # key -> responses, or a Future of them while the request is in flight
        self._memo: dict = {}

    def key(self, req: CompletionRequest) -> str:
        payload = {
            "identity": self.identity,
            "prompt": req.prompt,
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_output_tokens": req.max_output_tokens,
            "n": req.n,
            "stop": list(req.stop),
        }
        if req.temperature > 0:
            payload["seed"] = self.seed
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _complete(self, req: CompletionRequest) -> list:
        key = self.key(req)
        with self._lock:
            found = self._memo.get(key)
            if found is None:
                self._memo[key] = future = Future()
        if isinstance(found, list):
            return list(found)
        if found is not None:
            return list(found.result())
        try:
            responses = self._fetch(key, req)
        except BaseException as e:
            with self._lock:
                del self._memo[key]
            future.set_exception(e)
            future = None  # e's traceback holds this frame: no cycle through it
            raise
        with self._lock:
            self._memo[key] = responses
        future.set_result(responses)
        return list(responses)

    def _fetch(self, key: str, req: CompletionRequest) -> list:
        if self.cache_dir is None:
            return self.inner.complete(req)
        path = self._path(key)
        try:  # an entry is used only if it holds req.n strings for this key
            entry = json.loads(path.read_text(encoding="utf-8"))
            found = entry["responses"] if entry["key"] == key else None
        except (OSError, ValueError, TypeError, KeyError):  # missing, not JSON, not an object
            found = None
        if isinstance(found, list) and len(found) == req.n and all(isinstance(r, str) for r in found):
            return found
        responses = self.inner.complete(req)
        entry = {
            "key": key,
            "identity": self.identity,
            "responses": responses,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, ensure_ascii=False)
            os.replace(tmp, path)
        except OSError as e:
            raise IoError(f"cannot write cache entry {path}: {e}")
        return responses


def with_cache(backend: Backend, cache_dir, seed: int = 0) -> Backend:
    return CachingBackend(backend, cache_dir, seed=seed)


# HttpBackend's fixed settings
MAX_ATTEMPTS = 3
BACKOFF_S = 0.5  # the wait after the first failed attempt; it doubles after each
RETRY_AFTER_CAP_S = 30.0  # the longest wait a reply's Retry-After can ask for
REQUESTS_PER_MINUTE = 200
TIMEOUT_S = 60.0


class _TokenBucket:
    def __init__(self, per_minute: int, sleeper=time.sleep):
        self.capacity = float(per_minute)
        self.tokens = float(per_minute)
        self.rate = per_minute / 60.0
        self.sleeper = sleeper
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            self.sleeper(wait)


class HttpBackend(Backend):
    """Client for a completion-style HTTP+JSON service.

    POSTs {prompt, temperature, top_p, max_tokens, n, stop} and expects
    {"choices": [{"text": ...}, ...]}. Retries transient failures with
    exponential backoff, or after the wait a 429 or 5xx reply's Retry-After
    asks for, and enforces a client-side request rate. The HTTP modules are
    imported at the first request, so a run without one never loads them;
    urlopen defaults to urllib.request.urlopen.
    """

    def __init__(self, endpoint: str, model: str = "", api_key: str = "",
                 sleeper=time.sleep, urlopen=None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.identity = f"remote:{model or endpoint}"
        self.sleeper = sleeper
        self.urlopen = urlopen
        self._bucket = _TokenBucket(REQUESTS_PER_MINUTE, sleeper=sleeper)

    def _complete(self, req: CompletionRequest) -> list:
        import http.client
        import urllib.error
        import urllib.request
        urlopen = self.urlopen or urllib.request.urlopen
        payload = {
            "prompt": req.prompt,
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_output_tokens,
            "n": req.n,
            "stop": list(req.stop),
        }
        if self.model:
            payload["model"] = self.model
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.endpoint, data=json.dumps(payload).encode("utf-8"),
                                         headers=headers, method="POST")
        last_error = None
        for attempt in range(MAX_ATTEMPTS):
            self._bucket.acquire()
            wait = BACKOFF_S * (2 ** attempt)
            try:
                with urlopen(request, timeout=TIMEOUT_S) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as e:
                detail = _error_text(e)
                if e.code != 429 and e.code < 500:
                    raise TransportError(f"HTTP {e.code}: {detail}")
                last_error = f"HTTP {e.code}"
                retry_after = (e.headers or {}).get("Retry-After", "").strip()
                if re.fullmatch(r"[0-9]+", retry_after):  # seconds; an HTTP-date is not honoured
                    wait = min(float(retry_after), RETRY_AFTER_CAP_S)
            except (OSError, http.client.HTTPException) as e:
                last_error = str(e)
            else:
                if status != 200:
                    raise TransportError(f"HTTP {status}: {body[:200].decode('utf-8', 'replace')}")
                return self._parse(body)
            if attempt < MAX_ATTEMPTS - 1:
                self.sleeper(wait)
        raise TransportError(f"service unreachable after {MAX_ATTEMPTS} attempts: {last_error}")

    def _parse(self, body: bytes) -> list:
        try:
            reply = json.loads(body)
            return [str(c["text"]) for c in reply["choices"]]
        except (ValueError, KeyError, TypeError) as e:
            raise BadResponse(f"unparseable service reply: {e}")


def _error_text(e) -> str:
    """The start of the body of e, a urllib.error.HTTPError; closes the reply."""
    import http.client
    try:
        with e:
            return e.read(200).decode("utf-8", "replace")
    except (OSError, http.client.HTTPException):
        return ""
