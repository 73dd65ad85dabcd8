from __future__ import annotations

from pathlib import Path

import pytest

from lmsql import Backend, CompletionRequest, Table, load_table, normalize, table_from_json
from lmsql.backend import CHARS_PER_TOKEN, TOKEN_BUDGET

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


class RecordingBackend(Backend):
    """Wrapper that records every request/response pair."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.identity = inner.identity
        self.calls: list = []  # (CompletionRequest, responses)

    def _complete(self, req: CompletionRequest) -> list:
        responses = self.inner.complete(req)
        self.calls.append((req, responses))
        return responses


def padded(instruction: str, budget: int) -> str:
    """The instruction, padded so that a prompt built on it meets the fixed
    TOKEN_BUDGET where the unpadded prompt would meet a budget of `budget`
    tokens: the padding takes TOKEN_BUDGET - budget tokens of it."""
    return instruction + " " * ((TOKEN_BUDGET - budget) * CHARS_PER_TOKEN)


def make_table(title: str, header, rows) -> Table:
    """Normalized table from inline header/rows."""
    return normalize(table_from_json({"title": title, "header": list(header),
                                      "rows": [list(r) for r in rows]}))


@pytest.fixture
def lachlan() -> Table:
    return normalize(load_table(fixture_path("lachlan.csv")))


@pytest.fixture
def records() -> Table:
    return normalize(load_table(fixture_path("records.csv")))


@pytest.fixture
def shirts() -> Table:
    return normalize(load_table(fixture_path("shirts.csv")))


@pytest.fixture
def hometown() -> Table:
    return make_table(
        "2010–11 UAB Blazers men's basketball team",
        ["hometown"],
        [["chicago, il, u.s."], ["oklahoma city, ok, u.s."], ["montgomery, al, u.s."],
         ["greenville, ms, u.s."], ["birmingham, al, u.s."]],
    )
