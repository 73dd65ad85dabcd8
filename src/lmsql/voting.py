"""Weighted majority vote over executed candidate answers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .engine import EMPTY_ANSWER, Answer
from .errors import LmSqlError
from .syntax import Program


@dataclass(frozen=True)
class Candidate:
    """One sampled program and its execution outcome. `program` holds the
    parse error when parsing failed; `answer` holds the execution error."""
    index: int
    program: Union[Program, Exception]
    answer: Union[Answer, Exception, None]
    has_api_call: bool = False

    def ok(self) -> bool:
        return isinstance(self.program, Program) and isinstance(self.answer, Answer)


class VoteStrategy:
    name = "plain"

    def weight(self, cand: Candidate) -> int:
        return 1


class PlainVote(VoteStrategy):
    """One candidate, one vote."""


class AnswerBiasedVote(VoteStrategy):
    """Up-weight entailed verdicts: answers normalizing to 1/yes count
    weight_one votes, 0/no count weight_zero."""

    name = "answer-biased"

    def __init__(self, weight_one: int = 4, weight_zero: int = 1):
        if weight_one < 1 or weight_zero < 1:
            raise ValueError("vote weights must be positive")
        self.weight_one = weight_one
        self.weight_zero = weight_zero

    def weight(self, cand: Candidate) -> int:
        key = cand.answer.normalized_key
        if key in ("1", "yes"):
            return self.weight_one
        if key in ("0", "no"):
            return self.weight_zero
        return 1


class ProgramBiasedVote(VoteStrategy):
    """Up-weight candidates whose program uses model calls."""

    name = "program-biased"

    def __init__(self, api_call_weight: int = 10, plain_weight: int = 1):
        if api_call_weight < 1 or plain_weight < 1:
            raise ValueError("vote weights must be positive")
        self.api_call_weight = api_call_weight
        self.plain_weight = plain_weight

    def weight(self, cand: Candidate) -> int:
        return self.api_call_weight if cand.has_api_call else self.plain_weight


def strategy_from_name(name: str) -> VoteStrategy:
    strategies = {
        "plain": PlainVote,
        "answer-biased": AnswerBiasedVote,
        "program-biased": ProgramBiasedVote,
    }
    try:
        return strategies[name]()
    except KeyError:
        raise LmSqlError(f"unknown vote strategy {name!r} (have: {sorted(strategies)})")


@dataclass(frozen=True)
class GroupTally:
    key: str
    weight: int
    candidate_indices: tuple
    answer: Answer


@dataclass(frozen=True)
class VoteReport:
    strategy: str
    groups: tuple  # GroupTally, sorted by (-weight, first index)
    winner_key: Optional[str]
    excluded: tuple = field(default=())  # indices of erroring candidates

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "winner": self.winner_key,
            "excluded": list(self.excluded),
            "groups": [
                {
                    "values": g.answer.display(),
                    "weight": g.weight,
                    "candidates": list(g.candidate_indices),
                }
                for g in self.groups
            ],
        }


def vote(cands: list, strategy: VoteStrategy):
    """Group non-erroring answers, apply the strategy's weights, and return
    the argmax answer with a full tally; ties go to the group containing the
    lowest candidate index. All candidates erroring yields the empty answer."""
    if not cands:
        raise ValueError("vote needs at least one candidate")
    buckets: dict = {}
    excluded = []
    for cand in cands:
        if not cand.ok():
            excluded.append(cand.index)
            continue
        buckets.setdefault(cand.answer.normalized_key, []).append(cand)
    groups = []
    for key, members in buckets.items():
        weight = sum(strategy.weight(c) for c in members)
        indices = tuple(c.index for c in members)
        groups.append(GroupTally(key, weight, indices, members[0].answer))
    groups.sort(key=lambda g: (-g.weight, g.candidate_indices[0]))
    if not groups:
        report = VoteReport(strategy.name, (), None, tuple(excluded))
        return EMPTY_ANSWER, report
    winner = groups[0]
    report = VoteReport(strategy.name, tuple(groups), winner.key, tuple(excluded))
    return winner.answer, report
