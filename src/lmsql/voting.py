"""Weighted majority vote over executed candidate answers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .engine import EMPTY_ANSWER, Answer
from .syntax import Program


@dataclass(frozen=True)
class Candidate:
    """One sampled program and its execution outcome. `program` holds the
    parse error when parsing failed; `answer` holds the execution error."""
    index: int
    program: Union[Program, Exception]
    answer: Union[Answer, Exception, None]

    @property
    def has_api_call(self) -> bool:
        return isinstance(self.program, Program) and bool(self.program.calls)

    def ok(self) -> bool:
        return isinstance(self.program, Program) and isinstance(self.answer, Answer)


# Each strategy's weight for one candidate that executed: plain is one
# candidate, one vote; answer-biased up-weights entailed verdicts (answers
# that normalize to 1/yes) 4:1; program-biased up-weights programs that use
# model calls 10:1.
STRATEGIES: dict = {
    "plain": lambda cand: 1,
    "answer-biased": lambda cand: 4 if cand.answer.normalized_key in ("1", "yes") else 1,
    "program-biased": lambda cand: 10 if cand.has_api_call else 1,
}


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


def vote(cands: list, strategy: str):
    """Group non-erroring answers, weigh them by the STRATEGIES entry named
    `strategy`, and return the argmax answer with a full tally; ties go to
    the group containing the lowest candidate index. All candidates erroring
    yields the empty answer."""
    if not cands:
        raise ValueError("vote needs at least one candidate")
    weight = STRATEGIES[strategy]
    buckets: dict = {}
    excluded = []
    for cand in cands:
        if not cand.ok():
            excluded.append(cand.index)
            continue
        buckets.setdefault(cand.answer.normalized_key, []).append(cand)
    groups = []
    for key, members in buckets.items():
        total = sum(weight(c) for c in members)
        indices = tuple(c.index for c in members)
        groups.append(GroupTally(key, total, indices, members[0].answer))
    groups.sort(key=lambda g: (-g.weight, g.candidate_indices[0]))
    if not groups:
        report = VoteReport(strategy, (), None, tuple(excluded))
        return EMPTY_ANSWER, report
    winner = groups[0]
    report = VoteReport(strategy, tuple(groups), winner.key, tuple(excluded))
    return winner.answer, report
