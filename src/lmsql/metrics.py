"""Answer-correctness judges: strict string match, normalized match, and the
relaxed semantic match with choice-question and number-with-units pre-checks.

The three judges form a monotone chain: a string match implies a normalized
match implies a semantic match.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .engine import Answer, canonical_value
from .table import parse_date_like, parse_number

AUX_VERBS = {
    "is", "are", "was", "were", "do", "does", "did",
    "has", "have", "had", "can", "could", "will", "would", "should",
}

_PAREN_SUFFIX = re.compile(r"\s*\([^()]*\)\s*$")
_STRIP_CHARS = " \t\"'`.,:;!?"
_NUMBER_WITH_UNIT = re.compile(r"^(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)\s+([a-z][a-z. %]*)$")


@dataclass(frozen=True)
class EvalOutcome:
    matched: bool
    matcher_used: str  # string | official | numeric | date | semantic-prematch-AB | semantic-prematch-units


NUM_TOLERANCE = 1e-6


def _official_form(value) -> tuple:
    """Normalized, typed comparison form of one answer value."""
    s = canonical_value(value)
    while True:
        stripped = _PAREN_SUFFIX.sub("", s).strip()
        if stripped == s or not stripped:
            break
        s = stripped
    s = s.strip(_STRIP_CHARS)
    s = re.sub(r"\s+", " ", s)
    n = parse_number(s)
    if n is not None:
        return ("num", n)
    d = parse_date_like(s)
    if d is not None:
        return ("date", d.isoformat())
    return ("text", s)


def _forms_match(a: list, b: list) -> bool:
    """Multiset equality; numbers pair up within the absolute tolerance."""
    if len(a) != len(b):
        return False
    a_nums = sorted(v for kind, v in a if kind == "num")
    b_nums = sorted(v for kind, v in b if kind == "num")
    if len(a_nums) != len(b_nums):
        return False
    if any(abs(x - y) > NUM_TOLERANCE for x, y in zip(a_nums, b_nums)):
        return False
    rest_a = Counter(f for f in a if f[0] != "num")
    rest_b = Counter(f for f in b if f[0] != "num")
    return rest_a == rest_b


def _string_render(value) -> str:
    """Exact (case-preserving) rendering for the strict judge."""
    if isinstance(value, str):
        return value.strip()
    return canonical_value(value)


def string_em(pred: Answer, gold: Answer) -> EvalOutcome:
    """Element-wise identical value strings after trimming; order-sensitive."""
    a = [_string_render(v) for v in pred.values]
    b = [_string_render(v) for v in gold.values]
    return EvalOutcome(a == b, "string")


def official_em(pred: Answer, gold: Answer) -> EvalOutcome:
    """Order-insensitive match after normalization: surrounding punctuation
    and trailing parentheticals stripped, numbers within 1e-6, dates as ISO."""
    a = [_official_form(v) for v in pred.values]
    b = [_official_form(v) for v in gold.values]
    matched = _forms_match(a, b)
    matcher = "official"
    if matched and a:
        kinds = {form[0] for form in a}
        if kinds == {"num"}:
            matcher = "numeric"
        elif kinds == {"date"}:
            matcher = "date"
    return EvalOutcome(matched, matcher)


def _choice_option_pairs(question: str) -> list:
    """Candidate [A, B] alternative pairs offered by the question: an explicit
    "X or Y" split first, then yes/no for questions led by an auxiliary verb."""
    pairs = []
    body = question.lower().rstrip("?").strip()
    if " or " in body:
        left, _, right = body.rpartition(" or ")
        right = right.strip(" ,.")
        left_tokens = left.strip(" ,.").split()
        if left_tokens and right:
            first = " ".join(left_tokens[-len(right.split()):])  # mirror B's arity
            pairs.append([first, right])
    tokens = re.findall(r"[a-z0-9']+", question.lower())
    if tokens and tokens[0] in AUX_VERBS:
        pairs.append(["yes", "no"])
    return pairs


def _single(a: Answer) -> Optional[str]:
    if len(a.values) != 1:
        return None
    return canonical_value(a.values[0])


def _prematch_choice(pred: Answer, gold: Answer, question: str) -> bool:
    p, g = _single(pred), _single(gold)
    if p not in ("1", "0") or g is None:
        return False
    gold_form = _official_form(g)
    for options in _choice_option_pairs(question):
        if gold_form not in (_official_form(o) for o in options):
            continue  # gold is not one of these alternatives
        mapped = options[0] if p == "1" else options[1]
        return _official_form(mapped) == gold_form
    return False


def _prematch_units(pred: Answer, gold: Answer) -> bool:
    p, g = _single(pred), _single(gold)
    if p is None or g is None:
        return False
    for bare, with_unit in ((p, g), (g, p)):
        n = parse_number(bare)
        m = _NUMBER_WITH_UNIT.match(with_unit)
        if n is not None and m:
            other = parse_number(m.group(1))
            if other is not None and abs(n - other) <= 1e-6:
                return True
    return False


def semantic_em(pred: Answer, gold: Answer, question: str) -> EvalOutcome:
    """official_em plus the two pre-checks: map 1/0 onto the question's
    alternatives, and equate bare numbers with number-plus-unit golds."""
    if _prematch_choice(pred, gold, question):
        return EvalOutcome(True, "semantic-prematch-AB")
    if _prematch_units(pred, gold):
        return EvalOutcome(True, "semantic-prematch-units")
    return official_em(pred, gold)


JUDGES: dict = {
    "string": lambda pred, gold, question: string_em(pred, gold),
    "official": lambda pred, gold, question: official_em(pred, gold),
    "semantic": semantic_em,
}


@dataclass(frozen=True)
class EvalReport:
    total: int
    matched: int
    outcomes: tuple

    @property
    def accuracy(self) -> Optional[float]:
        return None if self.total == 0 else self.matched / self.total


def evaluate_dataset(results: list, judge: str) -> EvalReport:
    """results: (pred Answer, gold Answer, question) triples; judge: a name
    in JUDGES."""
    outcomes = tuple(JUDGES[judge](pred, gold, question) for pred, gold, question in results)
    return EvalReport(len(outcomes), sum(1 for o in outcomes if o.matched), outcomes)
