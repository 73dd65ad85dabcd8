from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from lmsql import Answer, evaluate_dataset, semantic_em
from lmsql.metrics import JUDGES, official_em, string_em

# The published 4-example x 3-judge comparison matrix.
MATRIX = [
    # (question, gold, pred, string, official, semantic)
    ("What was the same problem that Bernard Collomb had as Innes Ireland?",
     ["oil pressure"], ["oil pressure (56 laps)"], False, True, True),
    ("What is the difference between the qualifying time in 1967 and 1965?",
     ["7.45"], ["7.449999999999989"], False, True, True),
    ("Are there at least 13 different components on the chart?",
     ["Yes"], ["1"], False, False, True),
    ("What is the difference in years between constiuency 1 and 2?",
     ["4 years"], ["4"], False, False, True),
]


def A(values) -> Answer:
    return Answer(tuple(values))


@pytest.mark.parametrize("question,gold,pred,s,o,m", MATRIX)
def test_published_judge_matrix(question, gold, pred, s, o, m):
    assert string_em(A(pred), A(gold)).matched is s
    assert official_em(A(pred), A(gold)).matched is o
    assert semantic_em(A(pred), A(gold), question).matched is m


def test_string_em_basics():
    assert string_em(A(["4"]), A(["4"])).matched
    assert not string_em(A([]), A(["x"])).matched
    assert not string_em(A(["a", "b"]), A(["b", "a"])).matched  # order-sensitive


def test_official_em_details():
    assert official_em(A(["a", "b"]), A(["b", "a"])).matched  # multiset
    assert official_em(A(["'quoted'"]), A(["quoted"])).matched
    assert official_em(A(["May 27, 1990"]), A(["1990-05-27"])).matched
    assert official_em(A(["1.0000004"]), A(["1.0000009"])).matched  # < 1e-6 apart
    assert not official_em(A(["1"]), A(["Yes"])).matched
    assert not official_em(A(["4"]), A(["4 years"])).matched
    assert official_em(A([3.0]), A(["3"])).matcher_used == "numeric"


def test_semantic_prematch_choice():
    q = "Are there at least 13 different components on the chart?"
    out = semantic_em(A(["1"]), A(["Yes"]), q)
    assert out.matched and out.matcher_used == "semantic-prematch-AB"
    assert semantic_em(A(["0"]), A(["No"]), q).matched
    assert not semantic_em(A(["0"]), A(["Yes"]), q).matched
    assert not semantic_em(A(["1"]), A(["blue"]), "what color is it?").matched


def test_semantic_prematch_explicit_alternatives():
    q = "did he score more in 2008 or 2009?"
    assert semantic_em(A(["1"]), A(["2008"]), q).matched
    assert semantic_em(A(["0"]), A(["2009"]), q).matched
    assert not semantic_em(A(["1"]), A(["2009"]), q).matched


def test_semantic_prematch_units_both_ways():
    out = semantic_em(A(["4"]), A(["4 years"]), "how long?")
    assert out.matched and out.matcher_used == "semantic-prematch-units"
    assert semantic_em(A(["4 years"]), A(["4"]), "how long?").matched
    assert not semantic_em(A(["5"]), A(["4 years"]), "how long?").matched


def test_semantic_reflexive():
    for values in (["Yes"], ["7.45"], ["oil pressure (56 laps)"], [], ["a", "b"], ["4 years"]):
        assert semantic_em(A(values), A(values), "anything at all?").matched


def test_evaluate_dataset():
    triples = [
        (A(["4"]), A(["4"]), "how many?"),
        (A(["4"]), A(["5"]), "how many?"),
        (A(["yes"]), A(["Yes"]), "Is it?"),
        (A(["1"]), A(["Yes"]), "Is it?"),
    ]
    strict = evaluate_dataset(triples, "string")
    relaxed = evaluate_dataset(triples, "semantic")
    assert strict.accuracy == 0.25
    assert relaxed.accuracy == 0.75
    assert relaxed.accuracy >= strict.accuracy
    empty = evaluate_dataset([], "semantic")
    assert empty.total == 0 and empty.accuracy is None


# ---- properties ----

# answer values: numbers, dates, nulls and text that is often equal to
# another draw after normalization
WORDS = st.text("bcdfgk", min_size=1, max_size=3)  # never a number, a date or "or"
VALUES = st.one_of(
    st.none(), st.dates(date(1900, 1, 1), date(2100, 1, 1)),
    st.floats(-1e6, 1e6, allow_nan=False), WORDS,
    st.sampled_from(["1", "1.0", " 01 ", "0", "Yes", "yes", "no", "4", "4 years", "(4)",
                     "a (b)", "'a'", "A", "2020-01-02", "January 2, 2020", "", "7.45",
                     "7.449999999999989", "oil pressure", "oil pressure (56 laps)", "a b"]))
ANSWERS = st.lists(VALUES, max_size=3).map(A)
QUESTIONS = st.sampled_from(["Is it red?", "how many?", "red or blue?", "b c or d f?", "what?"])


@settings(max_examples=500, deadline=None)
@given(ANSWERS, QUESTIONS)
def test_every_judge_matches_an_answer_with_itself(answer, question):
    assert all(judge(answer, answer, question).matched for judge in JUDGES.values())


@settings(max_examples=500, deadline=None)
@given(ANSWERS, st.data())
def test_official_ignores_the_order_of_gold_values(pred, data):
    gold = A(data.draw(st.permutations(data.draw(st.lists(VALUES, max_size=3)))))
    assert official_em(pred, gold) == official_em(pred, A(sorted(gold.values, key=repr)))


@settings(max_examples=1000, deadline=None)
@given(ANSWERS, ANSWERS, QUESTIONS)
def test_monotone_chain_randomized(pred, gold, question):
    """A string match implies an official match implies a semantic match."""
    s = string_em(pred, gold).matched
    o = official_em(pred, gold).matched
    assert (not s or o) and (not o or semantic_em(pred, gold, question).matched)


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False),
       st.sampled_from([0.0, 1e-7, 5e-7, 9.9e-7, 1e-6, 1.01e-6, 2e-6, 1e-3, 0.5, 0.99, 1.0]),
       st.sampled_from([1, -1]), st.booleans())
def test_numbers_match_within_one_millionth(x, delta, sign, as_text):
    y = x + sign * delta
    pred, gold = (A([str(x)]), A([repr(y)])) if as_text else (A([x]), A([y]))
    out = official_em(pred, gold)
    assert out.matched is (abs(x - y) <= 1e-6)
    assert out.matcher_used == ("numeric" if out.matched else "official")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e6, 1e6, allow_nan=False), WORDS), min_size=1, max_size=3))
def test_numeric_matcher_needs_every_value_a_number(values):
    out = official_em(A(values), A(values))
    assert out.matcher_used == ("numeric" if all(isinstance(v, float) for v in values) else "official")


@settings(max_examples=300, deadline=None)
@given(st.lists(WORDS, max_size=3), WORDS, WORDS, WORDS, WORDS)
def test_first_alternative_mirrors_the_second_ones_words(lead, a, b, c, d):
    """In "... A B or C D?", 1 means the two-word "a b" and 0 means "c d"."""
    question = " ".join(["is", *lead, a, b, "or", c, d]) + "?"
    first = semantic_em(A(["1"]), A([f"{a} {b}"]), question)
    assert first.matched and first.matcher_used == "semantic-prematch-AB"
    assert semantic_em(A(["0"]), A([f"{c} {d}"]), question).matched
