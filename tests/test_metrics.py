from __future__ import annotations

import random

import pytest

from lmsql import Answer, evaluate_dataset, semantic_em
from lmsql.metrics import official_em, string_em

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


def test_monotone_chain_randomized():
    rng = random.Random(42)
    vocab = ["yes", "no", "1", "0", "4", "4 years", "oil pressure",
             "oil pressure (56 laps)", "7.45", "7.449999999999989", "", "a b"]
    questions = ["Is it red?", "how many?", "red or blue?", "what?"]
    for _ in range(300):
        pred = A([rng.choice(vocab) for _ in range(rng.randint(0, 2))])
        gold = A([rng.choice(vocab) for _ in range(rng.randint(0, 2))])
        q = rng.choice(questions)
        s = string_em(pred, gold).matched
        o = official_em(pred, gold).matched
        m = semantic_em(pred, gold, q).matched
        assert (not s or o) and (not o or m), (pred.values, gold.values, q, s, o, m)


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
