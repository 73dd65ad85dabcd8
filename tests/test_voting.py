from __future__ import annotations

import pytest

from lmsql import (Answer, Candidate, EMPTY_ANSWER, EvalError, STRATEGIES,
                   parse, vote)

PLAIN_PROGRAM = parse("SELECT 1")
CALL_PROGRAM = parse('SELECT f("q"; a) FROM w')


def cand(index, values, has_api_call=False, failed=False):
    program = CALL_PROGRAM if has_api_call else PLAIN_PROGRAM
    if failed:
        return Candidate(index, program, EvalError("boom"))
    return Candidate(index, program, Answer(tuple(values)))


def tally_by_key(report):
    return {g.key: g.weight for g in report.groups}


def test_plain_majority():
    answer, report = vote([cand(0, ["a"]), cand(1, ["a"]), cand(2, ["b"])], "plain")
    assert answer.display() == ["a"]
    assert tally_by_key(report) == {"a": 2, "b": 1}


def test_answer_biased_four_to_one():
    cands = [cand(0, [1.0]), cand(1, [0.0]), cand(2, [0.0]), cand(3, [0.0])]
    answer, report = vote(cands, "answer-biased")
    assert answer.display() == ["1"]
    assert tally_by_key(report) == {"1": 4, "0": 3}


def test_answer_biased_yes_no_spelling():
    cands = [cand(0, ["yes"]), cand(1, ["no"]), cand(2, ["no"]), cand(3, ["no"])]
    answer, report = vote(cands, "answer-biased")
    assert answer.display() == ["yes"]
    assert tally_by_key(report) == {"yes": 4, "no": 3}


def test_program_biased_ten_to_one():
    cands = [cand(0, ["x"], has_api_call=True), cand(1, ["x"], has_api_call=True)]
    cands += [cand(i, ["y"]) for i in range(2, 7)]
    answer, report = vote(cands, "program-biased")
    assert answer.display() == ["x"]
    assert tally_by_key(report) == {"x": 20, "y": 5}


def test_has_api_call_comes_from_the_program():
    assert [c.has_api_call for c in (cand(0, [], has_api_call=True), cand(1, []))] == [True, False]
    assert not Candidate(2, ValueError("syntax"), None).has_api_call


def test_plain_tie_goes_to_lowest_index():
    answer, _ = vote([cand(0, ["a"]), cand(1, ["b"]), cand(2, ["c"])], "plain")
    assert answer.display() == ["a"]
    answer, _ = vote([cand(0, ["b"]), cand(1, ["a"]), cand(2, ["b"]), cand(3, ["a"])], "plain")
    assert answer.display() == ["b"]


def test_erroring_candidates_never_change_tallies():
    good = [cand(0, ["a"]), cand(1, ["b"]), cand(2, ["a"])]
    _, clean = vote(good, "plain")
    _, noisy = vote(good + [cand(3, [], failed=True),
                            Candidate(4, ValueError("syntax"), None)], "plain")
    assert tally_by_key(clean) == tally_by_key(noisy)
    assert noisy.excluded == (3, 4)


def test_all_errored_returns_empty_answer():
    answer, report = vote([cand(0, [], failed=True)], "plain")
    assert answer is EMPTY_ANSWER
    assert answer.normalized_key == "<empty>"
    assert report.groups == ()


def test_duplicate_answers_accumulate_multiplicity():
    cands = [cand(i, ["x"]) for i in range(3)]
    _, report = vote(cands, "plain")
    assert tally_by_key(report) == {"x": 3}


def test_normalize_answer_key():
    assert Answer(("1.0",)).normalized_key == Answer((1.0,)).normalized_key
    assert Answer(("A", "B")).normalized_key != Answer(("B", "A")).normalized_key
    assert Answer(()).normalized_key == "<empty>"
    assert Answer((" Mixed Case ",)).normalized_key == "mixed case"


def test_strategy_names():
    assert sorted(STRATEGIES) == ["answer-biased", "plain", "program-biased"]
    for name in STRATEGIES:
        _, report = vote([cand(0, ["a"])], name)
        assert report.strategy == name
    with pytest.raises(KeyError):
        vote([cand(0, ["a"])], "alien")


def test_report_serializes():
    _, report = vote([cand(0, ["a"]), cand(1, ["b"])], "plain")
    d = report.to_dict()
    assert d["strategy"] == "plain"
    assert d["groups"][0]["values"] == ["a"]
