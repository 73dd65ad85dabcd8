from __future__ import annotations

import pytest

from lmsql import (Answer, EvalError, UnknownColumn, UnsupportedFeature,
                   denotation_to_answer, execute_sql, parse)
from lmsql import engine

from conftest import make_table


def run(sql: str, t):
    return execute_sql(parse(sql), t)


def answer(sql: str, t):
    return denotation_to_answer(run(sql, t)).display()


@pytest.fixture
def members():
    return make_table("m", ["member", "duration"],
                      [["alice", "10"], ["bob", "5"], ["carol", "11"]])


def test_count_star(members):
    d = run("SELECT COUNT(*) FROM w", members)
    assert d.is_scalar and d.scalar == 3.0


def test_order_by_desc_limit(members):
    assert answer("SELECT member FROM w ORDER BY duration DESC LIMIT 1", members) == ["carol"]


def test_boolean_subquery_counts(records):
    sql = "SELECT (SELECT COUNT(place) FROM w WHERE place LIKE '%united kingdom') = 8"
    d = run(sql, records)
    assert d.scalar == 1.0  # boolean results are 1/0, never text


def test_limit_beyond_float_range_is_an_eval_error(members):
    with pytest.raises(EvalError):
        run("SELECT member FROM w LIMIT 1e400", members)


def test_where_and_arithmetic(members):
    assert answer("SELECT member FROM w WHERE duration + 1 >= 11", members) == ["alice", "carol"]


def test_three_valued_logic():
    t = make_table("t", ["a"], [["1"], [""], ["3"]])
    assert answer("SELECT COUNT(*) FROM w WHERE a > 0", t) == ["2"]  # null row dropped
    assert answer("SELECT a IS NULL FROM w", t) == ["0", "1", "0"]
    assert answer("SELECT a + 1 FROM w", t) == ["2", "none", "4"]


def test_null_comparison_propagates():
    t = make_table("t", ["a"], [[""]])
    assert answer("SELECT a = 1 FROM w", t) == ["none"]
    assert answer("SELECT NOT a = 1 FROM w", t) == ["none"]


def test_division_by_zero_is_null(members):
    assert answer("SELECT duration / 0 FROM w LIMIT 1", members) == ["none"]


def test_numeric_text_coercion():
    t = make_table("t", ["a", "b"], [["x1", "5"], ["x2", "07"]])
    # text cells that look numeric coerce for comparison
    assert answer("SELECT a FROM w WHERE b = 7", t) == ["x2"]
    assert answer("SELECT a FROM w WHERE b < '6'", t) == ["x1"]


def test_like_wildcards(records):
    assert answer("SELECT COUNT(*) FROM w WHERE place LIKE '%norway'", records) == ["1"]
    assert answer("SELECT COUNT(*) FROM w WHERE event LIKE '_0 km'", records) == ["5"]


def test_in_list(members):
    assert answer("SELECT member FROM w WHERE member IN ('bob', 'eve')", members) == ["bob"]
    assert answer("SELECT member FROM w WHERE member NOT IN ('bob')", members) == ["alice", "carol"]


def test_group_by_having():
    t = make_table("t", ["team", "pts"],
                   [["a", "3"], ["b", "1"], ["a", "2"], ["b", "4"], ["c", "1"]])
    assert answer("SELECT team, SUM(pts) FROM w GROUP BY team ORDER BY team", t) == \
        ["a", "5", "b", "5", "c", "1"]
    assert answer("SELECT team FROM w GROUP BY team HAVING COUNT(*) > 1 ORDER BY team", t) == \
        ["a", "b"]


def test_aggregates_skip_nulls():
    t = make_table("t", ["x"], [["2"], [""], ["4"]])
    assert answer("SELECT COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM w", t) == \
        ["2", "6", "3", "2", "4"]
    empty = make_table("t", ["x"], [])
    assert answer("SELECT COUNT(*), SUM(x) FROM w", empty) == ["0", "none"]


def test_bare_column_with_single_max():
    t = make_table("t", ["name", "score"], [["a", "4"], ["b", "9"], ["c", "7"]])
    assert answer("SELECT name, MAX(score) FROM w", t) == ["b", "9"]
    assert answer("SELECT name, MIN(score) FROM w", t) == ["a", "4"]


def test_order_stability_and_nulls_last():
    t = make_table("t", ["k", "v"],
                   [["2", "a"], ["", "b"], ["1", "c"], ["2", "d"], ["1", "e"]])
    assert answer("SELECT v FROM w ORDER BY k", t) == ["c", "e", "a", "d", "b"]
    assert answer("SELECT v FROM w ORDER BY k DESC", t) == ["a", "d", "c", "e", "b"]


def test_distinct():
    t = make_table("t", ["x"], [["a"], ["b"], ["a"]])
    assert answer("SELECT DISTINCT x FROM w", t) == ["a", "b"]


def test_select_star(members):
    assert answer("SELECT * FROM w LIMIT 1", members) == ["0", "alice", "10"]


def test_scalar_subquery_errors(members):
    with pytest.raises(EvalError):
        run("SELECT (SELECT member FROM w) FROM w LIMIT 1", members)


def test_scalar_subquery_runs_once_per_execute(members, monkeypatch):
    queries = []
    exec_query = engine._exec_query

    def counting(q, *args):
        queries.append(q)
        return exec_query(q, *args)
    monkeypatch.setattr(engine, "_exec_query", counting)
    sql = "SELECT member FROM w WHERE duration > (SELECT AVG(duration) FROM w WHERE member != 'bob')"
    assert answer(sql, members) == ["carol"]
    assert len(queries) == 2  # the outer query, then the subquery at its first row
    assert answer(sql, members) == ["carol"]
    assert len(queries) == 4  # a new call computes the value again
    assert answer("SELECT COUNT(*) FROM w WHERE 0 = 1 AND duration > (SELECT member FROM w)",
                  members) == ["0"]
    assert len(queries) == 5  # never used, so never run: no multi-row error


def test_unknown_column(members):
    with pytest.raises(UnknownColumn):
        run("SELECT ghost FROM w", members)


def test_unresolved_call_rejected(members):
    with pytest.raises(UnsupportedFeature):
        run('SELECT f("q"; member) FROM w', members)


def test_denotation_to_answer_shapes(members):
    assert denotation_to_answer(run("SELECT COUNT(*) FROM w WHERE 0", members)).display() == ["0"]
    empty = denotation_to_answer(run("SELECT member FROM w WHERE 0 = 1", members))
    assert empty.values == ()
    assert empty.normalized_key == "<empty>"
    rows = denotation_to_answer(run("SELECT member FROM w LIMIT 2", members))
    assert rows.display() == ["alice", "bob"]


def test_answer_key_canonicalization():
    assert Answer(("1.0",)).normalized_key == Answer((1.0,)).normalized_key == "1"
    assert Answer(("A", "B")).normalized_key != Answer(("B", "A")).normalized_key


def test_determinism(records):
    sql = "SELECT athlete, COUNT(*) FROM w GROUP BY athlete ORDER BY COUNT(*) DESC, athlete"
    first = run(sql, records)
    for _ in range(3):
        assert run(sql, records) == first
