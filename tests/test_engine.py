from __future__ import annotations

import dataclasses
import math
import re
import sqlite3
import time
from datetime import date
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from lmsql import (Answer, Column, EvalError, NullBackend, ParseError, Program, Table,
                   UnknownColumn, UnsupportedFeature, execute_sql, parse, run_program)
from lmsql import engine
from lmsql.syntax import Literal, OrderItem, Query

from conftest import make_table
from randgen import sqlite_denotation


def run(sql: str, t):
    return execute_sql(parse(sql), t)


def answer(sql: str, t):
    return run_program(parse(sql), t, NullBackend()).answer.display()


@pytest.fixture
def members():
    return make_table("m", ["member", "duration"],
                      [["alice", "10"], ["bob", "5"], ["carol", "11"]])


def test_count_star(members):
    assert run("SELECT COUNT(*) FROM w", members) == ((3.0,),)


def test_order_by_desc_limit(members):
    assert answer("SELECT member FROM w ORDER BY duration DESC LIMIT 1", members) == ["carol"]


def test_boolean_subquery_counts(records):
    sql = "SELECT (SELECT COUNT(place) FROM w WHERE place LIKE '%united kingdom') = 8"
    assert run(sql, records) == ((1.0,),)  # boolean results are 1/0, never text


def test_limit_beyond_float_range_is_an_eval_error(members):
    with pytest.raises(EvalError):
        run("SELECT member FROM w LIMIT 1e400", members)


@pytest.mark.parametrize("count", ["2", "2.0", "'2'", "'2.0'", "' 2 '", "'1e3'", "2.5", "'2.5'",
                                   "'-1'", "'-2.0'", "'1_0'"])
def test_limit_count_follows_sqlite(members, count):
    """A count is a number, from the program text or (quoted here) a value
    call's reply, with no fractional part; sqlite's 'datatype mismatch' is
    the evaluator's EvalError. A negative count is no limit."""
    sql = "SELECT member FROM w ORDER BY row_id LIMIT "
    try:
        theirs = tuple(sqlite_denotation(members, sql + count))
    except sqlite3.Error:
        theirs = EvalError
    if count.startswith("'"):
        query = parse(sql + "1").root
        program = Program(dataclasses.replace(query, limit=Literal(count[1:-1])))
    else:
        program = parse(sql + count)
    try:
        mine = execute_sql(program, members)
    except EvalError:
        mine = EvalError
    assert mine == theirs


def test_digit_grouping_is_text_as_in_sqlite():
    """'1_000' is not the number 1000, in a comparison or in a text column's type."""
    t = Table("t", (Column("s", "text", ("1_000", "1000", "abc")),))
    sql = "SELECT s FROM w WHERE s = 1000"
    assert run(sql, t) == tuple(sqlite_denotation(t, sql)) == (("1000",),)
    assert make_table("t", ["s"], [["1_000"], ["2"]]).column("s").declared_type == "text"


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


def one_wildcard_per_percent(pattern: str):
    """The LIKE regex before segments were matched atomically."""
    return re.compile("".join(".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                              for ch in pattern), re.DOTALL)


@settings(max_examples=500, deadline=None)
@given(st.text("ab%_", max_size=10), st.text("ab%_\n", max_size=12))
def test_like_regex_matches_as_one_wildcard_per_percent(pattern, text):
    expected = one_wildcard_per_percent(pattern).fullmatch(text) is not None
    assert (engine._like_regex(pattern).fullmatch(text) is not None) == expected


def test_like_with_many_wildcards_does_not_backtrack():
    # one '.*' per % took minutes here: each wildcard multiplies the
    # positions a failing match tries by the length of the cell
    t = make_table("t", ["s"], [["a" * 200]])
    start = time.perf_counter()
    assert answer("SELECT COUNT(*) FROM w WHERE s LIKE '%a%a%a%a%a%b'", t) == ["0"]
    assert answer("SELECT COUNT(*) FROM w WHERE s LIKE '%a%a%a%a%a%a'", t) == ["1"]
    assert time.perf_counter() - start < 2.0


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


ORDER_CELLS = st.one_of(  # few values of each kind, so that ties are common
    st.none(),
    st.sampled_from([-1.0, 0.0, 2.0, 2.5, 10.0]),
    st.sampled_from(["2", "10", "2.5", " 3 ", "abc", "b", ""]),  # numeric text is a number
    st.sampled_from([date(1999, 12, 31), date(2020, 1, 1)]),
)


def order_by_comparator(descs: list):
    """Per key: nulls last, the other values in _sort_key's order, DESC
    reversing only them; entries equal on every key compare equal."""
    def compare(x, y):
        for pos, desc in enumerate(descs):
            a, b = x[1][pos], y[1][pos]
            if a is None or b is None:
                if (a is None) != (b is None):
                    return 1 if a is None else -1
                continue
            ka, kb = engine._sort_key(a), engine._sort_key(b)
            if ka != kb:
                return (1 if ka > kb else -1) * (-1 if desc else 1)
        return 0
    return compare


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=3).flatmap(lambda descs: st.tuples(
    st.just(descs),
    st.lists(st.lists(ORDER_CELLS, min_size=len(descs), max_size=len(descs)), max_size=12))))
def test_order_rows_is_a_stable_sort_with_nulls_last_per_key(case):
    descs, keys = case
    entries = [((i,), k) for i, k in enumerate(keys)]
    q = Query((), order_by=tuple(OrderItem(Literal(None), desc) for desc in descs))
    # sorted is stable, so entries that compare equal keep their input order
    expected = sorted(entries, key=cmp_to_key(order_by_comparator(descs)))
    assert engine._order_rows(list(entries), q) == expected


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


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) * 1e308 * 10 FROM w",
    "SELECT (1e308 * 10) % 2",
    "SELECT -(big * 10) FROM w",
    "SELECT 1e308 + 1e308 - 1e308",
    "SELECT big / 1e-308 FROM w WHERE big + big > 0 OR big * -2 IS NULL",
    "SELECT SUM(big) FROM w",
    "SELECT AVG(big), SUM(big) FROM w GROUP BY big",
])
def test_numbers_beyond_float_range_are_null(sql):
    t = make_table("w", ["member", "big"], [["a", "1e308"], ["b", "1e308"]])
    values = answer(sql, t)
    assert values and set(values) == {"none"}


def test_infinite_cells_compute_as_null():
    t = Table("w", (Column("x", "real", (math.inf, -math.inf)),))
    assert answer("SELECT -x, x % 2, x + 1 FROM w", t) == ["none"] * 6
    assert answer("SELECT SUM(x), AVG(x) FROM w", t) == ["none"] * 2


def test_number_literal_beyond_float_range_is_a_parse_error():
    with pytest.raises(ParseError, match="number 1e400 is beyond float range") as e:
        parse("SELECT a FROM w WHERE a > 1e400")
    assert e.value.position == 26


def test_unknown_column(members):
    with pytest.raises(UnknownColumn):
        run("SELECT ghost FROM w", members)


def test_unresolved_call_rejected(members):
    with pytest.raises(UnsupportedFeature):
        run('SELECT f("q"; member) FROM w', members)


def test_answer_flattens_rows(members):
    assert answer("SELECT COUNT(*) FROM w WHERE 0", members) == ["0"]
    empty = run_program(parse("SELECT member FROM w WHERE 0 = 1"), members, NullBackend()).answer
    assert empty.values == ()
    assert empty.normalized_key == "<empty>"
    assert answer("SELECT member FROM w LIMIT 2", members) == ["alice", "bob"]
    assert answer("SELECT member, duration FROM w LIMIT 2", members) == ["alice", "10", "bob", "5"]


def test_answer_key_canonicalization():
    assert Answer(("1.0",)).normalized_key == Answer((1.0,)).normalized_key == "1"
    assert Answer(("A", "B")).normalized_key != Answer(("B", "A")).normalized_key


def test_determinism(records):
    sql = "SELECT athlete, COUNT(*) FROM w GROUP BY athlete ORDER BY COUNT(*) DESC, athlete"
    first = run(sql, records)
    for _ in range(3):
        assert run(sql, records) == first
