"""Properties of the evaluator's column-at-a-time WHERE and of grouping on
raw cell values.

A WHERE compiles into a filter from row indices to the indices where it is
true. The filter must keep exactly the rows, in the same order, that the
predicate's row closure keeps one row at a time, and raise the error that
closure raises where it raises one. GROUP BY, DISTINCT and COUNT(DISTINCT)
key on the cells themselves; that is sound only if two cells are equal, with
equal hashes, exactly when the tagged keys the evaluator used before are
equal (_group_key, kept as the reference in test_engine_reference)."""

from __future__ import annotations

import random
from datetime import date

from hypothesis import event, example, given, settings, strategies as st

from lmsql import parse
from lmsql.engine import _ROW, _cannot_raise, _compile, _compile_filter, _truthy

from randgen import DATE_LITERALS, NUMERIC_TEXT, make_rich_table, rich_pred
from test_engine_reference import _group_key

OPS = ["=", "!=", "<", "<=", ">", ">="]


def _outcome(run):
    try:
        return "rows", run()
    except Exception as e:
        return "error", type(e), str(e)


def assert_filter_keeps_the_row_closures_rows(pred: str, table) -> tuple:
    where = parse(f"SELECT row_id FROM w WHERE {pred}").root.where
    rows = range(table.row_count)
    row = _compile(where, _ROW, table)
    expected = _outcome(lambda: [i for i in rows if _truthy(row(i))])
    assert _outcome(lambda: _compile_filter(where, table)(rows)) == expected, pred
    return where, expected


def _literal(rng) -> str:
    return rng.choice([
        lambda: str(rng.randint(-3, 12)),
        lambda: f"{rng.uniform(-5, 15):.2f}",
        lambda: f"'{rng.choice(NUMERIC_TEXT)}'",
        lambda: f"'{rng.choice(DATE_LITERALS)}'",
        lambda: "'apple'",
        lambda: "NULL",
    ])()


def _column_atom(rng, columns) -> str:
    """A leaf the filter evaluates over a column's cells."""
    col = rng.choice(columns)
    op = rng.choice(OPS)
    neg = "NOT " if rng.random() < 0.4 else ""
    return rng.choice([
        lambda: f"{col} {op} {_literal(rng)}",
        lambda: f"{_literal(rng)} {op} {col}",
        lambda: f"{col} IS {neg}NULL",
        lambda: f"{col} {neg}IN ({', '.join(_literal(rng) for _ in range(rng.randint(1, 3)))})",
        lambda: f"{col} {neg}LIKE '{rng.choice(['1%', '%a%', '_', 'a_p%', '%'])}'",
    ])()


def column_pred(rng, columns, depth=2) -> str:
    """Column leaves joined by AND, OR and NOT: a predicate that cannot raise."""
    r = rng.random()
    if depth > 0 and r < 0.35:
        op = rng.choice(["AND", "OR"])
        return f"({column_pred(rng, columns, depth - 1)} {op} {column_pred(rng, columns, depth - 1)})"
    if depth > 0 and r < 0.5:
        return f"NOT ({column_pred(rng, columns, depth - 1)})"
    return _column_atom(rng, columns)


@st.composite
def predicates(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    table, num_cols, text_cols = make_rich_table(rng)
    columns = ["row_id", "d", "s"] + num_cols + text_cols
    kind = draw(st.sampled_from(["column", "rich", "unresolved"]))
    event(kind)
    if kind == "column":
        return kind, column_pred(rng, columns), table
    pred = rich_pred(rng, num_cols, text_cols)
    if kind == "unresolved":  # the same predicate with an unknown column joined in
        op = rng.choice(["AND", "OR"])
        pred = rng.choice([f"({pred}) {op} nosuch = 1", f"nosuch = 1 {op} ({pred})"])
    return kind, pred, table


@settings(max_examples=800, deadline=None)
@given(predicates())
def test_filter_keeps_the_rows_the_row_closure_keeps(drawn):
    kind, pred, table = drawn
    where, outcome = assert_filter_keeps_the_row_closures_rows(pred, table)
    if kind == "column":
        assert _cannot_raise(where, table), pred  # the column path is the one tested
    event(outcome[0] if outcome[0] == "rows" else outcome[1].__name__)


def test_filter_examples():
    """Hand-picked cases of each rule: null under NOT, OR merged in row
    order, numeric text against a number, literals coerced to the column."""
    rng = random.Random(5)
    table = None
    while table is None or table.row_count < 10:
        table = make_rich_table(rng)[0]
    for pred in ["NOT (s > 3)", "NOT (d < '2020-06-01')", "n1 > 5 OR s < 3", "s > 2 OR n1 < 0",
                 "NOT (s IN ('3', NULL))", "s NOT IN ('3', '12')", "n1 = '7'", "'3' < n1",
                 "d = 'March 3, 2021'", "d > 3", "s = 3", "s >= 1e1", "NOT (s LIKE '1%')",
                 "row_id IN (1, '2', 'x')", "NOT row_id IN (1, '2', 'x')", "s LIKE '%'",
                 "(n1 > 2 AND s IS NULL) OR NOT (d IS NOT NULL)", "nosuch = 1 AND row_id < 0"]:
        assert_filter_keeps_the_row_closures_rows(pred, table)


CELLS = st.one_of(
    st.none(),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e16, float("inf")]),
    st.sampled_from(["1", "1.0", "-0", "0", "", "none", "2020-01-01", "March 3, 2021"]),
    st.text(max_size=3),
    st.dates(min_value=date(2019, 12, 30), max_value=date(2020, 1, 2)),
)


@settings(max_examples=400)
@given(CELLS, CELLS)
@example(-0.0, 0.0)
@example("1", 1.0)
@example(date(2020, 1, 1), "2020-01-01")
@example(date(2020, 1, 1), float(date(2020, 1, 1).toordinal()))
@example(None, None)
@example(None, "")
@example(float("inf"), float("inf"))
def test_raw_cells_are_equal_exactly_when_their_group_keys_are(a, b):
    assert (a == b) == (_group_key(a) == _group_key(b))
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=400)
@given(st.lists(CELLS, min_size=1, max_size=3), st.lists(CELLS, min_size=1, max_size=3))
@example([0.0, None], [-0.0, None])
@example(["1", 0.0], [1.0, 0.0])
def test_rows_of_raw_cells_are_equal_exactly_when_their_group_keys_are(a, b):
    a, b = tuple(a), tuple(b)
    assert (a == b) == (tuple(map(_group_key, a)) == tuple(map(_group_key, b)))
    if a == b:
        assert hash(a) == hash(b)
