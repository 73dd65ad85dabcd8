"""Ternary Logic Partitioning (Rigger & Su, "Finding Bugs in Database
Systems via Query Partitioning", OOPSLA 2020): every row satisfies exactly
one of p, NOT p and p IS NULL, so for any predicate p the rows of a query
are the multiset union of its rows under each of the three.

The tables add a date column and numeric-looking text to the sqlite
oracle's tables, which is where the evaluator's own coercion rules decide
whether p is true, false or null."""

from __future__ import annotations

import random

from hypothesis import event, given, settings, strategies as st

from lmsql import execute_sql, parse
from lmsql.engine import _sort_key

from randgen import make_rich_table, rich_pred, _num_expr


def _partitions(q: str, p: str) -> list:
    glue = " AND " if " WHERE " in q else " WHERE "
    return [q + glue + f"({part})" for part in (p, f"NOT ({p})", f"({p}) IS NULL")]


def _rows(sql: str, table) -> list:
    return list(execute_sql(parse(sql), table))


def _multiset(rows) -> list:
    return sorted(rows, key=lambda row: [(type(v).__name__, repr(v)) for v in row])


def _random_items(rng, num_cols, text_cols) -> str:
    cols = num_cols + text_cols + ["row_id", "d", "s"]
    items = [rng.choice(cols + [_num_expr(rng, num_cols, 1), "s + 1", "*"])
             for _ in range(rng.randint(1, 3))]
    return ", ".join(items)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rows_are_the_union_of_the_three_partitions(seed):
    rng = random.Random(seed)
    table, num_cols, text_cols = make_rich_table(rng)
    q = f"SELECT {_random_items(rng, num_cols, text_cols)} FROM w"
    if rng.random() < 0.3:
        q += f" WHERE ({rich_pred(rng, num_cols, text_cols, 1)})"
    p = rich_pred(rng, num_cols, text_cols)
    whole = _rows(q, table)
    parts = [_rows(sql, table) for sql in _partitions(q, p)]
    event("rows under: " + ", ".join(name for name, rows in zip(("p", "NOT p", "null"), parts)
                                     if rows))
    assert _multiset(whole) == _multiset(parts[0] + parts[1] + parts[2]), (q, p)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_aggregates_combine_over_the_three_partitions(seed):
    rng = random.Random(seed)
    table, num_cols, text_cols = make_rich_table(rng)
    col = rng.choice(num_cols + ["d", "s"])
    p = rich_pred(rng, num_cols, text_cols)
    q = f"SELECT COUNT(*), COUNT({col}), MIN({col}), MAX({col}) FROM w"
    (whole,) = _rows(q, table)
    parts = [_rows(sql, table)[0] for sql in _partitions(q, p)]
    assert whole[0] == sum(part[0] for part in parts), p
    assert whole[1] == sum(part[1] for part in parts), p
    # MIN and MAX: the extremum, in the evaluator's order, of the partitions'
    # extrema; equal in that order, since '3' and '3.0' tie
    for pos, pick in ((2, min), (3, max)):
        found = [part[pos] for part in parts if part[pos] is not None]
        if not found:
            assert whole[pos] is None, p
        else:
            assert _sort_key(whole[pos]) == _sort_key(pick(found, key=_sort_key)), p
