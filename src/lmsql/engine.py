"""Deterministic evaluator for the supported SQL subset over a single table.

Programs must be free of model-call nodes by the time they reach
execute_sql. Semantics: multiset rows, three-valued logic with null
propagation, boolean results as 1/0 numbers, stable ORDER BY with nulls
last, numeric coercion of numeric-looking text at comparison time.
"""

from __future__ import annotations

import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from functools import cached_property

from .errors import EvalError, UnknownColumn, UnsupportedFeature
from .syntax import (Aggregate, Binary, ColumnRef, InList, IsNull, Literal,
                     Program, Query, ScalarSubquery, Star, Unary, aggregates)
from .table import (Cell, Column, Table, as_date, as_number, cell_to_text, format_number,
                    parse_number)


EMPTY_KEY = "<empty>"
KEY_SEP = "\x1f"


def canonical_value(v: Cell) -> str:
    """Canonical lowercase string for grouping and display of answer values."""
    if v is None:
        return "none"
    if isinstance(v, float):
        return format_number(v)
    if isinstance(v, date):
        return v.isoformat()
    s = str(v).strip().lower()
    n = parse_number(s)
    return format_number(n) if n is not None else s


@dataclass(frozen=True)
class Answer:
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    @cached_property
    def normalized_key(self) -> str:
        if not self.values:
            return EMPTY_KEY
        return KEY_SEP.join(canonical_value(v) for v in self.values)

    def display(self) -> list:
        return [canonical_value(v) for v in self.values]


EMPTY_ANSWER = Answer(())


# ---- value helpers ----

def _limit_count(value) -> int:
    """LIMIT's row count, from the program text or a value call's reply: as
    in sqlite, a number (numeric text counts) with no fractional part."""
    n = as_number(value)
    if n is None or not n.is_integer():  # is_integer is False for inf
        raise EvalError(f"LIMIT needs an integer, got {value!r}")
    return int(n)


def _truthy(v: Cell) -> bool:
    n = v if isinstance(v, float) else as_number(v)
    return n is not None and n != 0


def _sort_key(v: Cell):
    """Total order across types: numbers (and numeric text) < dates < text."""
    if isinstance(v, float):
        return (0, v)
    if isinstance(v, date):
        return (1, float(v.toordinal()))
    s = str(v)
    n = parse_number(s)
    return (0, n) if n is not None else (2, s)


def _compare(left: Cell, right: Cell, compare) -> Cell:
    """compare (an operator function) on the coerced operands: null if either
    is null or they do not compare."""
    if type(left) is type(right) and type(left) in (float, str):  # nothing to coerce
        return 1.0 if compare(left, right) else 0.0
    if left is None or right is None:
        return None
    pair = _comparable_pair(left, right)
    if pair is None:
        return None
    return 1.0 if compare(*pair) else 0.0


def _comparable_pair(left: Cell, right: Cell):
    """Coerce operands into a comparable pair, or None on type mismatch."""
    if isinstance(left, float) or isinstance(right, float):
        a, b = as_number(left), as_number(right)
        return None if a is None or b is None else (a, b)
    if isinstance(left, date) or isinstance(right, date):
        a, b = as_date(left), as_date(right)
        return None if a is None or b is None else (a, b)
    return (str(left), str(right))


def _like_regex(pattern: str):
    """A regex that fullmatches the texts LIKE pattern matches. A segment
    between two %s is matched atomically at its first occurrence, which is
    always a right choice: with a plain '.*' for each %, a failing match
    backtracks in time that grows as the text length to the power of the
    number of %s."""
    segments = ["".join("." if ch == "_" else re.escape(ch) for ch in seg)
                for seg in pattern.split("%")]
    if len(segments) == 1:
        return re.compile(segments[0], re.DOTALL)
    first, *middle, last = segments
    atomic = "".join(f"(?=(?P<s{i}>.*?{seg}))(?P=s{i})"
                     for i, seg in enumerate(middle) if seg)
    return re.compile(f"{first}{atomic}.*{last}", re.DOTALL)


# ---- compiled expressions ----
#
# Each expression of a query is compiled once per _exec_query into a closure
# of one argument. What the argument is depends on the context, which is
# fixed at compile time: in _ROW the index of a row, in _GROUP a pair
# (the group's row indices, its representative row index or None), in _TOP
# (a select without FROM) None. Compiling never raises: a misuse compiles to
# a closure that raises when called, so the error arises only where a row or
# group reaches it (an unknown column in a WHERE over no rows is no error).

_ROW, _GROUP, _TOP = "row", "group", "top"

_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "%": math.fmod}


def _fails(error: type, message: str):
    def fail(_):
        raise error(message)
    return fail


def _finite(x: float) -> Cell:
    """A number beyond float range, or no number at all, is null."""
    return x if math.isfinite(x) else None


def _compile(expr, ctx: str, t: Table):
    if isinstance(expr, Literal):
        value = expr.value
        return lambda _: value
    if isinstance(expr, ColumnRef):
        if ctx == _TOP:
            return _fails(EvalError, f"column {expr.name!r} referenced outside a FROM clause")
        name = expr.name
        try:
            read = t.column(name).cells.__getitem__
        except UnknownColumn:
            read = lambda _: t.column(name)  # raises, once a row is read
        if ctx == _ROW:
            return read
        return lambda g: None if g[1] is None else read(g[1])
    if isinstance(expr, Aggregate):
        if ctx != _GROUP:
            return _fails(EvalError, f"{expr.func} used outside an aggregate query")
        return _compile_aggregate(expr, t)
    if isinstance(expr, Star):
        return _fails(EvalError, "* is only valid as a select item or inside COUNT(*)")
    if isinstance(expr, ScalarSubquery):
        return _compile_subquery(expr, t)
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, ctx, t)
        if expr.op == "NOT":
            def negation(r):
                v = operand(r)
                return None if v is None else 0.0 if _truthy(v) else 1.0
            return negation

        def minus(r):
            n = as_number(operand(r))
            return None if n is None else _finite(-n)
        return minus
    if isinstance(expr, IsNull):
        subject = _compile(expr.subject, ctx, t)
        null, not_null = (0.0, 1.0) if expr.negated else (1.0, 0.0)
        return lambda r: null if subject(r) is None else not_null
    if isinstance(expr, InList):
        return _compile_in(expr, ctx, t)
    if isinstance(expr, Binary):
        return _compile_binary(expr, ctx, t)
    return _fails(UnsupportedFeature, f"cannot evaluate {type(expr).__name__}")


def _compile_binary(expr: Binary, ctx: str, t: Table):
    op = expr.op
    left = _compile(expr.left, ctx, t)
    if op in ("LIKE", "NOT LIKE"):  # the parser admits only a string literal pattern
        match = _like_regex(expr.right.value).fullmatch
        hit, miss = (0.0, 1.0) if op == "NOT LIKE" else (1.0, 0.0)

        def like(r):
            v = left(r)
            return None if v is None else hit if match(cell_to_text(v)) else miss
        return like
    right = _compile(expr.right, ctx, t)
    if op in ("AND", "OR"):
        decides = op == "OR"  # the operand truth that decides the result alone
        settled, otherwise = (1.0, 0.0) if decides else (0.0, 1.0)

        def connective(r):  # three-valued, left operand first
            a = left(r)
            if a is not None and _truthy(a) == decides:
                return settled
            b = right(r)
            if b is not None and _truthy(b) == decides:
                return settled
            return None if a is None or b is None else otherwise
        return connective
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]
        return lambda r: _compare(left(r), right(r), compare)
    if op not in _ARITHMETIC:
        return _fails(UnsupportedFeature, f"operator {op!r}")
    apply, divides = _ARITHMETIC[op], op in ("/", "%")

    def arithmetic(r):
        a, b = as_number(left(r)), as_number(right(r))
        if a is None or b is None or (divides and b == 0):
            return None
        try:
            return _finite(apply(a, b))
        except ValueError:  # fmod of an infinite number
            return None
    return arithmetic


def _compile_in(expr: InList, ctx: str, t: Table):
    subject = _compile(expr.subject, ctx, t)
    items = [_compile(item, ctx, t) for item in expr.items]
    hit, miss = (0.0, 1.0) if expr.negated else (1.0, 0.0)

    def in_list(r):
        v = subject(r)
        if v is None:
            return None
        saw_null = False
        for item in items:
            found = _compare(v, item(r), operator.eq)
            if found == 1.0:
                return hit
            saw_null = saw_null or found is None
        return None if saw_null else miss
    return in_list


def _compile_aggregate(agg: Aggregate, t: Table):
    """The aggregate over a group's rows; its argument is read per row."""
    if isinstance(agg.arg, Star):
        return lambda g: float(len(g[0]))
    arg = _compile(agg.arg, _ROW, t)
    func, distinct = agg.func, agg.distinct

    def aggregate(g):
        present = [v for v in map(arg, g[0]) if v is not None]
        if distinct:  # the first of each equal value
            present = list(dict.fromkeys(present))
        if func == "COUNT":
            return float(len(present))
        if func in ("SUM", "AVG"):
            nums = [n for n in map(as_number, present) if n is not None]
            if not nums:
                return None
            try:
                total = math.fsum(nums)
            except (OverflowError, ValueError):  # partial sums beyond float range
                return None
            return _finite(total if func == "SUM" else total / len(nums))
        if not present:  # MIN / MAX
            return None
        return (min if func == "MIN" else max)(present, key=_sort_key)
    return aggregate


def _compile_subquery(expr: ScalarSubquery, t: Table):
    """The subquery's value, computed at the closure's first use and kept by
    it: the subquery cannot refer to the outer row, so its value is the same
    for every row. The argument of a single MIN/MAX is compiled twice, for
    the representative row and for the aggregate, so a subquery inside it
    may run twice; both runs give the same value or raise the same error,
    and the representative's runs first."""
    value = []

    def subquery(_):
        if not value:
            value.append(_scalar(_exec_query(expr.query, t)))
        return value[0]
    return subquery


def _scalar(rows: list) -> Cell:
    if not rows:
        return None
    if len(rows) > 1:
        raise EvalError(f"scalar subquery returned {len(rows)} rows")
    if len(rows[0]) != 1:
        raise EvalError(f"scalar subquery returned {len(rows[0])} columns")
    return rows[0][0]


# ---- filters ----
#
# A WHERE compiles into a filter: a function from a list of row indices, in
# ascending order, to the indices where the predicate is true, in the same
# order. A predicate that cannot raise is evaluated a column at a time: each
# comparison of a column with a literal, IS NULL, IN a list of literals and
# LIKE becomes one comprehension over the column's cells, whose type the
# column's declared_type fixes. Any other predicate keeps its row closure,
# so its errors arise at the rows and operands where a row-by-row walk
# raises them (the right of an AND is read only where the left is not false).

_OPERATORS = {*_COMPARISONS, *_ARITHMETIC, "AND", "OR", "LIKE", "NOT LIKE"}
_NEGATED = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

# The rows whose cell v has `v op x`, for an x of the cells' type. With no
# NaN, each order is total, so `not v < x` is `v >= x` for every v not null.
_CELL_FILTERS = {
    "=": lambda cells, x: lambda idx: [i for i in idx if cells[i] == x],
    "!=": lambda cells, x: lambda idx: [i for i in idx if (v := cells[i]) is not None and v != x],
    "<": lambda cells, x: lambda idx: [i for i in idx if (v := cells[i]) is not None and v < x],
    "<=": lambda cells, x: lambda idx: [i for i in idx if (v := cells[i]) is not None and v <= x],
    ">": lambda cells, x: lambda idx: [i for i in idx if (v := cells[i]) is not None and v > x],
    ">=": lambda cells, x: lambda idx: [i for i in idx if (v := cells[i]) is not None and v >= x],
}


def _no_rows(_):
    return []


def _compile_filter(expr, t: Table):
    if _cannot_raise(expr, t):
        return _filter(expr, t, True)
    return _row_filter(_compile(expr, _ROW, t), True)


def _row_filter(row, truth: bool):
    """The filter keeping the rows where the row closure's value is `truth`."""
    if truth:
        return lambda idx: [i for i in idx if _truthy(row(i))]
    return lambda idx: [i for i in idx if (v := row(i)) is not None and not _truthy(v)]


def _cannot_raise(expr, t: Table) -> bool:
    """Whether expr's row closure raises on no row of t: every column
    resolves, and there is no subquery, aggregate, star or unsupported node."""
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, ColumnRef):
        return _resolve(expr, t) is not None
    if isinstance(expr, Unary):
        return _cannot_raise(expr.operand, t)
    if isinstance(expr, IsNull):
        return _cannot_raise(expr.subject, t)
    if isinstance(expr, InList):
        return all(_cannot_raise(e, t) for e in (expr.subject, *expr.items))
    if isinstance(expr, Binary):
        return (expr.op in _OPERATORS
                and _cannot_raise(expr.left, t) and _cannot_raise(expr.right, t))
    return False


def _resolve(expr, t: Table):
    """The column a ColumnRef names in t, or None."""
    try:
        return t.column(expr.name) if isinstance(expr, ColumnRef) else None
    except UnknownColumn:
        return None


def _filter(expr, t: Table, truth: bool):
    """The filter keeping the rows where expr, which cannot raise, is
    `truth` (True or False); a row where it is null is kept by neither."""
    if isinstance(expr, Unary) and expr.op == "NOT":
        return _filter(expr.operand, t, not truth)
    if isinstance(expr, Binary) and expr.op in ("AND", "OR"):
        left, right = _filter(expr.left, t, truth), _filter(expr.right, t, truth)
        if (expr.op == "AND") == truth:  # both operands must be `truth`
            return lambda idx: right(left(idx))

        def either(idx):  # one operand being `truth` is enough
            first = left(idx)
            taken = set(first)
            return sorted(first + right([i for i in idx if i not in taken]))
        return either
    leaf = _column_filter(expr, t, truth)
    return leaf if leaf is not None else _row_filter(_compile(expr, _ROW, t), truth)


def _column_filter(expr, t: Table, truth: bool):
    """One comprehension over a column's cells, or None for a predicate of
    another form."""
    if isinstance(expr, IsNull) and (col := _resolve(expr.subject, t)) is not None:
        cells = col.cells
        if truth != expr.negated:
            return lambda idx: [i for i in idx if cells[i] is None]
        return lambda idx: [i for i in idx if cells[i] is not None]
    if isinstance(expr, InList) and all(isinstance(e, Literal) for e in expr.items):
        return _in_filter(_resolve(expr.subject, t), [e.value for e in expr.items],
                          truth != expr.negated)
    if not isinstance(expr, Binary):
        return None
    op, left, right = expr.op, expr.left, expr.right
    if op in ("LIKE", "NOT LIKE"):
        col = _resolve(left, t)
        if col is None or col.declared_type != "text":
            return None
        cells, match = col.cells, _like_regex(right.value).fullmatch
        if truth != (op == "NOT LIKE"):
            return lambda idx: [i for i in idx if (v := cells[i]) is not None and match(v)]
        return lambda idx: [i for i in idx if (v := cells[i]) is not None and not match(v)]
    if op not in _COMPARISONS:
        return None
    if isinstance(left, Literal):
        op, left, right = _MIRRORED[op], right, left
    col = _resolve(left, t)
    if col is None or not isinstance(right, Literal):
        return None
    return _compared(col, right.value, op if truth else _NEGATED[op])


def _compared(col: Column, x: Cell, op: str):
    """The rows where `cell op x` is true, with the coercions of _compare:
    x is coerced to the column's type once, except that a text cell compared
    with a number is read as a number cell by cell."""
    cells = col.cells
    if col.declared_type == "text" and isinstance(x, float):
        compare = _COMPARISONS[op]
        return lambda idx: [i for i in idx
                            if (n := as_number(cells[i])) is not None and compare(n, x)]
    x = _as_cell(col, x)
    return _no_rows if x is None else _CELL_FILTERS[op](cells, x)


def _as_cell(col: Column, x: Cell) -> Cell:
    """A text or number literal as the column's cells hold it; None if it
    compares with none of them. Text stays text, even numeric text."""
    kind = col.declared_type
    return x if kind == "text" else as_date(x) if kind == "date" else as_number(x)


def _in_filter(col, items: list, hits: bool):
    """The rows where a column's cell equals one of items (hits=True), or
    where it equals none of them and no item makes the test null."""
    if col is None:
        return None
    if col.declared_type == "text" and any(isinstance(x, float) for x in items):
        return None  # text against a number: left to the row closure
    cells, values = col.cells, [_as_cell(col, x) for x in items]
    wanted = {x for x in values if x is not None}
    if hits:
        return lambda idx: [i for i in idx if cells[i] in wanted]
    if None in values:  # a null item: no cell is IN false
        return _no_rows
    return lambda idx: [i for i in idx if (v := cells[i]) is not None and v not in wanted]


# ---- query execution ----

def _compile_rep(aggs: list, t: Table):
    """Representative row for bare columns in an aggregate query: with a single
    MIN/MAX select aggregate, the first extremum row; otherwise the first row."""
    if not (len(aggs) == 1 and aggs[0].func in ("MIN", "MAX")
            and not isinstance(aggs[0].arg, Star)):
        return lambda indices: indices[0] if indices else None
    arg = _compile(aggs[0].arg, _ROW, t)
    better = operator.lt if aggs[0].func == "MIN" else operator.gt

    def extremum(indices):
        best_i, best_key = None, None
        for i in indices:
            v = arg(i)
            if v is not None and (best_key is None or better(_sort_key(v), best_key)):
                best_i, best_key = i, _sort_key(v)
        return best_i if best_i is not None else indices[0] if indices else None
    return extremum


def _compile_entry(q: Query, ctx: str, t: Table):
    """The closure giving (projected row, [order key cells]) of a row or group."""
    readers = []
    for item in q.select_items:
        if not isinstance(item, Star):
            readers.append(_compile(item, ctx, t))
        elif ctx == _ROW:
            readers.extend(t.column(c).cells.__getitem__ for c in t.column_names())
        else:
            readers.append(_fails(EvalError, "* needs a plain row context"))
    keys = [_compile(o.expr, ctx, t) for o in q.order_by]
    return lambda r: (tuple([read(r) for read in readers]), [key(r) for key in keys])


def _order_rows(entries: list, q: Query):
    """entries: (row, [order key cells]); stable, nulls last per key."""
    for pos in range(len(q.order_by) - 1, -1, -1):
        desc = q.order_by[pos].desc
        entries.sort(key=lambda e: _sort_key(e[1][pos]) if e[1][pos] is not None else (0, 0.0),
                     reverse=desc)
        entries.sort(key=lambda e: e[1][pos] is None)
    return entries


def _exec_query(q: Query, t: Table) -> list:
    if q.from_table is None:
        entries = [_compile_entry(q, _TOP, t)(None)]
    else:
        indices = range(t.row_count)
        if q.where is not None:
            indices = _compile_filter(q.where, t)(indices)
        select_aggs = [a for e in q.select_items for a in aggregates(e)]
        is_aggregate = (
            bool(q.group_by)
            or bool(select_aggs)
            or (q.having is not None)
            or any(aggregates(o.expr) for o in q.order_by)
        )
        if is_aggregate:
            groups = _group(q, t, indices)
            rep = _compile_rep(select_aggs, t)
            having = (_compile(q.having, _GROUP, t) if q.having is not None
                      else lambda _: 1.0)
            entry = _compile_entry(q, _GROUP, t)
            entries = []
            for g_indices in groups:
                g = (g_indices, rep(g_indices))
                if _truthy(having(g)):
                    entries.append(entry(g))
        else:
            entries = list(map(_compile_entry(q, _ROW, t), indices))
    if q.distinct:  # the first of each equal row
        first: dict = {}
        for e in entries:
            first.setdefault(e[0], e)
        entries = list(first.values())
    if q.order_by:
        entries = _order_rows(entries, q)
    rows = [e[0] for e in entries]
    if q.limit is not None:  # a Literal: execute_sql refuses unresolved calls
        count = _limit_count(q.limit.value)
        if count >= 0:  # as in sqlite, a negative count is no limit
            rows = rows[:count]
    return rows


def _group(q: Query, t: Table, indices) -> list:
    if not q.group_by:
        return [indices]  # single group, possibly empty (COUNT(*) over no rows is 0)
    # Rows group by their key cells themselves: a cell is None, a float that
    # is not NaN, a str or a date, so two cells are equal, and hash alike,
    # exactly when they are the same value of the same type (-0.0 is 0.0).
    keys = [_compile(g, _ROW, t) for g in q.group_by]
    values = (map(keys[0], indices) if len(keys) == 1
              else zip(*[map(key, indices) for key in keys]))  # per row, keys left to right
    buckets = defaultdict(list)
    for i, v in zip(indices, values):
        buckets[v].append(i)
    return list(buckets.values())  # insertion order = first-appearance order


def execute_sql(p: Program, t: Table) -> tuple:
    """Execute a model-call-free program against a table: its rows, each a
    tuple of cells."""
    if p.calls:
        raise UnsupportedFeature("program still contains model calls; resolve them first")
    return tuple(_exec_query(p.root, t))
