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
from dataclasses import dataclass
from datetime import date
from functools import cached_property, lru_cache

from .errors import EvalError, UnknownColumn, UnsupportedFeature
from .syntax import (Aggregate, Binary, ColumnRef, InList, IsNull, Literal,
                     Program, Query, ScalarSubquery, Star, Unary, aggregates)
from .table import Cell, Table, cell_to_text, format_number, parse_date_like, parse_number


@dataclass(frozen=True)
class Denotation:
    rows: tuple  # tuple of row tuples


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


def denotation_to_answer(d: Denotation) -> Answer:
    """Flatten rows in row-major order; scalars become singletons."""
    return Answer(tuple(v for row in d.rows for v in row))


# ---- value helpers ----

def _coerce_number(v: Cell):
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        return parse_number(v)
    return None


def _limit_count(value) -> int:
    """LIMIT's row count, from the program text or a value call's reply: as
    in sqlite, a number (numeric text counts) with no fractional part."""
    n = _coerce_number(value)
    if n is None or not n.is_integer():  # is_integer is False for inf
        raise EvalError(f"LIMIT needs an integer, got {value!r}")
    return int(n)


def _truthy(v: Cell) -> bool:
    n = v if isinstance(v, float) else _coerce_number(v)
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


def _group_key(v: Cell):
    if v is None:
        return ("null",)
    if isinstance(v, float):
        return ("n", v)
    if isinstance(v, date):
        return ("d", v.toordinal())
    return ("t", str(v))


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
        a, b = _coerce_number(left), _coerce_number(right)
        return None if a is None or b is None else (a, b)
    if isinstance(left, date) or isinstance(right, date):
        a = left if isinstance(left, date) else parse_date_like(str(left))
        b = right if isinstance(right, date) else parse_date_like(str(right))
        return None if a is None or b is None else (a, b)
    return (str(left), str(right))


@lru_cache(maxsize=256)
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


def _compile(expr, ctx: str, t: Table, subqueries: dict):
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
        return _compile_aggregate(expr, t, subqueries)
    if isinstance(expr, Star):
        return _fails(EvalError, "* is only valid as a select item or inside COUNT(*)")
    if isinstance(expr, ScalarSubquery):
        return _compile_subquery(expr, t, subqueries)
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, ctx, t, subqueries)
        if expr.op == "NOT":
            def negation(r):
                v = operand(r)
                return None if v is None else 0.0 if _truthy(v) else 1.0
            return negation

        def minus(r):
            n = _coerce_number(operand(r))
            return None if n is None else _finite(-n)
        return minus
    if isinstance(expr, IsNull):
        subject = _compile(expr.subject, ctx, t, subqueries)
        null, not_null = (0.0, 1.0) if expr.negated else (1.0, 0.0)
        return lambda r: null if subject(r) is None else not_null
    if isinstance(expr, InList):
        return _compile_in(expr, ctx, t, subqueries)
    if isinstance(expr, Binary):
        return _compile_binary(expr, ctx, t, subqueries)
    return _fails(UnsupportedFeature, f"cannot evaluate {type(expr).__name__}")


def _compile_binary(expr: Binary, ctx: str, t: Table, subqueries: dict):
    op = expr.op
    left = _compile(expr.left, ctx, t, subqueries)
    right = _compile(expr.right, ctx, t, subqueries)
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
    if op in ("LIKE", "NOT LIKE"):
        hit, miss = (0.0, 1.0) if op == "NOT LIKE" else (1.0, 0.0)

        def like(r):
            v, pattern = left(r), right(r)
            if v is None or pattern is None:
                return None
            return hit if _like_regex(str(pattern)).fullmatch(cell_to_text(v)) else miss
        return like
    if op not in _ARITHMETIC:
        return _fails(UnsupportedFeature, f"operator {op!r}")
    apply, divides = _ARITHMETIC[op], op in ("/", "%")

    def arithmetic(r):
        a, b = _coerce_number(left(r)), _coerce_number(right(r))
        if a is None or b is None or (divides and b == 0):
            return None
        try:
            return _finite(apply(a, b))
        except ValueError:  # fmod of an infinite number
            return None
    return arithmetic


def _compile_in(expr: InList, ctx: str, t: Table, subqueries: dict):
    subject = _compile(expr.subject, ctx, t, subqueries)
    items = [_compile(item, ctx, t, subqueries) for item in expr.items]
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


def _compile_aggregate(agg: Aggregate, t: Table, subqueries: dict):
    """The aggregate over a group's rows; its argument is read per row."""
    if isinstance(agg.arg, Star):
        return lambda g: float(len(g[0]))
    arg = _compile(agg.arg, _ROW, t, subqueries)
    func, distinct = agg.func, agg.distinct

    def aggregate(g):
        present = [v for v in map(arg, g[0]) if v is not None]
        if distinct:  # the first of each equal value
            first: dict = {}
            for v in present:
                first.setdefault(_group_key(v), v)
            present = list(first.values())
        if func == "COUNT":
            return float(len(present))
        if func in ("SUM", "AVG"):
            nums = [n for n in map(_coerce_number, present) if n is not None]
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


def _compile_subquery(expr: ScalarSubquery, t: Table, subqueries: dict):
    """The subquery's value, computed at its first use in the execute_sql
    call: it cannot refer to the outer row, so its value is the same for
    every row. Node identity is a sound key while the program is run."""
    key = id(expr)

    def subquery(_):
        if key not in subqueries:
            subqueries[key] = _scalar(_exec_query(expr.query, t, subqueries))
        return subqueries[key]
    return subquery


def _scalar(rows: list) -> Cell:
    if not rows:
        return None
    if len(rows) > 1:
        raise EvalError(f"scalar subquery returned {len(rows)} rows")
    if len(rows[0]) != 1:
        raise EvalError(f"scalar subquery returned {len(rows[0])} columns")
    return rows[0][0]


# ---- query execution ----

def _compile_rep(aggs: list, t: Table, subqueries: dict):
    """Representative row for bare columns in an aggregate query: with a single
    MIN/MAX select aggregate, the first extremum row; otherwise the first row."""
    if not (len(aggs) == 1 and aggs[0].func in ("MIN", "MAX")
            and not isinstance(aggs[0].arg, Star)):
        return lambda indices: indices[0] if indices else None
    arg = _compile(aggs[0].arg, _ROW, t, subqueries)
    better = operator.lt if aggs[0].func == "MIN" else operator.gt

    def extremum(indices):
        best_i, best_key = None, None
        for i in indices:
            v = arg(i)
            if v is not None and (best_key is None or better(_sort_key(v), best_key)):
                best_i, best_key = i, _sort_key(v)
        return best_i if best_i is not None else indices[0] if indices else None
    return extremum


def _compile_entry(q: Query, ctx: str, t: Table, subqueries: dict):
    """The closure giving (projected row, [order key cells]) of a row or group."""
    readers = []
    for item in q.select_items:
        if not isinstance(item, Star):
            readers.append(_compile(item, ctx, t, subqueries))
        elif ctx == _ROW:
            readers.extend(t.column(c).cells.__getitem__ for c in t.column_names())
        else:
            readers.append(_fails(EvalError, "* needs a plain row context"))
    keys = [_compile(o.expr, ctx, t, subqueries) for o in q.order_by]
    return lambda r: (tuple([read(r) for read in readers]), [key(r) for key in keys])


def _order_rows(entries: list, q: Query):
    """entries: (row, [order key cells]); stable, nulls last per key."""
    for pos in range(len(q.order_by) - 1, -1, -1):
        desc = q.order_by[pos].desc
        entries.sort(key=lambda e: _sort_key(e[1][pos]) if e[1][pos] is not None else (0, 0.0),
                     reverse=desc)
        entries.sort(key=lambda e: e[1][pos] is None)
    return entries


def _exec_query(q: Query, t: Table, subqueries: dict) -> list:
    if q.from_table is None:
        entries = [_compile_entry(q, _TOP, t, subqueries)(None)]
    else:
        indices = range(t.row_count)
        if q.where is not None:
            where = _compile(q.where, _ROW, t, subqueries)
            indices = [i for i in indices if _truthy(where(i))]
        select_aggs = [a for e in q.select_items for a in aggregates(e)]
        is_aggregate = (
            bool(q.group_by)
            or bool(select_aggs)
            or (q.having is not None)
            or any(aggregates(o.expr) for o in q.order_by)
        )
        if is_aggregate:
            groups = _group(q, t, subqueries, indices)
            rep = _compile_rep(select_aggs, t, subqueries)
            having = (_compile(q.having, _GROUP, t, subqueries) if q.having is not None
                      else lambda _: 1.0)
            entry = _compile_entry(q, _GROUP, t, subqueries)
            entries = []
            for g_indices in groups:
                g = (g_indices, rep(g_indices))
                if _truthy(having(g)):
                    entries.append(entry(g))
        else:
            entries = list(map(_compile_entry(q, _ROW, t, subqueries), indices))
    if q.distinct:
        seen = set()
        kept = []
        for e in entries:
            k = tuple(_group_key(v) for v in e[0])
            if k not in seen:
                seen.add(k)
                kept.append(e)
        entries = kept
    if q.order_by:
        entries = _order_rows(entries, q)
    rows = [e[0] for e in entries]
    if q.limit is not None:  # a Literal: execute_sql refuses unresolved calls
        rows = rows[:max(_limit_count(q.limit.value), 0)]
    return rows


def _group(q: Query, t: Table, subqueries: dict, indices) -> list:
    if not q.group_by:
        return [indices]  # single group, possibly empty (COUNT(*) over no rows is 0)
    keys = [_compile(g, _ROW, t, subqueries) for g in q.group_by]
    buckets: dict = {}
    for i in indices:
        buckets.setdefault(tuple([_group_key(key(i)) for key in keys]), []).append(i)
    return list(buckets.values())  # insertion order = first-appearance order


def execute_sql(p: Program, t: Table) -> Denotation:
    """Execute a model-call-free program against a table."""
    if p.calls:
        raise UnsupportedFeature("program still contains model calls; resolve them first")
    return Denotation(tuple(_exec_query(p.root, t, {})))
