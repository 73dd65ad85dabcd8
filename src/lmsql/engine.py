"""Deterministic evaluator for the supported SQL subset over a single table.

Programs must be free of model-call nodes by the time they reach
execute_sql. Semantics: multiset rows, three-valued logic with null
propagation, boolean results as 1/0 numbers, stable ORDER BY with nulls
last, numeric coercion of numeric-looking text at comparison time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from functools import cached_property, lru_cache

from .errors import EvalError, UnsupportedFeature
from .syntax import (Aggregate, ApiCall, Binary, ColumnRef, InList, IsNull,
                     Literal, Program, Query, ScalarSubquery, Star, Unary,
                     aggregates, has_api_calls)
from .table import Cell, Table, cell_to_text, format_number, parse_date_like, parse_number


@dataclass(frozen=True)
class Denotation:
    rows: tuple  # tuple of row tuples

    @property
    def is_scalar(self) -> bool:
        return len(self.rows) == 1 and len(self.rows[0]) == 1

    @property
    def scalar(self) -> Cell:
        if not self.is_scalar:
            raise EvalError(f"denotation is not scalar ({len(self.rows)} rows)")
        return self.rows[0][0]


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


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _limit_count(value) -> int:
    """LIMIT's row count: a number from the program text, or a value-call
    reply that must spell an integer."""
    if isinstance(value, str) and _INTEGER.fullmatch(value.strip()):
        try:
            return int(value)
        except ValueError:  # more digits than int() accepts from text
            pass
    elif isinstance(value, float) and math.isfinite(value):
        return int(value)
    raise EvalError(f"LIMIT needs an integer, got {value!r}")


def _truthy(v: Cell) -> bool:
    if v is None:
        return False
    n = _coerce_number(v)
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


def _compare(left: Cell, right: Cell, op: str) -> Cell:
    if left is None or right is None:
        return None
    pair = _comparable_pair(left, right)
    if pair is None:
        return None
    a, b = pair
    result = {
        "=": a == b, "!=": a != b,
        "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
    }[op]
    return 1.0 if result else 0.0


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
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


# ---- scopes ----

class _Scope:
    """Name resolution context for expression evaluation. All scopes of one
    execute_sql call share `subqueries`, the values of the scalar subqueries
    evaluated so far: a subquery cannot refer to the outer row, so its value
    is the same for every row."""

    def __init__(self, base: Table, subqueries: dict):
        self.base = base
        self.subqueries = subqueries

    def row(self, index: int) -> "_RowScope":
        return _RowScope(self.base, self.subqueries, index)

    def cell(self, name: str) -> Cell:
        raise EvalError(f"column {name!r} referenced outside a FROM clause")

    def aggregate(self, agg: Aggregate) -> Cell:
        raise EvalError(f"{agg.func} used outside an aggregate query")


class _RowScope(_Scope):
    def __init__(self, base: Table, subqueries: dict, index: int):
        super().__init__(base, subqueries)
        self.index = index

    def cell(self, name: str) -> Cell:
        return self.base.column(name).cells[self.index]


class _GroupScope(_Scope):
    def __init__(self, base: Table, subqueries: dict, indices: list, rep_index=None):
        super().__init__(base, subqueries)
        self.indices = indices
        self.rep_index = rep_index if rep_index is not None else (indices[0] if indices else None)

    def cell(self, name: str) -> Cell:
        if self.rep_index is None:
            return None
        return self.base.column(name).cells[self.rep_index]

    def aggregate(self, agg: Aggregate) -> Cell:
        if isinstance(agg.arg, Star):
            return float(len(self.indices))
        values = [_eval(agg.arg, self.row(i)) for i in self.indices]
        present = [v for v in values if v is not None]
        if agg.func == "COUNT":
            if agg.distinct:
                return float(len({_group_key(v) for v in present}))
            return float(len(present))
        if agg.distinct:
            seen, uniq = set(), []
            for v in present:
                k = _group_key(v)
                if k not in seen:
                    seen.add(k)
                    uniq.append(v)
            present = uniq
        if agg.func in ("SUM", "AVG"):
            nums = [n for n in (_coerce_number(v) for v in present) if n is not None]
            if not nums:
                return None
            total = math.fsum(nums)
            return total if agg.func == "SUM" else total / len(nums)
        if not present:  # MIN / MAX
            return None
        pick = min if agg.func == "MIN" else max
        return pick(present, key=_sort_key)


# ---- expression evaluation ----

def _eval(expr, scope: _Scope) -> Cell:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return scope.cell(expr.name)
    if isinstance(expr, Star):
        raise EvalError("* is only valid as a select item or inside COUNT(*)")
    if isinstance(expr, ApiCall):
        raise UnsupportedFeature(
            f'unresolved model call f("{expr.question}"; ...) reached the SQL evaluator')
    if isinstance(expr, Aggregate):
        return scope.aggregate(expr)
    if isinstance(expr, Unary):
        if expr.op == "NOT":
            v = _eval(expr.operand, scope)
            if v is None:
                return None
            return 0.0 if _truthy(v) else 1.0
        n = _coerce_number(_eval(expr.operand, scope))
        return None if n is None else -n
    if isinstance(expr, Binary):
        return _eval_binary(expr, scope)
    if isinstance(expr, InList):
        return _eval_in(expr, scope)
    if isinstance(expr, IsNull):
        v = _eval(expr.subject, scope)
        hit = v is None
        if expr.negated:
            hit = not hit
        return 1.0 if hit else 0.0
    if isinstance(expr, ScalarSubquery):
        return _eval_subquery(expr, scope)
    raise UnsupportedFeature(f"cannot evaluate {type(expr).__name__}")


def _eval_binary(expr: Binary, scope: _Scope) -> Cell:
    op = expr.op
    if op == "AND":
        left = _eval(expr.left, scope)
        if left is not None and not _truthy(left):
            return 0.0
        right = _eval(expr.right, scope)
        if right is not None and not _truthy(right):
            return 0.0
        if left is None or right is None:
            return None
        return 1.0
    if op == "OR":
        left = _eval(expr.left, scope)
        if left is not None and _truthy(left):
            return 1.0
        right = _eval(expr.right, scope)
        if right is not None and _truthy(right):
            return 1.0
        if left is None or right is None:
            return None
        return 0.0
    left = _eval(expr.left, scope)
    right = _eval(expr.right, scope)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return _compare(left, right, op)
    if op in ("LIKE", "NOT LIKE"):
        if left is None or right is None:
            return None
        hit = bool(_like_regex(str(right)).fullmatch(cell_to_text(left)))
        if op == "NOT LIKE":
            hit = not hit
        return 1.0 if hit else 0.0
    a, b = _coerce_number(left), _coerce_number(right)
    if a is None or b is None:
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return None if b == 0 else a / b
    if op == "%":
        return None if b == 0 else math.fmod(a, b)
    raise UnsupportedFeature(f"operator {op!r}")


def _eval_in(expr: InList, scope: _Scope) -> Cell:
    subject = _eval(expr.subject, scope)
    if subject is None:
        return None
    saw_null = False
    hit = False
    for item in expr.items:
        r = _compare(subject, _eval(item, scope), "=")
        if r is None:
            saw_null = True
        elif r == 1.0:
            hit = True
            break
    if hit:
        return 0.0 if expr.negated else 1.0
    if saw_null:
        return None
    return 1.0 if expr.negated else 0.0


def _eval_subquery(expr: ScalarSubquery, scope: _Scope) -> Cell:
    """The subquery's value, computed at its first use in the execute_sql
    call; node identity is a sound key while the program is being run."""
    key = id(expr)
    if key not in scope.subqueries:
        scope.subqueries[key] = _scalar(_exec_query(expr.query, scope.base, scope.subqueries))
    return scope.subqueries[key]


def _scalar(rows: list) -> Cell:
    if not rows:
        return None
    if len(rows) > 1:
        raise EvalError(f"scalar subquery returned {len(rows)} rows")
    if len(rows[0]) != 1:
        raise EvalError(f"scalar subquery returned {len(rows[0])} columns")
    return rows[0][0]


# ---- query execution ----

def _rep_index(aggs: list, scope: _Scope, indices: list):
    """Representative row for bare columns in an aggregate query: with a single
    MIN/MAX select aggregate, the first extremum row; otherwise the first row."""
    if not indices:
        return None
    if len(aggs) == 1 and aggs[0].func in ("MIN", "MAX") and not isinstance(aggs[0].arg, Star):
        agg = aggs[0]
        best_i, best_key = None, None
        for i in indices:
            v = _eval(agg.arg, scope.row(i))
            if v is None:
                continue
            k = _sort_key(v)
            better = best_key is None or (k < best_key if agg.func == "MIN" else k > best_key)
            if better:
                best_i, best_key = i, k
        if best_i is not None:
            return best_i
    return indices[0]


def _project(q: Query, scope: _Scope, base: Table):
    out = []
    for item in q.select_items:
        if isinstance(item, Star):
            if not isinstance(scope, _RowScope):
                raise EvalError("* needs a plain row context")
            out.extend(base.column(c).cells[scope.index] for c in base.column_names())
        else:
            out.append(_eval(item, scope))
    return tuple(out)


def _order_rows(entries: list, q: Query):
    """entries: (row, [order key cells]); stable, nulls last per key."""
    for pos in range(len(q.order_by) - 1, -1, -1):
        desc = q.order_by[pos].desc
        entries.sort(key=lambda e: _sort_key(e[1][pos]) if e[1][pos] is not None else (0, 0.0),
                     reverse=desc)
        entries.sort(key=lambda e: e[1][pos] is None)
    return entries


def _exec_query(q: Query, t: Table, subqueries: dict) -> list:
    top = _Scope(t, subqueries)
    if q.from_table is None:
        rows = [_project(q, top, t)]
        entries = [(r, [_eval(o.expr, top) for o in q.order_by]) for r in rows]
    else:
        indices = list(range(t.row_count))
        if q.where is not None:
            indices = [i for i in indices if _truthy(_eval(q.where, top.row(i)))]
        select_aggs = [a for e in q.select_items for a in aggregates(e)]
        is_aggregate = (
            bool(q.group_by)
            or bool(select_aggs)
            or (q.having is not None)
            or any(aggregates(o.expr) for o in q.order_by)
        )
        entries = []
        if is_aggregate:
            groups = _group(q, top, indices)
            for g_indices in groups:
                scope = _GroupScope(t, subqueries, g_indices,
                                    _rep_index(select_aggs, top, g_indices))
                if q.having is not None and not _truthy(_eval(q.having, scope)):
                    continue
                entries.append((_project(q, scope, t),
                                [_eval(o.expr, scope) for o in q.order_by]))
        else:
            for i in indices:
                scope = top.row(i)
                entries.append((_project(q, scope, t),
                                [_eval(o.expr, scope) for o in q.order_by]))
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
    if q.limit is not None:
        if not isinstance(q.limit, Literal):
            raise UnsupportedFeature("LIMIT with an unresolved model call")
        rows = rows[:max(_limit_count(q.limit.value), 0)]
    return rows


def _group(q: Query, top: _Scope, indices: list) -> list:
    if not q.group_by:
        return [indices]  # single group, possibly empty (COUNT(*) over no rows is 0)
    buckets: dict = {}
    for i in indices:
        scope = top.row(i)
        key = tuple(_group_key(_eval(g, scope)) for g in q.group_by)
        buckets.setdefault(key, []).append(i)
    return list(buckets.values())  # insertion order = first-appearance order


def execute_sql(p: Program, t: Table) -> Denotation:
    """Execute a model-call-free program against a table."""
    if has_api_calls(p):
        raise UnsupportedFeature("program still contains model calls; resolve them first")
    return Denotation(tuple(_exec_query(p.root, t, {})))
