"""Differential test: the compiled evaluator returns the rows, and raises
the errors, of the tree-walking evaluator it replaced. That walker is kept
below as the reference, unchanged apart from its imports and the name of
its entry point: a scope object per row or group, and one _eval that
dispatches on the node type at every visit. It keeps its own copies of the
helpers whose engine versions changed, _compare and _truthy."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from lmsql import parse
from lmsql.engine import (Denotation, _coerce_number, _comparable_pair, _group_key,
                          _like_regex, _limit_count, _order_rows, _scalar, _sort_key,
                          execute_sql)
from lmsql.errors import EvalError, UnsupportedFeature
from lmsql.syntax import (Aggregate, ApiCall, Binary, ColumnRef, InList, IsNull, Literal,
                          Program, Query, ScalarSubquery, Star, Unary, aggregates)
from lmsql.table import Cell, Table, cell_to_text

from conftest import make_table
from randgen import (make_random_table, make_rich_table, random_query, rich_pred,
                     _num_expr)


# ---- the reference: the tree walker as it was ----

def _truthy(v: Cell) -> bool:
    if v is None:
        return False
    n = _coerce_number(v)
    return n is not None and n != 0


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


def reference_execute_sql(p: Program, t: Table) -> Denotation:
    """Execute a model-call-free program against a table."""
    if p.calls:
        raise UnsupportedFeature("program still contains model calls; resolve them first")
    return Denotation(tuple(_exec_query(p.root, t, {})))


# ---- the comparison ----

def _outcome(run, program, table: Table):
    try:
        return "rows", run(parse(program) if isinstance(program, str) else program, table).rows
    except Exception as e:  # the same errors, LmSqlError or not, in the same place
        return "error", type(e), str(e)


def assert_same_outcome(program, table: Table):
    expected = _outcome(reference_execute_sql, program, table)
    assert _outcome(execute_sql, program, table) == expected, program
    return expected


def _built(sql: str, **fields) -> Program:
    """sql's program with fields of its query replaced: shapes the parser
    refuses, which only a program built in code can reach."""
    p = parse(sql)
    return Program(dataclasses.replace(p.root, **fields), sql)


def _hostile_query(rng, num_cols, text_cols) -> str:
    """A query over a make_rich_table table that mixes every clause with the
    misuses the evaluator reports only when it reaches them: unknown columns,
    aggregates in row context, * in an expression, subqueries of the wrong
    shape, a fractional LIMIT, a FROM-less select that reads a column."""
    col = lambda: rng.choice(num_cols + text_cols + ["d", "s", "row_id"])
    num = lambda: rng.choice(num_cols)
    items = [rng.choice([
        col, lambda: "*", lambda: "COUNT(*)", lambda: f"MIN({col()})", lambda: f"MAX({col()})",
        lambda: f"SUM({num()})", lambda: "AVG(s)", lambda: f"COUNT(DISTINCT {col()})",
        lambda: f"{rng.choice(['MIN', 'MAX', 'SUM'])}(DISTINCT s)",
        lambda: "nosuch", lambda: "* + 1", lambda: _num_expr(rng, num_cols),
        lambda: f"(SELECT MAX({col()}) FROM w)", lambda: f"(SELECT {col()} FROM w)",
        lambda: f"(SELECT {col()}, {col()} FROM w)", lambda: f"SUM(MAX({num()}))",
        lambda: f"NOT {col()}", lambda: f"-{col()}", lambda: f"{col()} IS NULL",
        lambda: f"{col()} IN (1, 'apple', nosuch)", lambda: "1 OR nosuch",
        lambda: "0 AND nosuch", lambda: f"{col()} LIKE '%a%'", lambda: f"{num()} % 4",
        lambda: f"{col()} NOT LIKE '_'",
    ])() for _ in range(rng.randint(1, 3))]
    sql = f"SELECT {'DISTINCT ' if rng.random() < 0.15 else ''}{', '.join(items)}"
    if rng.random() < 0.1:
        return sql
    sql += " FROM w"
    if rng.random() < 0.5:
        sql += " WHERE " + rng.choice([
            lambda: rich_pred(rng, num_cols, text_cols), lambda: "nosuch > 1",
            lambda: "0 AND nosuch = 1", lambda: f"SUM({num()}) > 1",
            lambda: f"{num()} > (SELECT AVG({num()}) FROM w)",
            lambda: f"(SELECT {col()} FROM w) = 1"])()
    if rng.random() < 0.3:
        sql += f" GROUP BY {rng.choice([col(), 'nosuch', 's'])}"
    if rng.random() < 0.2:
        sql += f" HAVING {rng.choice(['COUNT(*) > 1', 'nosuch > 1', f'MAX({num()}) > 2'])}"
    if rng.random() < 0.35:
        keys = [rng.choice([col(), "COUNT(*)", "nosuch", f"{col()} DESC"])
                for _ in range(rng.randint(1, 2))]
        sql += " ORDER BY " + ", ".join(keys)
    if rng.random() < 0.25:
        sql += f" LIMIT {rng.choice(['0', '2', '2.5'])}"
    return sql


@st.composite
def queries(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sqlite-oracle", "rich", "hostile"]))
    event(kind)
    if kind == "sqlite-oracle":
        table, num_cols, text_cols = make_random_table(rng)
        return random_query(rng, num_cols, text_cols)[0], table
    table, num_cols, text_cols = make_rich_table(rng)
    if kind == "rich":
        where = rich_pred(rng, num_cols, text_cols)
        return f"SELECT row_id, d, s, {_num_expr(rng, num_cols)} FROM w WHERE {where}", table
    return _hostile_query(rng, num_cols, text_cols), table


@settings(max_examples=600, deadline=None)
@given(queries())
def test_random_queries_run_as_before(query):
    sql, table = query
    outcome = assert_same_outcome(sql, table)
    event(outcome[0] if outcome[0] == "rows" else outcome[1].__name__)


TABLES = {
    "rows": make_table("w", ["a", "b", "Total Amount"],
                       [["1", "x", "10"], ["3", "y", ""], ["3", "", "7"], ["", "x", "2"]]),
    "empty": make_table("w", ["a", "b"], []),
    "ties": make_table("w", ["s", "g"], [["3", "x"], ["3.0", "x"], ["x", "y"], ["3", "y"]]),
}

LAZY_ERRORS = [  # (sql, table, what the reference does)
    # an unknown column is an error only where a row reads it
    ("SELECT a FROM w WHERE nosuch = 1", "empty", "rows"),
    ("SELECT a FROM w WHERE nosuch = 1", "rows", "UnknownColumn"),
    ("SELECT a FROM w WHERE row_id < 0 AND nosuch = 1", "rows", "rows"),
    ("SELECT a FROM w WHERE a = 99 AND nosuch = 1", "rows", "UnknownColumn"),  # null a
    ("SELECT a FROM w WHERE a = 1 OR nosuch = 1", "rows", "UnknownColumn"),
    ("SELECT a FROM w WHERE a IS NULL OR a > 0 OR nosuch = 1", "rows", "rows"),
    ("SELECT a IN (1, 3, nosuch) FROM w WHERE a IS NOT NULL", "rows", "rows"),
    ("SELECT a FROM w ORDER BY nosuch", "empty", "rows"),
    ("SELECT a FROM w ORDER BY nosuch", "rows", "UnknownColumn"),
    ("SELECT total_amount, `Total Amount` FROM w", "rows", "rows"),
    # aggregates in row context, and outside FROM
    ("SELECT SUM(MAX(a)) FROM w", "rows", "EvalError"),
    ("SELECT SUM(MAX(a)) FROM w", "empty", "rows"),
    ("SELECT COUNT(*) FROM w WHERE row_id < 0 AND (SELECT SUM(a)) > 1", "rows", "rows"),
    ("SELECT COUNT(*) FROM w WHERE (SELECT SUM(a)) > 1", "rows", "EvalError"),
    ("SELECT COUNT(*)", "rows", "EvalError"),
    ("SELECT a", "rows", "EvalError"),
    ("SELECT 1 + 2, 'x' LIKE 'x%', 'x' NOT LIKE 'x%'", "rows", "rows"),
    # * inside an expression, and * outside a plain row context
    (_built("SELECT a FROM w", select_items=(Binary("+", Star(), Literal(1.0)),)),
     "rows", "EvalError"),
    (_built("SELECT a FROM w", select_items=(Binary("+", Star(), Literal(1.0)),)),
     "empty", "rows"),
    (_built("SELECT COUNT(*) FROM w", where=Binary("=", Star(), Literal(1.0))),
     "rows", "EvalError"),
    (_built("SELECT COUNT(*) FROM w", where=Binary("AND", Literal(0.0), Star())),
     "rows", "rows"),
    ("SELECT a, * FROM w", "rows", "rows"),
    ("SELECT *, COUNT(*) FROM w", "rows", "EvalError"),
    ("SELECT *", "rows", "EvalError"),
    # group context: a group with no representative row reads null, unlooked-up
    ("SELECT nosuch, COUNT(*) FROM w WHERE a = 99", "rows", "rows"),
    ("SELECT nosuch, COUNT(*) FROM w", "rows", "UnknownColumn"),
    ("SELECT COUNT(*) FROM w HAVING nosuch IS NULL", "empty", "rows"),
    ("SELECT b, MAX(a) FROM w", "rows", "rows"),
    ("SELECT b, MIN(a) FROM w", "rows", "rows"),
    ("SELECT b, MIN(a), MAX(a) FROM w", "rows", "rows"),
    ("SELECT b, MIN(a) FROM w GROUP BY b ORDER BY b", "rows", "rows"),
    ("SELECT a, COUNT(b) FROM w GROUP BY a HAVING COUNT(*) > 1", "rows", "rows"),
    ("SELECT a FROM w GROUP BY a ORDER BY COUNT(*) DESC, a", "rows", "rows"),
    # subqueries: wrong shapes, computed once and only when reached
    ("SELECT (SELECT a FROM w)", "rows", "EvalError"),
    ("SELECT (SELECT a, b FROM w WHERE a = 1)", "rows", "EvalError"),
    ("SELECT (SELECT a FROM w WHERE a = 99)", "rows", "rows"),
    ("SELECT a FROM w WHERE row_id < 0 AND (SELECT a FROM w) = 1", "rows", "rows"),
    ("SELECT a FROM w WHERE a = (SELECT MAX(a) FROM w)", "rows", "rows"),
    ("SELECT (SELECT (SELECT COUNT(*) FROM w) + 1)", "rows", "rows"),
    # LIMIT, DISTINCT and ORDER BY
    ("SELECT a FROM w LIMIT 2.5", "rows", "EvalError"),  # as from a call's reply
    (_built("SELECT a FROM w", limit=Literal("2.5")), "rows", "EvalError"),  # a call's reply
    (_built("SELECT a FROM w", limit=Literal("2.5")), "empty", "EvalError"),
    (_built("SELECT nosuch FROM w", limit=Literal("two")), "rows", "UnknownColumn"),
    ("SELECT a FROM w LIMIT 0", "rows", "rows"),
    ("SELECT DISTINCT a FROM w ORDER BY a DESC", "rows", "rows"),
    ("SELECT DISTINCT b FROM w ORDER BY a", "rows", "rows"),
    # '3' and '3.0' tie in the evaluator's order: the first one read wins
    ("SELECT MIN(DISTINCT s), MAX(DISTINCT s), MIN(s), COUNT(DISTINCT s) FROM w", "ties", "rows"),
    ("SELECT g, MIN(s), MAX(DISTINCT s) FROM w GROUP BY g", "ties", "rows"),
    ("SELECT DISTINCT s FROM w ORDER BY s", "ties", "rows"),
    # arithmetic, text coercion and three-valued logic
    ("SELECT a / 0, a % 0, -b, NOT b, b + 1 FROM w", "rows", "rows"),
    ("SELECT a = '3', a < 'x', b > 1, NULL = NULL FROM w", "rows", "rows"),
    ("SELECT a FROM w WHERE NOT (a > 1) OR (a > 1) IS NULL", "rows", "rows"),
]


@pytest.mark.parametrize("program, table, expected", LAZY_ERRORS, ids=[
    f"{p if isinstance(p, str) else 'built:' + p.source_text}-{t}" for p, t, _ in LAZY_ERRORS])
def test_lazy_errors_arise_where_the_walker_raised_them(program, table, expected):
    outcome = assert_same_outcome(program, TABLES[table])
    assert (outcome[0] if outcome[0] == "rows" else outcome[1].__name__) == expected
