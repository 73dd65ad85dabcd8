"""Lexer, parser, AST and printer for the extended SQL dialect.

The dialect is a single-table SQL subset plus model-call expressions
f("question"; col, ...) accepted wherever a column or value may appear,
including nested inside another call's arguments. f_col / f_val force the
column/scalar reading; bare f gets its role from its position. See
docs/grammar.md for the full grammar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from .errors import LexError, ParseError, RoleAmbiguity
from .table import format_number

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "ASC", "DESC", "LIMIT", "AND", "OR", "NOT", "LIKE", "IN",
    "IS", "NULL",
}
AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
CALL_NAMES = {"f": None, "f_col": "map", "f_val": "val"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol><>|!=|<=|>=|[()=<>,;*+\-/%])
  | (?P<string>'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))  # a doubled quote escapes
  | (?P<quoted>`[^`]*`)
    """,
    re.VERBOSE,
)
_UNMATCHED = {"'": "unterminated string literal", '"': "unterminated string literal",
              "`": "unterminated quoted identifier"}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | ident | number | string | symbol | eof
    value: str
    pos: int

    def matches(self, *values: str) -> bool:
        """A keyword or symbol among values. A keyword's value is an
        upper-case word and a symbol's is punctuation, so the value names
        the kind."""
        return self.kind in ("keyword", "symbol") and self.value in values


def tokenize(text: str) -> list:
    """Lex the full input; raises LexError with the character offset."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if not m:
            ch = text[i]
            raise LexError(_UNMATCHED.get(ch, f"illegal character {ch!r}"), i)
        kind, value = m.lastgroup, m.group()
        if kind == "string":
            value = value[1:-1].replace(value[0] * 2, value[0])
        elif kind == "quoted":
            kind, value = "ident", value[1:-1]
        elif kind == "ident" and value.upper() in KEYWORDS:
            kind, value = "keyword", value.upper()
        if kind != "ws":
            tokens.append(Token(kind, value, i))
        i = m.end()
    tokens.append(Token("eof", "", n))
    return tokens


# ---- AST ----

@dataclass(frozen=True)
class _Node:
    """The source offset of a node, -1 if built by hand; trees that differ
    only in positions are equal. Keyword-only, so each node's own fields
    keep their positional order."""
    pos: int = field(default=-1, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Literal(_Node):
    value: object  # None | float | str


@dataclass(frozen=True)
class ColumnRef(_Node):
    name: str


@dataclass(frozen=True)
class Star(_Node):
    """`*` as a select item or the argument of COUNT(*)."""


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # '-' | 'NOT'
    operand: object


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # + - * / % = != <> < <= > >= AND OR LIKE 'NOT LIKE'
    left: object
    right: object


@dataclass(frozen=True)
class InList(_Node):
    subject: object
    items: tuple
    negated: bool = False


@dataclass(frozen=True)
class IsNull(_Node):
    subject: object
    negated: bool = False


@dataclass(frozen=True)
class Aggregate(_Node):
    func: str  # COUNT SUM AVG MIN MAX
    arg: object  # an expression, or Star
    distinct: bool = False


@dataclass(frozen=True)
class ScalarSubquery(_Node):
    query: "Query"


@dataclass(frozen=True)
class ApiCall(_Node):
    question: str
    args: tuple  # ColumnRef | ApiCall, non-empty
    role: Optional[str] = None  # 'map' | 'val', assigned by assign_roles
    forced: bool = False  # surface form was f_col / f_val


@dataclass(frozen=True)
class OrderItem:
    expr: object
    desc: bool = False


@dataclass(frozen=True)
class Query(_Node):
    select_items: tuple
    distinct: bool = False
    from_table: Optional[str] = None
    where: Optional[object] = None
    group_by: tuple = ()
    having: Optional[object] = None
    order_by: tuple = ()  # OrderItem
    limit: Optional[object] = None  # Literal(number) | ApiCall


@dataclass(frozen=True)
class Program:
    root: Query
    source_text: str = field(default="", compare=False, repr=False)

    @cached_property
    def calls(self) -> tuple:
        """All ApiCall nodes, arguments before the calls that use them,
        siblings in document order; collected once per program."""
        out: list = []
        _collect_calls(self.root, out)
        return tuple(out)


# ---- traversal ----
# Every tree walk goes through children/map_children, so a new node type
# needs an entry in _TRAVERSALS, print_expr, _prec and the evaluator only.

def _query_children(q: Query) -> tuple:
    out = list(q.select_items)
    if q.where is not None:
        out.append(q.where)
    out.extend(q.group_by)
    if q.having is not None:
        out.append(q.having)
    out.extend(o.expr for o in q.order_by)
    if q.limit is not None:
        out.append(q.limit)
    return tuple(out)


def _map_query(q: Query, fn) -> Query:
    return replace(
        q,
        select_items=tuple(fn(e) for e in q.select_items),
        where=None if q.where is None else fn(q.where),
        group_by=tuple(fn(g) for g in q.group_by),
        having=None if q.having is None else fn(q.having),
        order_by=tuple(replace(o, expr=fn(o.expr)) for o in q.order_by),
        limit=None if q.limit is None else fn(q.limit),
    )


_LEAF = (lambda n: (), lambda n, fn: n)

# node type -> (children, map_children)
_TRAVERSALS = {
    Literal: _LEAF,
    ColumnRef: _LEAF,
    Star: _LEAF,
    Unary: (lambda n: (n.operand,),
            lambda n, fn: replace(n, operand=fn(n.operand))),
    Binary: (lambda n: (n.left, n.right),
             lambda n, fn: replace(n, left=fn(n.left), right=fn(n.right))),
    InList: (lambda n: (n.subject, *n.items),
             lambda n, fn: replace(n, subject=fn(n.subject),
                                   items=tuple(fn(x) for x in n.items))),
    IsNull: (lambda n: (n.subject,),
             lambda n, fn: replace(n, subject=fn(n.subject))),
    Aggregate: (lambda n: (n.arg,),
                lambda n, fn: replace(n, arg=fn(n.arg))),
    ScalarSubquery: (lambda n: (n.query,),
                     lambda n, fn: replace(n, query=fn(n.query))),
    ApiCall: (lambda n: n.args,
              lambda n, fn: replace(n, args=tuple(fn(a) for a in n.args))),
    Query: (_query_children, _map_query),
}


def children(node) -> tuple:
    """Direct sub-nodes of an expression or Query, in document order. A
    Query's children are its clause expressions: select items, WHERE,
    GROUP BY, HAVING, ORDER BY expressions, then LIMIT."""
    return _TRAVERSALS[type(node)][0](node)


def map_children(node, fn):
    """A copy of node with each direct sub-node c replaced by fn(c); fn is
    called on children(node) in order. Leaves come back unchanged."""
    return _TRAVERSALS[type(node)][1](node, fn)


def aggregates(expr) -> list:
    """Aggregate nodes of expr at its own query level, in document order;
    aggregate arguments and subqueries are not searched."""
    if isinstance(expr, Aggregate):
        return [expr]
    if isinstance(expr, ScalarSubquery):
        return []
    return [a for c in children(expr) for a in aggregates(c)]


# ---- parser ----

# Operator levels, loosest first: the parser climbs them and the printer
# parenthesizes by them. Prefix NOT sits between AND and the comparisons,
# unary minus above every binary operator.
_NOT, _COMPARE, _NEGATE = 3, 4, 7
_PREC = {
    "OR": 1, "AND": 2,
    **dict.fromkeys(("=", "!=", "<>", "<", "<=", ">", ">=",
                     "LIKE", "NOT LIKE", "IN", "IS"), _COMPARE),
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
# Deepest nesting a program may have, counting parentheses, prefix operators,
# operators chained on the left and model calls. Tree walks recurse once per
# level: at this depth the deepest one (nested subqueries through
# execute_sql) stays under half the default recursion limit. The fixtures
# and the generated benchmark programs reach depth 5.
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # parse_expr and model-call levels open at the cursor
        self.high = 0  # deepest level reached in the expression being parsed

    def peek(self, offset: int = 0) -> Token:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, expected=()) -> ParseError:
        return ParseError(message, self.peek().pos, expected)

    def expect(self, value: str) -> Token:
        if not self.peek().matches(value):
            raise self.error(f"got {self.peek().value or 'end of input'!r}", [value])
        return self.advance()

    def accept(self, *values: str) -> Optional[Token]:
        if self.peek().matches(*values):
            return self.advance()
        return None

    def comma_list(self, parse_item) -> tuple:
        """parse_item(), then again after each comma."""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        return tuple(items)

    def at_call(self) -> bool:
        """The cursor is at the name of a model call."""
        tok = self.peek()
        return tok.kind == "ident" and tok.value in CALL_NAMES and self.peek(1).matches("(")

    # program := query [';'] EOF
    def parse_program(self) -> Program:
        q = self.parse_query()
        self.accept(";")
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().value!r}")
        return Program(q, self.text)

    def parse_query(self) -> Query:
        start = self.expect("SELECT")
        distinct = bool(self.accept("DISTINCT"))
        items = self.comma_list(self.parse_select_item)
        from_table = None
        if self.accept("FROM"):
            tok = self.peek()
            if tok.kind != "ident":
                raise self.error("FROM needs a table name", ["table name"])
            from_table = self.advance().value
            nxt = self.peek()
            if nxt.matches(",") or (nxt.kind == "ident" and nxt.value.upper() in
                                   ("JOIN", "INNER", "LEFT", "RIGHT", "CROSS", "OUTER", "AS", "ON")):
                raise ParseError("joins and table aliases are not supported; query the single table",
                                 nxt.pos)
        where = self.parse_expr() if self.accept("WHERE") else None
        group_by: tuple = ()
        if self.accept("GROUP"):
            self.expect("BY")
            group_by = self.comma_list(self.parse_expr)
        having = self.parse_expr() if self.accept("HAVING") else None
        order_by: tuple = ()
        if self.accept("ORDER"):
            self.expect("BY")
            order_by = self.comma_list(self.parse_order_item)
        limit = None
        if self.accept("LIMIT"):
            limit = self.parse_limit_value()
        q = Query(items, distinct, from_table, where, group_by, having, order_by, limit,
                  pos=start.pos)
        _check_aggregate_placement(q)
        return q

    def parse_select_item(self):
        tok = self.peek()
        if tok.matches("*"):
            self.advance()
            return Star(pos=tok.pos)
        return self.parse_expr()

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        if self.accept("DESC"):
            return OrderItem(expr, desc=True)
        self.accept("ASC")
        return OrderItem(expr, desc=False)

    def parse_limit_value(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal(float(tok.value), pos=tok.pos)
        if self.at_call():
            return self.parse_api_call()
        raise self.error("LIMIT needs an integer or a model call", ["number"])

    def nest(self, depth: int) -> None:
        """Note that the tree reaches `depth` levels down; past MAX_DEPTH the
        program is refused, so no later walk of it can exhaust the stack."""
        self.high = max(self.high, depth)
        if self.high > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH}")

    def parse_expr(self, min_prec: int = 1):
        """An expression whose operators all bind at level min_prec or
        tighter, by precedence climbing over _PREC."""
        outer_high, self.high = self.high, 0
        self.depth += 1
        self.nest(self.depth)
        tok = self.peek()
        if tok.matches("-") or (tok.matches("NOT") and min_prec <= _NOT):
            self.advance()
            prec = _NEGATE if tok.value == "-" else _NOT
            left = Unary(tok.value, self.parse_expr(prec), pos=tok.pos)
        else:
            prec, left = _NEGATE, self.parse_primary()
        limit = prec + 1  # after a level-p operator, only looser ones follow
        while True:
            tok = self.peek()
            negated = tok.matches("NOT") and self.peek(1).matches("LIKE", "IN")
            if negated:
                tok = self.peek(1)
            prec = _PREC.get(tok.value, 0) if tok.kind in ("symbol", "keyword") else 0
            if not min_prec <= prec < limit:
                break
            self.i += 2 if negated else 1
            self.nest(self.high + 1)  # the chain so far moves one level down
            if tok.value == "IN":
                self.expect("(")
                items = self.comma_list(self.parse_expr)
                self.expect(")")
                left = InList(left, items, negated, pos=tok.pos)
            elif tok.value == "IS":
                neg = bool(self.accept("NOT"))
                self.expect("NULL")
                left = IsNull(left, neg, pos=tok.pos)
            else:
                right = self.parse_expr(prec + 1)
                if tok.value == "LIKE" and not (isinstance(right, Literal)
                                                and isinstance(right.value, str)):
                    raise ParseError("LIKE pattern must be a string literal", tok.pos)
                op = "NOT LIKE" if negated else "!=" if tok.value == "<>" else tok.value
                left = Binary(op, left, right, pos=tok.pos)
            limit = prec if prec == _COMPARE else prec + 1  # comparisons do not chain
        self.depth -= 1
        self.high = max(self.high, outer_high)
        return left

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.value)
            if not math.isfinite(value):  # the evaluator computes with finite numbers only
                raise ParseError(f"number {tok.value} is beyond float range", tok.pos)
            return Literal(value, pos=tok.pos)
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value, pos=tok.pos)
        if tok.matches("NULL"):
            self.advance()
            return Literal(None, pos=tok.pos)
        if tok.matches("("):
            self.advance()
            if self.peek().matches("SELECT"):
                q = self.parse_query()
                self.expect(")")
                return ScalarSubquery(q, pos=tok.pos)
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if self.at_call():
                return self.parse_api_call()
            if tok.value.upper() in AGGREGATES and self.peek(1).matches("("):
                return self.parse_aggregate()
            self.advance()
            return ColumnRef(tok.value, pos=tok.pos)
        raise self.error(f"got {tok.value or 'end of input'!r}", ["expression"])

    def parse_aggregate(self) -> Aggregate:
        name = self.advance()
        func = name.value.upper()
        self.expect("(")
        if self.accept("*"):
            if func != "COUNT":
                raise ParseError(f"{func}(*) is not supported", name.pos)
            self.expect(")")
            return Aggregate(func, Star(), pos=name.pos)
        distinct = bool(self.accept("DISTINCT"))
        arg = self.parse_expr()
        self.expect(")")
        return Aggregate(func, arg, distinct, pos=name.pos)

    def parse_api_call(self) -> ApiCall:
        name = self.advance()
        self.depth += 1
        self.nest(self.depth)
        self.expect("(")
        qtok = self.peek()
        if qtok.kind != "string":
            raise self.error("model call needs a quoted question", ["string"])
        self.advance()
        if not qtok.value.strip():
            raise ParseError("model-call question must be non-empty", qtok.pos)
        self.expect(";")
        args = self.comma_list(self.parse_call_arg)
        self.expect(")")
        self.depth -= 1
        forced_role = CALL_NAMES[name.value]
        return ApiCall(qtok.value, args, role=forced_role,
                       forced=forced_role is not None, pos=name.pos)

    def parse_call_arg(self):
        if self.at_call():
            return self.parse_api_call()
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return ColumnRef(tok.value, pos=tok.pos)
        raise self.error("model-call arguments must be columns or nested calls",
                         ["column", "f(...)"])


def _check_aggregate_placement(q: Query) -> None:
    if q.where is not None and aggregates(q.where):
        raise ParseError("aggregates are not allowed in WHERE", q.where.pos)
    for g in q.group_by:
        if aggregates(g):
            raise ParseError("aggregates are not allowed in GROUP BY", g.pos)


def parse(text: str) -> Program:
    """Parse source text into a Program; ParseError carries the offset."""
    return _Parser(text).parse_program()


# ---- canonical printer ----

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _print_ident(name: str) -> str:
    if _IDENT_RE.fullmatch(name) and name.upper() not in KEYWORDS:
        return name
    return f"`{name}`"


def _prec(expr) -> int:
    if isinstance(expr, Binary):
        return _PREC[expr.op]
    if isinstance(expr, (InList, IsNull)):
        return _COMPARE
    if isinstance(expr, Unary):
        return _NOT if expr.op == "NOT" else _NEGATE
    return 9


def _print_child(expr, parent_prec: int, allow_equal: bool) -> str:
    text = print_expr(expr)
    child = _prec(expr)
    if child < parent_prec or (child == parent_prec and not allow_equal):
        return f"({text})"
    return text


def print_expr(expr) -> str:
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, float):
            return format_number(expr.value)
        return "'" + str(expr.value).replace("'", "''") + "'"
    if isinstance(expr, ColumnRef):
        return _print_ident(expr.name)
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, Unary):
        if expr.op == "NOT":
            return "NOT " + _print_child(expr.operand, _NOT, allow_equal=True)
        # "- -x", not "-(-x)": each parenthesis is a nesting level, and a
        # printed program must parse back under MAX_DEPTH
        operand = _print_child(expr.operand, _NEGATE, allow_equal=True)
        return ("- " if operand.startswith("-") else "-") + operand
    if isinstance(expr, Binary):
        prec = _PREC[expr.op]
        left = _print_child(expr.left, prec, allow_equal=prec != _COMPARE)
        right = _print_child(expr.right, prec, allow_equal=False)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, InList):
        subject = _print_child(expr.subject, _COMPARE, allow_equal=False)
        items = ", ".join(print_expr(x) for x in expr.items)
        return f"{subject} {'NOT IN' if expr.negated else 'IN'} ({items})"
    if isinstance(expr, IsNull):
        subject = _print_child(expr.subject, _COMPARE, allow_equal=False)
        return f"{subject} IS {'NOT ' if expr.negated else ''}NULL"
    if isinstance(expr, Aggregate):
        if isinstance(expr.arg, Star):
            return f"{expr.func}(*)"
        inner = print_expr(expr.arg)
        return f"{expr.func}({'DISTINCT ' if expr.distinct else ''}{inner})"
    if isinstance(expr, ScalarSubquery):
        return f"({print_query(expr.query)})"
    if isinstance(expr, ApiCall):
        name = {None: "f", "map": "f_col", "val": "f_val"}[expr.role] if expr.forced else "f"
        question = '"' + expr.question.replace('"', '""') + '"'
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{name}({question}; {args})"
    raise TypeError(f"cannot print {type(expr).__name__}")


def print_query(q: Query) -> str:
    parts = ["SELECT"]
    if q.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(print_expr(item) for item in q.select_items))
    if q.from_table is not None:
        parts.append(f"FROM {_print_ident(q.from_table)}")
    if q.where is not None:
        parts.append(f"WHERE {print_expr(q.where)}")
    if q.group_by:
        parts.append("GROUP BY " + ", ".join(print_expr(g) for g in q.group_by))
    if q.having is not None:
        parts.append(f"HAVING {print_expr(q.having)}")
    if q.order_by:
        keys = ", ".join(print_expr(o.expr) + (" DESC" if o.desc else "") for o in q.order_by)
        parts.append(f"ORDER BY {keys}")
    if q.limit is not None:
        parts.append(f"LIMIT {print_expr(q.limit)}")
    return " ".join(parts)


def print_program(p: Program) -> str:
    """Canonical single-line rendering; parse(print_program(p)) equals p
    structurally."""
    return print_query(p.root)


# ---- model calls ----

def _collect_calls(node, out: list) -> None:
    for child in children(node):
        _collect_calls(child, out)
    if isinstance(node, ApiCall):
        out.append(node)


def api_calls_bottom_up(p: Program) -> list:
    """All ApiCall nodes, arguments before the calls that use them, siblings
    in document order."""
    return list(p.calls)


# ---- role assignment ----

def _assign(node, scalar_ctx: bool = False):
    """Give every call below node its role; scalar_ctx marks a position that
    takes a single value."""
    kind = type(node)
    if kind is ApiCall:
        if node.forced:
            if scalar_ctx and node.role == "map":
                raise RoleAmbiguity(
                    f'f_col("{node.question}"; ...) sits where a single value is required')
            role = node.role
        else:
            role = "val" if scalar_ctx else "map"
        args = tuple(_assign(a) for a in node.args)
        for a in args:
            if isinstance(a, ApiCall) and a.role == "val":
                raise RoleAmbiguity(
                    f'f_val("{a.question}"; ...) cannot supply a context column')
        return replace(node, role=role, args=args)
    if kind is Binary and node.op in ("=", "!=", "<", "<=", ">", ">="):
        # a side compared with a scalar subquery is a single value
        return replace(node, left=_assign(node.left, isinstance(node.right, ScalarSubquery)),
                       right=_assign(node.right, isinstance(node.left, ScalarSubquery)))
    if kind is Query and node.limit is not None:
        # LIMIT takes a single value
        rest = map_children(replace(node, limit=None), _assign)
        return replace(rest, limit=_assign(node.limit, True))
    return map_children(node, _assign)


def assign_roles(p: Program) -> Program:
    """Tag every model call as a per-row column (map) or single value (val)
    based on its position; f_col/f_val surface forms win. A program without
    calls comes back as the same object."""
    if not p.calls:
        return p
    return Program(_assign(p.root), p.source_text)
