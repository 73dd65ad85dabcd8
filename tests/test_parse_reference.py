"""Property test: the precedence-climbing expression parser builds the trees,
positions included, and raises the errors of the parser it replaced, which
had one method per precedence level."""

from __future__ import annotations

import dataclasses
import random

from hypothesis import event, given, settings, strategies as st

from lmsql import ParseError
from lmsql.syntax import Binary, InList, IsNull, Literal, Unary, _Parser, tokenize

from corpus import EXEMPLAR_PROGRAMS
from randgen import VOCAB, make_random_table, random_query


class ReferenceParser(_Parser):
    """The expression grammar as it was: OR < AND < NOT < comparison <
    additive < multiplicative < unary. Everything else is shared."""

    def parse_expr(self, min_prec: int = 1):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while True:
            tok = self.accept_kw("OR")
            if not tok:
                return left
            left = Binary("OR", left, self.parse_and(), pos=tok.pos)

    def parse_and(self):
        left = self.parse_not()
        while True:
            tok = self.accept_kw("AND")
            if not tok:
                return left
            left = Binary("AND", left, self.parse_not(), pos=tok.pos)

    def parse_not(self):
        tok = self.accept_kw("NOT")
        if tok:
            return Unary("NOT", self.parse_not(), pos=tok.pos)
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_additive()
        tok = self.peek()
        if tok.is_sym("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if tok.value == "<>" else tok.value
            return Binary(op, left, self.parse_additive(), pos=tok.pos)
        negated = False
        if tok.is_kw("NOT") and self.peek(1).is_kw("LIKE", "IN"):
            self.advance()
            negated = True
            tok = self.peek()
        if tok.is_kw("LIKE"):
            self.advance()
            pattern = self.parse_additive()
            if not (isinstance(pattern, Literal) and isinstance(pattern.value, str)):
                raise ParseError("LIKE pattern must be a string literal", tok.pos)
            return Binary("NOT LIKE" if negated else "LIKE", left, pattern, pos=tok.pos)
        if tok.is_kw("IN"):
            self.advance()
            self.expect_sym("(")
            items = [self.parse_expr()]
            while self.accept_sym(","):
                items.append(self.parse_expr())
            self.expect_sym(")")
            return InList(left, tuple(items), negated, pos=tok.pos)
        if negated:
            raise self.error("dangling NOT", ["LIKE", "IN"])
        if tok.is_kw("IS"):
            self.advance()
            neg = bool(self.accept_kw("NOT"))
            self.expect_kw("NULL")
            return IsNull(left, neg, pos=tok.pos)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while True:
            tok = self.accept_sym("+", "-")
            if not tok:
                return left
            left = Binary(tok.value, left, self.parse_multiplicative(), pos=tok.pos)

    def parse_multiplicative(self):
        left = self.parse_unary()
        while True:
            tok = self.accept_sym("*", "/", "%")
            if not tok:
                return left
            left = Binary(tok.value, left, self.parse_unary(), pos=tok.pos)

    def parse_unary(self):
        tok = self.accept_sym("-")
        if tok:
            return Unary("-", self.parse_unary(), pos=tok.pos)
        return self.parse_primary()


def _dump(x):
    """x as nested tuples with every field, pos included (AST equality
    ignores positions)."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                *((f.name, _dump(getattr(x, f.name))) for f in dataclasses.fields(x)))
    if isinstance(x, tuple):
        return tuple(_dump(y) for y in x)
    return x


def _outcome(parser, text: str):
    try:
        return "tree", _dump(parser(text).parse_program())
    except ParseError as e:
        return "error", type(e), str(e), e.position, e.expected


def assert_same_parse(text: str) -> str:
    expected = _outcome(ReferenceParser, text)
    assert _outcome(_Parser, text) == expected, text
    return expected[0]


KEYWORDS = ["SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "ORDER BY", "DESC", "LIMIT",
            "DISTINCT", "AND", "OR", "NOT", "LIKE", "IN", "IS", "NULL"]
SYMBOLS = ["(", ")", ",", ";"]
BINARY = ["OR", "AND", "=", "!=", "<>", "<", "<=", ">", ">=", "LIKE", "NOT LIKE", "IN",
          "NOT IN", "IS", "IS NOT", "+", "-", "*", "/", "%"]
OPERANDS = ["a", "b", "1", "2.5", "'x%'", "'y'", "NULL", "COUNT(*)", "SUM(a)", 'f("q"; a)',
            "(b)", "(SELECT a FROM w)", "(1, 2)", "'AND'", "`-`"]
PREFIXES = ["NOT", "-", "("]
TOKENS = KEYWORDS + SYMBOLS + BINARY + OPERANDS


@st.composite
def token_strings(draw):
    """Operands and operators taking turns, with prefix operators, brackets
    and one token in eight drawn from the whole vocabulary."""
    words = ["SELECT"]
    for k in range(draw(st.integers(0, 16))):
        if draw(st.integers(0, 7)) == 0:
            pool = TOKENS
        elif k % 2:
            pool = BINARY + SYMBOLS
        else:
            pool = OPERANDS + PREFIXES
        words.append(draw(st.sampled_from(pool)))
    return " ".join(words)


@settings(max_examples=500, deadline=None)
@given(token_strings())
def test_token_strings_parse_as_before(text):
    event(assert_same_parse(text))


def _render(tok) -> str:
    if tok.kind == "string":
        return "'" + tok.value.replace("'", "''") + "'"
    return f"`{tok.value}`" if tok.kind == "ident" and not tok.value.isidentifier() else tok.value


@st.composite
def mutated_queries(draw):
    """A generated or exemplar program with one token deleted, inserted or
    swapped with another, or left as it is."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        _, num_cols, text_cols = make_random_table(rng)
        text = random_query(rng, num_cols, text_cols)[0]
    else:
        text = draw(st.sampled_from(EXEMPLAR_PROGRAMS))
    words = [_render(t) for t in tokenize(text)[:-1]]
    i = draw(st.integers(0, len(words) - 1))
    edit = draw(st.sampled_from(["none", "delete", "insert", "swap"]))
    if edit == "delete":
        del words[i]
    elif edit == "insert":
        words.insert(i, draw(st.sampled_from(TOKENS + [f"'{w}'" for w in VOCAB])))
    elif edit == "swap":
        j = draw(st.integers(0, len(words) - 1))
        words[i], words[j] = words[j], words[i]
    event(f"edit: {edit}")
    return " ".join(words)


@settings(max_examples=500, deadline=None)
@given(mutated_queries())
def test_mutated_queries_parse_as_before(text):
    event(assert_same_parse(text))


def test_every_precedence_pairing_parses_as_before():
    # each binary operator next to each other one, with and without prefix
    # operators and grouping: the cases a random draw may miss
    binary = ["OR", "AND", "=", "<>", "<", "LIKE", "NOT LIKE", "IN", "IS", "+", "-", "*", "%"]
    for p in binary:
        # an operator's name quoted is an operand
        assert_same_parse(f"SELECT a '{p}' b FROM w")
        assert_same_parse(f"SELECT a `{p}` b FROM w")
        for q in binary:
            for text in (f"a {p} 'x' {q} 'y'", f"NOT a {p} b {q} c", f"- a {p} b {q} - c",
                         f"(a {p} b) {q} c", f"a {p} (b {q} c)", f"a {p} NOT b {q} c",
                         f"a {p} b IS NOT NULL {q} c", f"a IN (b) {p} c {q} d"):
                assert_same_parse(f"SELECT {text} FROM w")
