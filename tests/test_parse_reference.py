"""Property tests: the precedence-climbing expression parser builds the trees,
positions included, and raises the errors of the parser it replaced, which
had one method per precedence level; and the one-regex lexer gives the
tokens and errors of the lexer it replaced, which scanned quotes by hand."""

from __future__ import annotations

import dataclasses
import random
import re

from hypothesis import event, example, given, settings, strategies as st

from lmsql import LexError, ParseError
from lmsql.syntax import (KEYWORDS, Binary, InList, IsNull, Literal, Token, Unary, _Parser,
                          tokenize)

from corpus import EXEMPLAR_PROGRAMS
from randgen import VOCAB, make_random_table, random_query


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol><>|!=|<=|>=|[()=<>,;*+\-/%])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list:
    """The lexer as it was: strings and quoted identifiers scanned by hand,
    every other token by a regex without quote groups."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "'\"":
            value, i2 = _reference_lex_string(text, i)
            tokens.append(Token("string", value, i))
            i = i2
            continue
        if ch == "`":
            end = text.find("`", i + 1)
            if end < 0:
                raise LexError("unterminated quoted identifier", i)
            tokens.append(Token("ident", text[i + 1:end], i))
            i = end + 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, i)
        if not m:
            raise LexError(f"illegal character {ch!r}", i)
        if m.lastgroup == "ws":
            i = m.end()
            continue
        value = m.group()
        if m.lastgroup == "ident" and value.upper() in KEYWORDS:
            tokens.append(Token("keyword", value.upper(), i))
        else:
            tokens.append(Token(m.lastgroup, value, i))
        i = m.end()
    tokens.append(Token("eof", "", n))
    return tokens


def _reference_lex_string(text: str, start: int):
    quote = text[start]
    out = []
    i = start + 1
    while i < len(text):
        ch = text[i]
        if ch == quote:
            if i + 1 < len(text) and text[i + 1] == quote:  # doubled quote escape
                out.append(quote)
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise LexError("unterminated string literal", start)


def _lexed(lex, text: str):
    try:
        return "tokens", [(t.kind, t.value, t.pos) for t in lex(text)]
    except LexError as e:
        return "error", str(e), e.position


# quotes, doubled quotes and backticks in every mix, among the other tokens
LEX_PIECES = ["'", '"', "`", "''", '""', "'", '"', "`", "a", "Z_9", "select", "In", "0",
              "7.", ".5", "1e3", "<", "<>", "!=", ">=", "=", "-", "(", ")", ",", ";", "!",
              "@", " ", "\t", "\n", "é"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=24).map("".join))
# a quote closes a string only when no quote follows it
@example("'abc''")
@example('"x"""')
@example("'a'' b'")
@example("`a``b`")
def test_lexer_matches_reference(text):
    expected = _lexed(reference_tokenize, text)
    event(expected[0])
    assert _lexed(tokenize, text) == expected, text


class ReferenceParser(_Parser):
    """The expression grammar as it was: OR < AND < NOT < comparison <
    additive < multiplicative < unary. Everything else is shared."""

    def parse_expr(self, min_prec: int = 1):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while True:
            tok = self.accept("OR")
            if not tok:
                return left
            left = Binary("OR", left, self.parse_and(), pos=tok.pos)

    def parse_and(self):
        left = self.parse_not()
        while True:
            tok = self.accept("AND")
            if not tok:
                return left
            left = Binary("AND", left, self.parse_not(), pos=tok.pos)

    def parse_not(self):
        tok = self.accept("NOT")
        if tok:
            return Unary("NOT", self.parse_not(), pos=tok.pos)
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_additive()
        tok = self.peek()
        if tok.matches("=", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = "!=" if tok.value == "<>" else tok.value
            return Binary(op, left, self.parse_additive(), pos=tok.pos)
        negated = False
        if tok.matches("NOT") and self.peek(1).matches("LIKE", "IN"):
            self.advance()
            negated = True
            tok = self.peek()
        if tok.matches("LIKE"):
            self.advance()
            pattern = self.parse_additive()
            if not (isinstance(pattern, Literal) and isinstance(pattern.value, str)):
                raise ParseError("LIKE pattern must be a string literal", tok.pos)
            return Binary("NOT LIKE" if negated else "LIKE", left, pattern, pos=tok.pos)
        if tok.matches("IN"):
            self.advance()
            self.expect("(")
            items = [self.parse_expr()]
            while self.accept(","):
                items.append(self.parse_expr())
            self.expect(")")
            return InList(left, tuple(items), negated, pos=tok.pos)
        if negated:
            raise self.error("dangling NOT", ["LIKE", "IN"])
        if tok.matches("IS"):
            self.advance()
            neg = bool(self.accept("NOT"))
            self.expect("NULL")
            return IsNull(left, neg, pos=tok.pos)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while True:
            tok = self.accept("+", "-")
            if not tok:
                return left
            left = Binary(tok.value, left, self.parse_multiplicative(), pos=tok.pos)

    def parse_multiplicative(self):
        left = self.parse_unary()
        while True:
            tok = self.accept("*", "/", "%")
            if not tok:
                return left
            left = Binary(tok.value, left, self.parse_unary(), pos=tok.pos)

    def parse_unary(self):
        tok = self.accept("-")
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
