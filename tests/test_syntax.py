from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from lmsql import (ApiCall, Answer, LexError, MockBackend, ParseError, RoleAmbiguity,
                   api_calls_bottom_up, assign_roles, parse, print_program,
                   run_program)
from lmsql import interp, syntax
from lmsql.syntax import (MAX_DEPTH, Aggregate, Binary, ColumnRef, Literal, ScalarSubquery,
                          children, map_children, tokenize)

from conftest import make_table
from corpus import EXEMPLAR_PROGRAMS
from randgen import make_random_table, random_query


def roundtrip(text: str):
    p1 = parse(text)
    printed = print_program(p1)
    p2 = parse(printed)
    assert p2.root == p1.root, f"round-trip changed AST for {text!r}"
    assert print_program(p2) == printed  # printing is idempotent
    return p1


# ---- lexer ----

def test_tokenize_api_call():
    kinds = [(t.kind, t.value) for t in tokenize('f("Points?";win_team)')]
    assert kinds == [
        ("ident", "f"), ("symbol", "("), ("string", "Points?"),
        ("symbol", ";"), ("ident", "win_team"), ("symbol", ")"), ("eof", ""),
    ]


def test_tokenize_minimal_query():
    kinds = [(t.kind, t.value) for t in tokenize("SELECT 1")]
    assert kinds == [("keyword", "SELECT"), ("number", "1"), ("eof", "")]


def test_tokenize_unterminated_string():
    with pytest.raises(LexError) as exc:
        tokenize("SELECT 'unterminated")
    assert exc.value.position == 7


def test_tokenize_illegal_char():
    with pytest.raises(LexError):
        tokenize("SELECT @")


def test_tokenize_covers_quotes_and_backticks():
    toks = tokenize("`signed from` 'it''s' \"q\"")
    assert toks[0].value == "signed from"
    assert toks[1].value == "it's"
    assert toks[2].value == "q"


# ---- parser ----

@pytest.mark.parametrize("text", EXEMPLAR_PROGRAMS)
def test_corpus_round_trip(text):
    roundtrip(text)


def test_parse_api_call_in_order_by():
    p = parse('SELECT member FROM w ORDER BY f("How long does it last?"; term) DESC LIMIT 1')
    (item,) = p.root.order_by
    assert isinstance(item.expr, ApiCall) and item.desc
    assert p.root.limit == Literal(1.0)


def test_parse_boolean_subquery():
    p = parse("SELECT (SELECT COUNT(place) FROM w WHERE is_uk = 'yes') = 8")
    (item,) = p.root.select_items
    assert isinstance(item, Binary) and item.op == "="
    assert isinstance(item.left, ScalarSubquery)
    assert p.root.from_table is None


def test_parse_plain_sql_has_no_calls():
    p = parse("SELECT year FROM w WHERE win_team='kansas state'")
    assert api_calls_bottom_up(p) == []


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as exc:
        parse("SELECT FROM w")
    assert exc.value.position == 7
    with pytest.raises(ParseError):
        parse("SELECT a FROM w JOIN v")
    with pytest.raises(ParseError):
        parse("SELECT a FROM w, v")


def test_parse_rejects_bad_api_calls():
    with pytest.raises(ParseError):
        parse('SELECT f(""; col) FROM w')  # empty question
    with pytest.raises(ParseError):
        parse('SELECT f("q"; 5) FROM w')  # literal argument
    with pytest.raises(ParseError):
        parse('SELECT f("q"; a + b) FROM w')  # arithmetic argument


def test_parse_rejects_aggregates_in_where():
    with pytest.raises(ParseError):
        parse("SELECT a FROM w WHERE COUNT(*) > 1")


def test_parse_like_needs_string_literal():
    with pytest.raises(ParseError):
        parse("SELECT a FROM w WHERE a LIKE b")


def test_bare_f_is_a_column_not_a_call():
    assert len(parse('SELECT f("q"; col) FROM w').calls) == 1
    # f without parens is an ordinary column
    assert parse("SELECT f FROM w").calls == ()


def test_parser_is_total_on_junk():
    for junk in ("", "SELECT", "WHERE", "SELECT a FROM", "SELECT (a", "f(", "42"):
        with pytest.raises(ParseError):
            parse(junk)


def test_print_canonicalizes():
    assert print_program(parse("select   year from w")) == "SELECT year FROM w"
    assert print_program(parse('SELECT f (  "Q" ;  col ) FROM w')) == 'SELECT f("Q"; col) FROM w'


def test_print_preserves_grouping():
    for text in ("SELECT a - (b - c) FROM w",
                 "SELECT (a + b) * c FROM w",
                 "SELECT NOT (a AND b) FROM w",
                 "SELECT a AND (b OR c) FROM w",
                 "SELECT (a > b) = 1 FROM w"):
        roundtrip(text)


def test_print_forced_and_nested_calls():
    roundtrip('SELECT f_val("V?"; a) FROM w')
    roundtrip('SELECT f("outer?"; f("inner?"; a), b) FROM w')
    roundtrip("SELECT a FROM w WHERE `weird name` = 'x'")


# ---- traversal ----

def _nodes(node):
    yield node
    for child in children(node):
        yield from _nodes(child)


def test_map_children_agrees_with_children():
    rng = random.Random(11)
    programs = [parse(text) for text in EXEMPLAR_PROGRAMS]
    for _ in range(200):
        table, num_cols, text_cols = make_random_table(rng)
        programs.append(parse(random_query(rng, num_cols, text_cols)[0]))
    programs += [assign_roles(p) for p in programs]
    seen_types = set()
    for p in programs:
        for node in _nodes(p.root):
            seen_types.add(type(node))
            assert map_children(node, lambda c: c) == node
            visited = []
            map_children(node, lambda c: visited.append(c) or c)
            assert [id(c) for c in visited] == [id(c) for c in children(node)]
    assert seen_types == set(syntax._TRAVERSALS)  # the corpus covers every node type


# ---- bottom-up enumeration ----

def test_bottom_up_nested_order():
    p = parse('SELECT f("Q1"; f("Q2"; c)) FROM w')
    calls = api_calls_bottom_up(p)
    assert [c.question for c in calls] == ["Q2", "Q1"]


def test_bottom_up_document_order():
    p = parse('SELECT year FROM t WHERE f("Points?";win_team) - f("Points?";los_team) > 10')
    calls = api_calls_bottom_up(p)
    assert len(calls) == 2
    assert calls[0].args[0] == ColumnRef("win_team")
    assert calls[1].args[0] == ColumnRef("los_team")


def test_bottom_up_count_matches_f_tokens():
    for text in EXEMPLAR_PROGRAMS:
        n_tokens = sum(1 for t in tokenize(text)
                       if t.kind == "ident" and t.value in ("f", "f_col", "f_val"))
        assert len(api_calls_bottom_up(parse(text))) == n_tokens


# ---- role assignment ----

def role_of(text: str, index: int = 0) -> str:
    p = assign_roles(parse(text))
    return api_calls_bottom_up(p)[index].role


def test_roles_map_positions():
    assert role_of("SELECT a FROM w WHERE f(\"Is it in united kingdom?\"; place) = 'yes'") == "map"
    assert role_of('SELECT a FROM w ORDER BY f("How long does it last?"; term) DESC') == "map"
    assert role_of('SELECT COUNT(f("q"; a)) FROM w') == "map"
    assert role_of('SELECT a FROM w GROUP BY f("q"; a)') == "map"


def test_roles_val_positions():
    assert role_of('SELECT f_val("The most formal?"; shirt)') == "val"
    assert role_of('SELECT a FROM w LIMIT f("how many?"; a)') == "val"
    assert role_of('SELECT a FROM w WHERE f("q"; a) = (SELECT MAX(b) FROM w)') == "val"


def test_roles_forced_and_ambiguous():
    assert role_of('SELECT f_col("q"; a) FROM w') == "map"
    with pytest.raises(RoleAmbiguity):
        assign_roles(parse('SELECT a FROM w LIMIT f_col("q"; a)'))
    with pytest.raises(RoleAmbiguity):
        assign_roles(parse('SELECT f("q"; f_val("v"; a)) FROM w'))


def test_roles_nested_inner_is_map():
    p = assign_roles(parse('SELECT f("Q1"; f("Q2"; c)) FROM w'))
    inner, outer = api_calls_bottom_up(p)
    assert inner.role == "map" and outer.role == "map"


def test_aggregate_distinct_round_trip():
    p = roundtrip("SELECT COUNT(DISTINCT a), SUM(b) FROM w GROUP BY c HAVING COUNT(*) > 1")
    agg = p.root.select_items[0]
    assert isinstance(agg, Aggregate) and agg.distinct


# ---- nesting cap ----

DEEP = {  # shape: (program nested n levels, an n far past the cap)
    "parentheses": (lambda n: "SELECT " + "(" * n + "a" + ")" * n + " FROM w", 400),
    "and-chain": (lambda n: "SELECT a FROM w WHERE a = 1" + " AND a = 1" * n, 1000),
    "not": (lambda n: "SELECT " + "NOT " * n + "a FROM w", 1000),
    "subqueries": (lambda n: "SELECT " + "(SELECT " * n + "MAX(a) FROM w" + ")" * n + " FROM w",
                   400),
    "calls": (lambda n: "SELECT " + 'f("q"; ' * n + "a" + ")" * n + " FROM w", 400),
    "minus": (lambda n: "SELECT " + "- " * n + "a FROM w", 400),
    # each chain sits one level below the next one out: fewer parentheses
    # than the cap, but a tree four times as deep
    "chains-in-parentheses": (lambda n: "SELECT " + "(" * n + "a" + " + a + a + a)" * n
                              + " FROM w", 50),
}


def assert_refused_by_cap(text: str) -> None:
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH}"):
        parse(text)


@pytest.mark.parametrize("shape", DEEP)
def test_nesting_past_the_cap_is_a_parse_error(shape):
    nested, far = DEEP[shape]
    assert_refused_by_cap(nested(far))


@pytest.mark.parametrize("text", [
    "SELECT a FROM w WHERE a IN (" + ", ".join(["1"] * 500) + ")",
    "SELECT " + ", ".join(['f("q"; a)'] * 200) + " FROM w",
    'SELECT f("q"; ' + ", ".join(['f("r"; a)'] * 200) + ") FROM w",
    "SELECT " + ", ".join(["(SELECT MAX(a) FROM w)"] * 200),
], ids=["in-list", "select-items", "call-args", "subqueries"])
def test_wide_programs_are_not_deep(text):
    parse(text)


EXECUTE_SQL_FRAMES = 300  # the most Python frames execute_sql may stack, of 1,000 allowed


def frames_of(fn, peaks: list):
    """fn, recording in peaks the most frames each call of it stacks."""
    def profiled(*args):
        depth = peak = 0

        def profile(frame, event, arg):
            nonlocal depth, peak
            if event == "call":
                depth += 1
                peak = max(peak, depth)
            elif event == "return":
                depth -= 1
        sys.setprofile(profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            peaks.append(peak)
    return profiled


@pytest.mark.parametrize("shape", DEEP)
def test_deepest_accepted_program_runs_on_a_worker(shape, monkeypatch):
    nested, _ = DEEP[shape]
    n = 1
    while True:  # the cap, not another error, ends the climb
        try:
            parse(nested(n + 1))
        except ParseError:
            assert_refused_by_cap(nested(n + 1))
            break
        n += 1
    assert n > 10
    table = make_table("w", ["a"], [["1"], ["2"]])
    backend = MockBackend([("regex", "", ["0\tx\n1\ty"])])

    def through_the_pipeline(text):
        program = parse(text)
        assert parse(print_program(program)).root == program.root
        print_program(assign_roles(program))
        return run_program(program, table, backend).answer

    peaks: list = []
    monkeypatch.setattr(interp, "execute_sql", frames_of(interp.execute_sql, peaks))
    with ThreadPoolExecutor(max_workers=1) as executor:
        answer = executor.submit(through_the_pipeline, nested(n)).result()
    assert isinstance(answer, Answer)
    assert len(peaks) == 1 and peaks[0] <= EXECUTE_SQL_FRAMES, peaks
