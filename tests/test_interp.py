from __future__ import annotations

import gc
import math
import re
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from lmsql import (Answer, Backend, BadResponse, CompletionRequest, EvalError,
                   MalformedResponse, MockBackend, NullBackend, ResolutionError,
                   build_map_prompt, default_exec_demos,
                   execute_sql, parse, parse_map_response, retrieve_exec_demos,
                   run_program)
from lmsql import cli, syntax
from lmsql.interp import (ExecDemo, _fields, _profile, _similarity, build_val_prompt,
                          resolve_call)
from lmsql.syntax import api_calls_bottom_up, assign_roles

from conftest import RecordingBackend, fixture_path, make_table
from corpus import EXEMPLAR_PROGRAMS

def tagged_calls(text: str):
    p = assign_roles(parse(text))
    return p, api_calls_bottom_up(p)


# ---- prompt building ----

def test_map_prompt_matches_golden(hometown):
    golden = fixture_path("golden/map_prompt_hometown.txt").read_text(encoding="utf-8")
    assert build_map_prompt("Is it from alabama?", hometown, []) == golden


def test_map_prompt_with_demo_matches_golden(hometown):
    golden = fixture_path("golden/map_prompt_hometown_with_demo.txt").read_text(encoding="utf-8")
    feet = default_exec_demos()[0]
    assert build_map_prompt("Is it from alabama?", hometown, [feet]) == golden


def test_map_prompt_two_context_columns():
    t = make_table("two", ["a", "b"], [["x", "y"]])
    prompt = build_map_prompt("q?", t, [])
    assert "row_id\ta\tb\n0\tx\ty" in prompt


def test_val_prompt_shape(hometown):
    prompt = build_val_prompt("The most formal?", hometown)
    assert prompt.endswith('Q: The most formal?\nA:')
    assert "row by row" not in prompt


# ---- response parsing ----

ALABAMA_BLOCK = (
    "/*\n"
    "row_id\thometown\tIs it from alabama?\n"
    "0\tchicago, il, u.s.\tno\n"
    "1\toklahoma city, ok, u.s.\tno\n"
    "2\tmontgomery, al, u.s.\tyes\n"
    "3\tgreenville, ms, u.s.\tno\n"
    "4.\tbirmingham, al, u.s.\tyes\n"  # trailing dot on the row id tolerated
    "*/"
)


def shown(rows: int):
    """A sub-table of row_id and one column, as a map prompt shows it."""
    return make_table("t", ["c"], [["x"]] * rows)


def test_parse_map_response_alabama():
    col = parse_map_response(ALABAMA_BLOCK, shown(5), "Is it from alabama?")
    assert col.cells == ("no", "no", "yes", "no", "yes")
    assert col.name == "Is it from alabama?"


def test_parse_map_response_space_aligned():
    block = (
        "/*\n"
        "row_id  driver           What is his/her country?\n"
        "0       jim clark        scotland\n"
        "1       richie ginther   united states\n"
        "2       graham hill      england\n"
        "*/"
    )
    col = parse_map_response(block, shown(3), "What is his/her country?")
    assert col.cells == ("scotland", "united states", "england")


def test_parse_map_response_missing_row_is_null():
    block = "/*\nrow_id\tc\tq\n0\tx\ta\n1\tx\tb\n2\tx\tc\n4\tx\te\n*/"
    col = parse_map_response(block, shown(5), "q")
    assert col.cells == ("a", "b", "c", None, "e")


def test_parse_map_response_duplicate_takes_last():
    block = "0\tx\tfirst\n0\tx\tsecond"
    col = parse_map_response(block, shown(1), "q")
    assert col.cells == ("second",)


def test_parse_map_response_free_text_fails():
    with pytest.raises(MalformedResponse):
        parse_map_response("The answers are yes and no.", shown(2), "q")


def test_fields_splitting():
    assert _fields("a\tb\tc") == ["a", "b", "c"]
    assert _fields("a   b c   d") == ["a", "b c", "d"]


# ---- demo retrieval ----

def test_retrieve_degenerate_k():
    pool = default_exec_demos()
    assert retrieve_exec_demos("anything", pool, 0) == []
    assert len(retrieve_exec_demos("anything", pool, 999)) == len(pool)


def test_retrieve_identical_question_first():
    pool = default_exec_demos()
    got = retrieve_exec_demos("Is it from alabama?", pool, 3)
    assert got[0].question == "Is it from alabama?"


def test_retrieve_is_deterministic():
    pool = default_exec_demos()
    a = retrieve_exec_demos("What is the value of in feet?", pool, 8)
    b = retrieve_exec_demos("What is the value of in feet?", pool, 8)
    assert [d.title for d in a] == [d.title for d in b]


def test_ngram_similarity_orders_sensibly():
    near = _similarity(_profile("is it from alabama?"), _profile("is it from texas?"))
    far = _similarity(_profile("is it from alabama?"), _profile("what is the tonnage?"))
    assert near > far > 0.0


WORDS = st.sampled_from(["a", "b", "c", "d", "B", "7"])
QUESTIONS = st.builds(lambda words, sep: sep.join(words) + "?",
                      st.lists(WORDS, max_size=6), st.sampled_from([" ", ", ", " - "]))


def reference_top_k(question: str, questions: list, k: int) -> list:
    """Positions of the k questions nearest to question: a smoothed overlap
    of their 1- to 4-word n-grams with a brevity penalty, written out here;
    ties keep list order. An n longer than the question does not count."""
    def words(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    hyp = words(question)

    def score(ref):
        if not hyp or not ref:
            return 0.0
        logs = []
        for n in range(1, min(len(hyp), 4) + 1):
            mine, theirs = ngrams(hyp, n), ngrams(ref, n)
            matched = sum(min(c, theirs[g]) for g, c in mine.items())
            logs.append(math.log((matched + 1.0) / (len(hyp) - n + 2.0)))
        value = math.exp(sum(logs) / len(logs))
        return value * math.exp(1.0 - len(ref) / len(hyp)) if len(hyp) < len(ref) else value

    scores = [score(words(q)) for q in questions]
    return sorted(range(len(questions)), key=lambda i: (-scores[i], i))[:max(k, 0)]


@settings(max_examples=400, deadline=None)
@given(QUESTIONS, st.lists(QUESTIONS, min_size=1, max_size=8), st.integers(-1, 9))
# a 2-token question: were its empty 3-gram level averaged in, the longer,
# better matching demo would lose to the shorter one
@example("a b?", ["a b c d?", "a c d?"], 1)
def test_retrieval_ranks_as_a_reference_scorer_does(question, questions, k):
    pool = [ExecDemo(f"t{i}", "row_id\tc\n0\tx", q, "row_id\tc\tq\n0\tx\ty")
            for i, q in enumerate(questions)]
    got = retrieve_exec_demos(question, pool, k)
    assert [id(d) for d in got] == [id(pool[i]) for i in reference_top_k(question, questions, k)]


def test_demo_invariant_enforced():
    with pytest.raises(Exception):
        ExecDemo("t", "row_id\ta\n0\tx", "q", "row_id\ta\n0\tx")  # no extra column


# ---- resolution ----

def feet_table():
    return make_table("Highest mountain peaks of California", ["prominence"],
                      [["10080 ft; 3072 m"], ["1677 ft; 511 m"], ["7196 ft; 2193 m"],
                       ["2894 ft; 882 m"], ["9832 ft; 2997 m"], ["2563 ft; 781 m"]])


FEET_RESPONSE = (
    "/*\n"
    "row_id\tprominence\tWhat is the value of in feet?\n"
    "0\t10080 ft; 3072 m\t10080\n"
    "1\t1677 ft; 511 m\t1677\n"
    "2\t7196 ft; 2193 m\t7196\n"
    "3\t2894 ft; 882 m\t2894\n"
    "4\t9832 ft; 2997 m\t9832\n"
    "5\t2563 ft; 781 m\t2563\n"
    "*/"
)


def feet_mock():
    mock = MockBackend()
    mock.add_rule(r'Q: Answer question "What is the value of in feet\?" row by row\.', [FEET_RESPONSE])
    return mock


def test_resolve_map_call():
    t = feet_table()
    p, calls = tagged_calls('SELECT f("What is the value of in feet?"; prominence) FROM w')
    backend = RecordingBackend(feet_mock())
    res = resolve_call(calls[0], t, backend, [], "feet")
    assert res.outcome.cells == ("10080", "1677", "7196", "2894", "9832", "2563")
    assert res.generated_name == res.outcome.name == "feet"
    req, _ = backend.calls[0]
    # temperature 0, top_p 1, 1024 output tokens, one completion, stop at a blank line
    assert req == CompletionRequest(req.prompt, 0.0, 1.0, 1024, 1, ("\n\n",))


def test_a_map_over_no_rows_is_an_empty_column_without_a_request():
    t = make_table("w", ["city", "size"], [])  # an inline table with a header and no rows
    program = parse('SELECT city, f("Is it big?"; city) FROM w WHERE f("Is it old?"; size) = \'yes\'')
    trace = run_program(program, t, NullBackend(), pool=[])  # NullBackend fails any request
    assert trace.answer == Answer(())
    assert [res.outcome.cells for res in trace.resolutions] == [(), ()]


def test_resolve_val_call(hometown):
    p, calls = tagged_calls('SELECT f_val("The most formal?"; hometown)')
    mock = MockBackend()
    mock.add_rule(r"Q: The most formal\?\nA:", ["  Chicago, IL, U.S.\nextra line"])
    res = resolve_call(calls[0], hometown, mock, [], "formal")
    assert res.outcome == "chicago, il, u.s."


def test_execute_binder_numeric_coercion_of_map_answers():
    t = feet_table()
    program = parse('SELECT COUNT(*) FROM w WHERE f("What is the value of in feet?"; prominence) > 5000')
    answer = run_program(program, t, feet_mock(), pool=[]).answer
    assert answer.display() == ["3"]


def test_execute_binder_conservative_on_plain_sql(records):
    backend = RecordingBackend(MockBackend())
    program = parse("SELECT COUNT(*) FROM w WHERE place LIKE '%united kingdom'")
    trace = run_program(program, records, backend, pool=[])
    assert trace.answer.display() == ["8"]
    assert backend.calls == []
    assert trace.answer.values == tuple(v for row in execute_sql(program, records) for v in row)
    assert trace.rewritten.root == program.root


def test_execute_binder_nested_bottom_up():
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    mock = MockBackend()
    mock.add_rule(r'Q: Answer question "inner\?" row by row\.',
                  ["/*\nrow_id\tc\tinner?\n0\tx1\ti1\n1\tx2\ti2\n*/"])
    mock.add_rule(r'Q: Answer question "outer\?" row by row\.',
                  ["/*\nrow_id\tcol\touter?\n0\ti1\tyes\n1\ti2\tno\n*/"])
    backend = RecordingBackend(mock)
    program = parse('SELECT c FROM w WHERE f("outer?"; f("inner?"; c)) = \'yes\'')
    answer = run_program(program, t, backend, pool=[]).answer
    assert answer.display() == ["x1"]
    first, second = (req.prompt for req, _ in backend.calls)
    assert '"inner?"' in first and '"outer?"' in second
    assert "0\ti1\n1\ti2" in second  # outer context is the inner call's column


def test_execute_binder_partial_response_fills_nulls():
    t = make_table("n", ["c"], [["a"], ["b"], ["c"]])
    mock = MockBackend()
    mock.add_rule(r'"flag\?"', ["/*\nrow_id\tc\tflag?\n0\ta\tyes\n2\tc\tyes\n*/"])
    answer = run_program(parse('SELECT COUNT(*) FROM w WHERE f("flag?"; c) = \'yes\''),
                         t, mock, pool=[]).answer
    assert answer.display() == ["2"]  # missing row 1 is null, excluded by WHERE


def test_execute_binder_wraps_failures():
    t = make_table("n", ["c"], [["a"]])
    with pytest.raises(ResolutionError) as exc:
        run_program(parse('SELECT f("mystery?"; c) FROM w'), t, MockBackend(),
                    pool=[])
    assert "mystery?" in str(exc.value)


def test_run_program_trace_contents(shirts):
    mock = MockBackend()
    mock.add_rule(r'"North America\?"',
                  ["/*\nrow_id\tmade_in\tNorth America?\n0\tus\tyes\n1\tchina\tno\n"
                   "2\tcanada\tyes\n3\tusa\tyes\n4\tmexico\tyes\n*/"])
    program = parse("SELECT shirt FROM w WHERE f(\"North America?\"; made_in) = 'yes' "
                    "ORDER BY num_of_orders DESC LIMIT 1")
    trace = run_program(program, shirts, mock, pool=[])
    assert trace.answer.display() == ["flannel shirt, synthetic blend"]
    assert len(trace.resolutions) == 1
    assert trace.resolutions[0].prompt.startswith("Give a database as shown below:")
    assert not api_calls_bottom_up(trace.rewritten)


# ---- one-pass resolution ----

def catch_all_mock():
    """Answers every map prompt with a two-row column and every val prompt with a value."""
    return MockBackend([("regex", r"row by row", ["/*\nrow_id\tq\n0\t1\n1\t2\n*/"]),
                        ("regex", r"", ["7"])])


def corpus_table():
    return make_table("t", ["member", "term", "place", "signed from", "player", "year",
                            "win_team", "los_team", "shirt", "made_in", "num_of_orders"],
                      [["ann", "3 years", "leeds", "fc a", "p1", "2001", "30", "12",
                        "polo", "us", "15"],
                       ["bob", "2 years", "paris", "fc b", "p2", "2002", "21", "20",
                        "linen", "china", "32"]])


CALL_PROGRAMS = [text for text in EXEMPLAR_PROGRAMS if api_calls_bottom_up(parse(text))]


@pytest.mark.parametrize("text", CALL_PROGRAMS)
def test_run_program_resolves_in_bottom_up_order(text):
    program = parse(text)
    calls = api_calls_bottom_up(assign_roles(program))
    trace = run_program(program, corpus_table(), catch_all_mock(), pool=[])
    assert [r.call.question for r in trace.resolutions] == [c.question for c in calls]
    for ordinal, res in enumerate(trace.resolutions):
        assert res.generated_name.startswith(f"col_{ordinal}_")
    assert not api_calls_bottom_up(trace.rewritten)


@pytest.mark.parametrize("text", [t for t in EXEMPLAR_PROGRAMS if t not in CALL_PROGRAMS])
def test_call_free_candidate_collects_its_calls_once(text, monkeypatch):
    collections = []  # the output list of each top-level collection

    def counting(node, out):
        if not any(out is seen for seen in collections):
            collections.append(out)
        collect(node, out)
    collect = syntax._collect_calls
    monkeypatch.setattr(syntax, "_collect_calls", counting)
    program = parse(text)
    cand = cli._execute_candidate(0, program, corpus_table(),
                                  cli.Run(cli.RunConfig(), NullBackend(), pool=[]))
    assert isinstance(cand.answer, Answer) and not cand.has_api_call
    assert len(collections) <= 1
    assert assign_roles(program) is program


def test_repeated_question_on_two_columns_resolves_twice():
    program = parse('SELECT year FROM t WHERE f("Points?";win_team) - f("Points?";los_team) > 10')
    trace = run_program(program, corpus_table(), catch_all_mock(), pool=[])
    win, los = trace.resolutions
    assert win.generated_name != los.generated_name
    assert "row_id\twin_team\n" in win.prompt and "row_id\tlos_team\n" in los.prompt


def test_resolve_call_rejects_unsubstituted_nested_call():
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    _, calls = tagged_calls('SELECT f("outer?"; f("inner?"; c)) FROM w')
    backend = RecordingBackend(catch_all_mock())
    with pytest.raises(EvalError):
        resolve_call(calls[-1], t, backend, [], "outer")
    assert backend.calls == []


def test_run_program_leaves_no_reference_cycles():
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    program = parse('SELECT c FROM w WHERE f("outer?"; f("inner?"; c)) = \'1\'')
    gc.collect()
    gc.disable()
    try:
        run_program(program, t, catch_all_mock(), pool=[])
        assert gc.collect() == 0  # the working table is freed when the call returns
    finally:
        gc.enable()


TWO_ROWS = "/*\nrow_id\tc\tq\n0\tx1\t1\n1\tx2\t2\n*/"  # a map reply: 1, then 2


def test_pooled_run_program_with_a_failing_sibling_leaves_no_reference_cycles():
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    ok = parse('SELECT c FROM w WHERE f("outer?"; f("inner?"; c)) = \'1\' AND f("b?"; c) = \'1\'')
    failing = parse('SELECT c FROM w WHERE f("a?"; c) = \'1\' AND f("broken?"; c) = \'1\'')
    both = parse('SELECT c FROM w WHERE f("broken?"; c) = \'1\' AND f("broken too?"; c) = \'1\'')
    mock = MockBackend([("regex", r"broken", ["no rows here"]), ("regex", r"row by row", [TWO_ROWS])])
    with ThreadPoolExecutor(max_workers=2) as calls:
        run = cli.Run(cli.RunConfig(), mock, pool=[], call_executor=calls)
        for program in (ok, failing, both):  # starts the workers before gc is checked
            cli._execute_candidate(0, program, t, run)
        gc.collect()
        gc.disable()
        try:
            assert run_program(ok, t, mock, pool=[], executor=calls).answer.display() == ["x1"]
            for program in (failing, both):
                assert isinstance(cli._execute_candidate(0, program, t, run).answer, ResolutionError)
                for executor in (calls, None):
                    try:
                        run_program(program, t, mock, pool=[], executor=executor)
                    except ResolutionError:
                        pass
            assert gc.collect() == 0  # the working tables are freed when the calls return
        finally:
            gc.enable()


# ---- concurrent sibling calls ----

SIBLINGS = parse('SELECT c FROM w WHERE f("a?"; c) = \'1\' AND f("b?"; c) = \'1\'')


class ScriptedBackend(Backend):
    """Answers each map request by its question: the reply the script gives,
    or the exception it gives, raised. A question in `after` is answered
    only once the question it names has been answered."""

    identity = "scripted"

    def __init__(self, script: dict, after=None):
        self.script = script
        self.after = after or {}
        self.answered = {q: threading.Event() for q in script}
        self.sent: list = []

    def _complete(self, req: CompletionRequest) -> list:
        question = re.search(r'Answer question "(.*)" row by row', req.prompt).group(1)
        self.sent.append(question)
        try:
            if question in self.after:
                assert self.answered[self.after[question]].wait(10)
            reply = self.script[question]
            if isinstance(reply, Exception):
                raise reply
            return [reply]
        finally:
            self.answered[question].set()


class BarrierBackend(Backend):
    """Holds each request at a two-party barrier: a request is answered only
    while another is in flight too."""

    identity = "barrier"

    def __init__(self, inner: Backend):
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=10)

    def _complete(self, req: CompletionRequest) -> list:
        self.barrier.wait()
        return self.inner.complete(req)


def test_sibling_calls_are_in_flight_together():
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    with ThreadPoolExecutor(max_workers=1) as calls:
        backend = BarrierBackend(MockBackend([("regex", r"row by row", [TWO_ROWS])]))
        trace = run_program(SIBLINGS, t, backend, pool=[], executor=calls)
    assert trace.answer.display() == ["x1"]


@pytest.mark.parametrize("pooled", [False, True])
def test_first_failure_in_post_order_is_raised(pooled):
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    backend = ScriptedBackend({"a?": BadResponse("a broke"), "b?": BadResponse("b broke")},
                              after={"a?": "b?"} if pooled else {})  # pooled: b fails first
    with ThreadPoolExecutor(max_workers=1) as calls:
        with pytest.raises(ResolutionError) as exc:
            run_program(SIBLINGS, t, backend, pool=[], executor=calls if pooled else None)
    assert exc.value.question == "a?" and str(exc.value.cause) == "a broke"
    assert sorted(backend.sent) == ["a?", "b?"]  # a sibling after a failure may still be sent


@pytest.mark.parametrize("pooled", [False, True])
def test_a_call_over_a_failed_call_is_never_sent(pooled):
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    program = parse('SELECT c FROM w WHERE f("outer?"; f("inner?"; c)) = \'1\' '
                    'AND f("b?"; c) = \'1\'')
    backend = ScriptedBackend({"inner?": BadResponse("inner broke"), "outer?": TWO_ROWS,
                               "b?": TWO_ROWS})
    with ThreadPoolExecutor(max_workers=2) as calls:
        with pytest.raises(ResolutionError) as exc:
            run_program(program, t, backend, pool=[], executor=calls if pooled else None)
    assert exc.value.question == "inner?"
    assert "outer?" not in backend.sent


def test_resolutions_and_trace_follow_post_order_when_the_second_call_answers_first(capsys):
    t = make_table("n", ["c"], [["x1"], ["x2"]])
    program = parse('SELECT c FROM w WHERE f("a?"; c) = \'1\' AND f("c?"; f("b?"; c)) = \'1\'')
    outputs = []
    for pooled in (False, True):
        backend = ScriptedBackend({"a?": TWO_ROWS, "b?": TWO_ROWS, "c?": TWO_ROWS},
                                  after={"a?": "b?"} if pooled else {})  # pooled: b answers first
        with ThreadPoolExecutor(max_workers=1) as calls:
            trace = run_program(program, t, backend, pool=[], executor=calls if pooled else None)
        assert trace.answer.display() == ["x1"]
        assert [r.call.question for r in trace.resolutions] == ["a?", "b?", "c?"]
        assert [r.generated_name[:6] for r in trace.resolutions] == ["col_0_", "col_1_", "col_2_"]
        cli._print_trace(trace)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
