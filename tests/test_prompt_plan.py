"""Property tests: the length-based planner returns the plan of the
straightforward one, which builds the whole prompt for each shot count and
binary-searches the inference rows when no shot count fits, whatever plans
were made of the same Table before; and every plan leaves room for the
completion within the token budget. The budget is fixed,
so a test that needs a smaller one pads the instruction (conftest.padded)."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import event, given, settings, strategies as st

from lmsql import BudgetExhausted, GenerationConfig, linearize, plan_parse_prompt
from lmsql.backend import CHARS_PER_TOKEN, TOKEN_BUDGET, approx_tokens
from lmsql.prompts import EXEMPLAR_ROWS, MAX_OUTPUT_TOKENS, PROGRAM_SLOT, Exemplar, PromptPlan
from lmsql.table import Column, Table

from conftest import padded


def reference_prompt(instruction, shots, table, title, question, k, rows) -> str:
    blocks = [instruction]
    blocks.extend(f"{linearize(ex.table, ex.title, EXEMPLAR_ROWS, full=False)}\n"
                  f"Q: {ex.question}\n"
                  f"{PROGRAM_SLOT} {ex.program_text}" for ex in shots[:k])
    blocks.append(f"{linearize(table, title, rows, full=True)}\n"
                  f"Q: {question}\n"
                  f"{PROGRAM_SLOT} ")
    return "\n\n".join(blocks)


def reference_plan(instruction, exemplars, table, title, question, cfg) -> PromptPlan:
    """The planner as it was before it worked from lengths, with the
    budget's room for the completion taken out."""
    shots = list(exemplars[:cfg.num_shots])

    def assemble(k, rows):
        return reference_prompt(instruction, shots, table, title, question, k, rows)

    def fits(text):
        return approx_tokens(text) + MAX_OUTPUT_TOKENS <= TOKEN_BUDGET

    full_rows = table.row_count
    for k in range(len(shots), -1, -1):
        text = assemble(k, full_rows)
        if fits(text):
            return PromptPlan(text, k, full_rows)
    lo, hi, best = 0, full_rows - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        if fits(assemble(0, mid)):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise BudgetExhausted("no fit")
    return PromptPlan(assemble(0, best), 0, best)


def assert_same_plan(args, cfg) -> str:
    """Check the planner against the reference; name the branch taken."""
    _, shots, table, _, _ = args
    try:
        expected = reference_plan(*args, cfg)
    except BudgetExhausted:
        with pytest.raises(BudgetExhausted):
            plan_parse_prompt(*args, cfg)
        return "budget exhausted"
    assert plan_parse_prompt(*args, cfg) == expected
    if expected.inference_rows < table.row_count:
        return "rows cut"
    return "all shots" if expected.num_shots == len(shots[:cfg.num_shots]) else "fewer shots"


text = st.text(max_size=12)  # unicode, empty and multi-line strings included
cells = st.one_of(st.none(), st.just(""), text,
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.dates(min_value=date(1, 1, 1)))


@st.composite
def tables(draw, max_rows=12):
    n_cols = draw(st.integers(0, 4))
    n_rows = draw(st.integers(0, max_rows)) if n_cols else 0
    columns = tuple(
        Column(draw(text), draw(st.sampled_from(["int", "real", "text", "date"])),
               tuple(draw(st.lists(cells, min_size=n_rows, max_size=n_rows))))
        for _ in range(n_cols))
    return Table(draw(text), columns)


exemplars = st.builds(Exemplar, tables(max_rows=5), text, text, text)


@settings(max_examples=200, deadline=None)
@given(instruction=text, shots=st.lists(exemplars, max_size=4), table=tables(),
       title=text, question=text, num_shots=st.integers(0, 5), data=st.data())
def test_plan_matches_reference(instruction, shots, table, title, question, num_shots, data):
    # the instruction is padded so that a prompt the planner may choose (k
    # shots and all rows, or no shots and some rows) plus the completion
    # is the budget, or a token either side of it. Every branch is drawn:
    # all shots, fewer, none with all rows, some rows, and none at all. The
    # padded prompt's length has a drawn remainder modulo CHARS_PER_TOKEN;
    # a planner whose lengths are a few characters off then fails at one of them.
    args = (instruction, shots, table, title, question)
    k = data.draw(st.integers(0, len(shots[:num_shots])), label="k")
    rows = table.row_count if k else data.draw(st.integers(0, table.row_count), label="rows")
    remainder = data.draw(st.integers(0, CHARS_PER_TOKEN - 1), label="remainder")
    edge = TOKEN_BUDGET - MAX_OUTPUT_TOKENS - data.draw(st.integers(-1, 1), label="budget - edge")
    length = (edge - 1) * CHARS_PER_TOKEN + (remainder or CHARS_PER_TOKEN)
    args = (instruction + " " * (length - len(reference_prompt(*args, k, rows))), *args[1:])
    assert approx_tokens(reference_prompt(*args, k, rows)) == edge
    event(assert_same_plan(args, GenerationConfig(num_shots=num_shots)))


@pytest.mark.parametrize("pad", range(CHARS_PER_TOKEN))
def test_plan_matches_reference_at_every_budget(pad):
    """One small input at every budget, its instruction padded so that each
    prompt's length takes every remainder modulo CHARS_PER_TOKEN."""
    table = Table("t", (Column("a", "text", ("x", "", None, "é")),
                        Column("n", "real", (1.0, 2.5, None, 3.0))))
    shots = [Exemplar(table, "ex", "q?", "SELECT a FROM w")] * 2
    args = (" " * pad, shots, table, "w", "how many?")
    largest = approx_tokens(reference_prompt(*args, len(shots), table.row_count))
    outcomes = {assert_same_plan((padded(args[0], b), *args[1:]),
                                 GenerationConfig(num_shots=len(shots)))
                for b in range(MAX_OUTPUT_TOKENS, MAX_OUTPUT_TOKENS + largest + 2)}
    assert outcomes == {"budget exhausted", "rows cut", "fewer shots", "all shots"}


@settings(max_examples=200, deadline=None)
@given(instruction=text, shots=st.lists(exemplars, max_size=4), table=tables(),
       title=text, question=text, num_shots=st.integers(0, 5),
       prompt_room=st.integers(-10, 300))
def test_plan_leaves_room_for_the_completion(instruction, shots, table, title, question,
                                             num_shots, prompt_room):
    """The prompt plus the completion fits the budget that every backend
    checks, or the planner says that nothing fits."""
    instruction = padded(instruction, MAX_OUTPUT_TOKENS + prompt_room)
    try:
        plan = plan_parse_prompt(instruction, shots, table, title, question,
                                 GenerationConfig(num_shots=num_shots))
    except BudgetExhausted:
        event("budget exhausted")
        return
    event("planned")
    assert plan.tokens + MAX_OUTPUT_TOKENS <= TOKEN_BUDGET


@settings(max_examples=200, deadline=None)
@given(shots=st.lists(exemplars, max_size=3), table=tables(), title=text, question=text,
       remainder=st.integers(0, CHARS_PER_TOKEN - 1), data=st.data())
def test_plan_does_not_depend_on_earlier_plans(shots, table, title, question, remainder, data):
    """One Table, planned at a drawn sequence of budgets and then at the same
    budgets in reverse, so that a smaller budget follows a larger one and a
    larger a smaller: each plan is the reference plan, and so the plan of a
    fresh copy of the table, which has rendered no rows yet."""
    instruction = " " * remainder
    smallest, largest = (approx_tokens(reference_prompt(instruction, shots, table, title,
                                                        question, k, rows))
                         for k, rows in ((0, 0), (len(shots), table.row_count)))
    budgets = data.draw(st.lists(st.integers(MAX_OUTPUT_TOKENS + smallest - 1,
                                             MAX_OUTPUT_TOKENS + largest + 1),
                                 min_size=2, max_size=6), label="budgets")
    cfg = GenerationConfig(num_shots=len(shots))
    for budget in budgets + budgets[::-1]:
        args = (padded(instruction, budget), shots, table, title, question)
        outcome = assert_same_plan(args, cfg)
        event(outcome)
        fresh = Table(table.title, table.columns)
        assert assert_same_plan((*args[:2], fresh, *args[3:]), cfg) == outcome
