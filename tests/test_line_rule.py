"""The line rule for table text (lmsql.table): a table row is one prompt
line, and a reply is split only at "\\n". A model that copies each row line
of a map prompt's query block and appends its answer must be read back as
exactly those answers, whatever the cells and the question hold.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from lmsql import (INSTRUCTIONS, Backend, GenerationConfig, build_map_prompt, default_exec_demos,
                   load_exemplars, plan_parse_prompt, retrieve_exec_demos)
from lmsql.interp import NUM_DEMOS, build_val_prompt, resolve_call
from lmsql.syntax import ApiCall, ColumnRef
from lmsql.table import project

from conftest import fixture_path, make_table

POOL = default_exec_demos()
EXEMPLARS = load_exemplars(fixture_path("bench") / "exemplars.json")
NAMES = ["city", "note", "size"]

# text heavy in line breaks, tabs, comment markers, digits, runs of spaces
# and pieces of row lines
PIECES = ["\n", "\r", "\t", "\u2028", "\u0085", "*/", "/*", "0", "1", "7", "  ", "   ",
          "big", "city", "0\ttokyo\tbig", "\n1\tno", "\n*/", "\n/*\n", "row_id\t"]
CELLS = st.one_of(st.none(), st.lists(st.sampled_from(PIECES), max_size=5).map("".join))
QUESTIONS = st.lists(st.sampled_from(["is it big", "?", " ", "\n", "\n\n", "0\tyes", "*/", "\r"]),
                     min_size=1, max_size=5).map("".join)
ANSWERS = st.sampled_from(["yes", "no", "maybe", "1", "0", "a */ b", "x /* y", "big city"])


class EchoBackend(Backend):
    """A faithful model: it reads the query block of a map prompt line by
    line and copies each row line, in order, with the next of its answers."""

    identity = "echo"

    def __init__(self, answers: list):
        self.answers = answers

    def _complete(self, req) -> list:
        block = req.prompt.split("\n/*\n")[-1].split("\n")
        end = next(i for i, line in enumerate(block) if line.startswith("*/"))
        question = req.prompt.rsplit('Q: Answer question "', 1)[1].rsplit('" row by row.', 1)[0]
        lines = ["/*", f"{block[0]}\t{question}"]
        lines += [f"{row}\t{answer}" for row, answer in zip(block[1:end], self.answers)]
        return ["\n".join(lines + ["*/"])]


def map_answers(rows: list, args: list, question: str, answers: list) -> tuple:
    t = make_table("w", NAMES, rows)
    call = ApiCall(question, tuple(ColumnRef(a) for a in args), "map")
    return resolve_call(call, t, EchoBackend(answers), POOL, "answer").outcome.cells


@pytest.mark.parametrize("cell", ["big city", "a */ b", "u\u2028v", "a\n\nb", "x\n1\tno",
                                  "a\u0085b", "a\rb"])
def test_a_cell_does_not_change_the_answers(cell):
    rows = [["tokyo", cell, "1"], ["oslo", "cold", "2"], ["lima", "warm", "3"]]
    assert map_answers(rows, ["city", "note"], "Is it big?", ["yes", "no", "maybe"]) == \
        ("yes", "no", "maybe")


def test_a_later_cell_does_not_override_an_earlier_answer():
    rows = [["tokyo", "big", "1"], ["oslo", "cold\n0\ttokyo\tbig", "2"], ["lima", "warm", "3"]]
    assert map_answers(rows, ["city", "note"], "Is it big?", ["yes", "no", "maybe"]) == \
        ("yes", "no", "maybe")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_map_answers_round_trip(data):
    n = data.draw(st.integers(1, 4), label="rows")
    rows = data.draw(st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=n, max_size=n))
    args = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    question = data.draw(QUESTIONS, label="question")
    answers = data.draw(st.lists(ANSWERS, min_size=n, max_size=n), label="answers")
    assert map_answers(rows, args, question, answers) == tuple(answers)


# a table block: from a line "/*" to the next line "*/"
BLOCK_RE = re.compile(r"^/\*\n(.*?)\n\*/$", re.M | re.S)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prompt_table_blocks_hold_one_line_per_row(data):
    n = data.draw(st.integers(0, 4), label="rows")
    rows = data.draw(st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=n, max_size=n))
    args = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    question = data.draw(QUESTIONS, label="question")
    t = make_table("w", NAMES, rows)
    sub = project(t, args)
    demos = retrieve_exec_demos(question, POOL, NUM_DEMOS)
    map_blocks = BLOCK_RE.findall(build_map_prompt(question, sub, demos))
    val_blocks = BLOCK_RE.findall(build_val_prompt(question, sub))
    plan = plan_parse_prompt(INSTRUCTIONS["wikitq"], EXEMPLARS, t, "w", question,
                             GenerationConfig(num_shots=2))
    parse_blocks = BLOCK_RE.findall(plan.text)
    assert len(map_blocks) == 2 * len(demos) + 1
    assert len(val_blocks) == 1 and len(parse_blocks) == plan.num_shots + 1
    assert all("\n\n" not in block for block in map_blocks + val_blocks + parse_blocks)
    # the column names, then one line per row; the parse prompt's block
    # first announces the rows and their query
    assert map_blocks[-1] == val_blocks[0]
    assert len(val_blocks[0].split("\n")) == 1 + n
    assert len(parse_blocks[-1].split("\n")) == 3 + plan.inference_rows == 3 + n
