"""Parsing stage: few-shot prompt assembly under a token budget, candidate
sampling, and candidate parsing.

The prompt is an instruction line, one block per exemplar (schema + three
sample rows + question + program), and the inference example rendered with
the full table and an empty program slot. The prompt and the reply's
MAX_OUTPUT_TOKENS must fit backend.TOKEN_BUDGET, as every backend checks.
Exemplars are dropped from the tail until the prompt fits; if none are
left, inference-table rows are truncated instead. The budget check reads only lengths
(approx_tokens), so the planner measures the pieces and builds the text
once. It picks the rows kept by bisection over Table.row_lines, which
renders each row once per loaded table, however many examples ask of it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .backend import CHARS_PER_TOKEN, TOKEN_BUDGET, Backend, CompletionRequest, approx_tokens
from .errors import BudgetExhausted, ParseError
from .syntax import parse
from .table import (Table, linearize, linearize_frame, load_table,
                    normalize, read_json, table_from_json, text_fields)

PROGRAM_SLOT = "Binder:"
EXEMPLAR_ROWS = 3  # sample rows per exemplar table, as linearize announces

INSTRUCTIONS = {
    "wikitq": "Generate SQL given the question and table to answer the question correctly.",
    "tabfact": "Generate SQL given the statement and table to verify the statement correctly.",
    "mmqa": "Generate SQL given the question, table, passages, image captions to answer the question correctly.",
}

MAX_OUTPUT_TOKENS = 512  # of each parse reply

PRESETS = {  # the generation values --dataset-style sets, over the config file's
    "wikitq": {"temperature": 0.4, "sampling_n": 20, "num_shots": 14},
    "tabfact": {"temperature": 0.6, "sampling_n": 50, "num_shots": 14},
    "mmqa": {"temperature": 0.4, "sampling_n": 20, "num_shots": 18},
}


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.4
    sampling_n: int = 20
    num_shots: int = 14


@dataclass(frozen=True)
class Exemplar:
    table: Table
    title: str
    question: str
    program_text: str

    @cached_property
    def block(self) -> str:
        """The exemplar as every parse prompt shows it, rendered on first use."""
        return (f"{linearize(self.table, self.title, EXEMPLAR_ROWS, full=False)}\n"
                f"Q: {self.question}\n"
                f"{PROGRAM_SLOT} {self.program_text}")


@dataclass(frozen=True)
class PromptPlan:
    text: str
    num_shots: int
    inference_rows: int

    @property
    def tokens(self) -> int:
        return approx_tokens(self.text)


_SEP = "\n\n"  # between the instruction and each block


def plan_parse_prompt(instruction: str, exemplars: list, table: Table,
                      title: str, question: str,
                      cfg: GenerationConfig = GenerationConfig()) -> PromptPlan:
    """Assemble the prompt, shrinking shots first and inference rows second:
    the most leading exemplars that fit beside the whole table, or, if the
    whole table does not fit alone, no exemplars and its most leading rows."""
    head, foot = linearize_frame(table, title, full=True)
    foot += f"\nQ: {question}\n{PROGRAM_SLOT} "
    # characters left for inference rows and exemplar blocks, once the
    # budget has kept room for the completion
    room = ((TOKEN_BUDGET - MAX_OUTPUT_TOKENS) * CHARS_PER_TOKEN
            - len(instruction) - len(_SEP) - len(head) - len(foot))
    if room < 0:
        raise BudgetExhausted(
            f"prompt and {MAX_OUTPUT_TOKENS} output tokens exceed the "
            f"{TOKEN_BUDGET}-token budget even with no exemplars and no inference rows")
    lines, ends = table.row_lines(room)
    kept = bisect_right(ends, room) - 1  # the most leading rows that fit
    room -= ends[kept]
    blocks = []
    if kept == table.row_count:  # the whole table fits: add shots while they fit
        for ex in exemplars[:cfg.num_shots]:
            block = _SEP + ex.block
            room -= len(block)
            if room < 0:
                break
            blocks.append(block)
    text = "".join([instruction, *blocks, _SEP, head, *lines[:kept], foot])
    return PromptPlan(text, len(blocks), kept)


def sample_candidates(backend: Backend, prompt: str,
                      cfg: GenerationConfig = GenerationConfig()) -> list:
    """Exactly sampling_n completions, stop-truncated and trimmed."""
    req = CompletionRequest(prompt, cfg.temperature, max_output_tokens=MAX_OUTPUT_TOKENS,
                            n=cfg.sampling_n)
    return [text.strip() for text in backend.complete(req)]


def parse_candidates(texts: list) -> list:
    """Parse each candidate independently; failures stay in the list as
    ParseError values so votes and reports can see them. They are kept
    without their traceback, whose frames would hold this list, and the
    caller's table, in a reference cycle."""
    out = []
    for text in texts:
        try:
            out.append(parse(text))
        except ParseError as e:
            out.append(e.with_traceback(None))
    return out


def load_exemplars(path) -> list:
    """JSON array of {title, table_path | table, question, program}; table
    paths resolve relative to the file."""
    p = Path(path)
    out = []
    for i, entry in enumerate(read_json(p, "exemplar file", array=True)):
        where = f"{p.name}[{i}]"
        title, question, program = text_fields(entry, ("title", "question", "program"), where)
        if "table" in entry:
            t = table_from_json(entry["table"], title=title)
        else:
            table_path, = text_fields(entry, ("table_path",), where)
            t = load_table((p.parent / table_path).resolve())
        parse(program)  # exemplar programs must be well-formed
        out.append(Exemplar(normalize(t), title, question, program))
    return out
