"""Parsing stage: few-shot prompt assembly under a token budget, candidate
sampling, and candidate parsing.

The prompt is an instruction line, one block per exemplar (schema + three
sample rows + question + program), and the inference example rendered with
the full table and an empty program slot. Exemplars are dropped from the
tail until the prompt fits the budget; if none are left, inference-table
rows are truncated instead. The budget check reads only lengths
(approx_tokens), so the planner measures the pieces, rendering inference
rows only until they fill the budget, and builds the text once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .backend import CHARS_PER_TOKEN, Backend, CompletionRequest, approx_tokens
from .errors import BudgetExhausted, ParseError
from .syntax import parse
from .table import (Table, linearize, linearize_frame, linearize_row, load_table,
                    normalize, read_json, table_from_json, text_fields)

PROGRAM_SLOT = "Binder:"
EXEMPLAR_ROWS = 3  # sample rows per exemplar table, as linearize announces

INSTRUCTIONS = {
    "wikitq": "Generate SQL given the question and table to answer the question correctly.",
    "tabfact": "Generate SQL given the statement and table to verify the statement correctly.",
    "mmqa": "Generate SQL given the question, table, passages, image captions to answer the question correctly.",
}

_PARSING_DEFAULTS = {
    # temperature, sampling_n, num_shots
    "wikitq": (0.4, 20, 14),
    "tabfact": (0.6, 50, 14),
    "mmqa": (0.4, 20, 18),
}


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.4
    top_p: float = 1.0
    max_output_tokens: int = 512
    sampling_n: int = 20
    stop: tuple = ("\n\n",)
    num_shots: int = 14
    token_budget: int = 8000

    @classmethod
    def for_dataset(cls, name: str) -> "GenerationConfig":
        try:
            temperature, n, shots = _PARSING_DEFAULTS[name]
        except KeyError:
            raise ValueError(f"no generation defaults for dataset {name!r}")
        return cls(temperature=temperature, sampling_n=n, num_shots=shots)


@dataclass(frozen=True)
class Exemplar:
    table: Table
    title: str
    question: str
    program_text: str


@dataclass(frozen=True)
class PromptPlan:
    text: str
    num_shots: int
    inference_rows: int

    @property
    def tokens(self) -> int:
        return approx_tokens(self.text)


_SEP = "\n\n"  # between the instruction and each block


def _exemplar_block(ex: Exemplar) -> str:
    return (f"{linearize(ex.table, ex.title, EXEMPLAR_ROWS, full=False)}\n"
            f"Q: {ex.question}\n"
            f"{PROGRAM_SLOT} {ex.program_text}")


def plan_parse_prompt(instruction: str, exemplars: list, table: Table,
                      title: str, question: str,
                      cfg: GenerationConfig = GenerationConfig()) -> PromptPlan:
    """Assemble the prompt, shrinking shots first and inference rows second:
    the most leading exemplars that fit beside the whole table, or, if the
    whole table does not fit alone, no exemplars and its most leading rows."""
    head, foot = linearize_frame(table, title, full=True)
    foot += f"\nQ: {question}\n{PROGRAM_SLOT} "
    # characters left for inference rows and exemplar blocks
    room = (cfg.token_budget * CHARS_PER_TOKEN
            - len(instruction) - len(_SEP) - len(head) - len(foot))
    if room < 0:
        raise BudgetExhausted(
            f"prompt exceeds the {cfg.token_budget}-token budget even with no "
            f"exemplars and no inference rows")
    rows = []
    for row in table.rows():
        line = "\n" + linearize_row(row)
        room -= len(line)
        if room < 0:
            break
        rows.append(line)
    blocks = []
    if room >= 0:  # the whole table fits: add shots while they fit
        for ex in exemplars[:cfg.num_shots]:
            block = _SEP + _exemplar_block(ex)
            room -= len(block)
            if room < 0:
                break
            blocks.append(block)
    text = "".join([instruction, *blocks, _SEP, head, *rows, foot])
    return PromptPlan(text, len(blocks), len(rows))


def sample_candidates(backend: Backend, prompt: str,
                      cfg: GenerationConfig = GenerationConfig()) -> list:
    """Exactly sampling_n completions, stop-truncated and trimmed."""
    req = CompletionRequest(prompt, cfg.temperature, cfg.top_p,
                            cfg.max_output_tokens, cfg.sampling_n, cfg.stop)
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
