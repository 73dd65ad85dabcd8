"""Execution stage: resolve model calls bottom-up, materialize their results
as columns or scalars, rewrite the program to plain SQL and run it.

Map calls send the context sub-table row by row and read back an aligned
answer column; val calls read a single value. Every resolved column is
appended to the working table so later (outer) calls can consume it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from .backend import Backend, CompletionRequest
from .engine import Answer, denotation_to_answer, execute_sql
from .errors import EvalError, FormatError, IoError, MalformedResponse, ResolutionError
from .syntax import (ApiCall, ColumnRef, Literal, Program, api_calls_bottom_up,
                     assign_roles, map_children)
from .table import ROW_ID, Column, Table, augment, cell_to_text, project


@dataclass(frozen=True)
class ExecutionConfig:
    """Completion settings for the execution stage."""
    temperature: float = 0.0
    top_p: float = 1.0
    max_output_tokens: int = 1024
    stop: tuple = ("\n\n",)
    num_demos: int = 8


@dataclass(frozen=True)
class ExecDemo:
    """One annotated map exemplar: a sub-table, a question, and the same
    sub-table with the answer column appended."""
    title: str
    column_block: str
    question: str
    answer_block: str

    def __post_init__(self):
        col_lines = self.column_block.splitlines()
        ans_lines = self.answer_block.splitlines()
        if not col_lines or not ans_lines:
            raise FormatError(f"demo {self.title!r}: empty block")
        have = len(_fields(col_lines[0]))
        want = len(_fields(ans_lines[0]))
        if want != have + 1:
            raise FormatError(
                f"demo {self.title!r}: answer block must have exactly one extra column "
                f"({have} vs {want})")

    @cached_property
    def question_profile(self) -> tuple:
        """The question's n-gram counts: the reference side of every retrieval."""
        return _profile(self.question)


@dataclass(frozen=True)
class Resolution:
    call: ApiCall
    outcome: object  # Column for map calls, a cell value for val calls
    generated_name: str
    prompt: str
    response: str


def _fields(line: str) -> list:
    if "\t" in line:
        parts = line.split("\t")
    else:
        parts = re.split(r"\s{2,}", line)
    return [p.strip() for p in parts if p.strip() != ""]


# ---- prompts ----

def _table_block(sub: Table) -> str:
    lines = ["\t".join(sub.column_names())]
    for row in sub.rows():
        lines.append("\t".join(cell_to_text(v) for v in row))
    return "\n".join(lines)


def _demo_block(demo: ExecDemo) -> str:
    return (
        "Give a database as shown below:\n"
        f"Table: {demo.title}\n"
        "/*\n"
        f"{demo.column_block}\n"
        "*/\n"
        f'Q: Answer question "{demo.question}" row by row.\n'
        "QA map@ output:\n"
        "/*\n"
        f"{demo.answer_block}\n"
        "*/"
    )


def _query_block(question: str, sub: Table) -> str:
    return (
        "Give a database as shown below:\n"
        f"Table: {sub.title}\n"
        "/*\n"
        f"{_table_block(sub)}\n"
        "*/\n"
        f'Q: Answer question "{question}" row by row.\n'
        "QA map@ output:"
    )


def build_map_prompt(question: str, sub: Table, demos: list) -> str:
    """Demos first, then the query block; ends right after the output marker."""
    blocks = [_demo_block(d) for d in demos]
    blocks.append(_query_block(question, sub))
    return "\n\n".join(blocks) + "\n"


def build_val_prompt(question: str, sub: Table) -> str:
    """Single-value variant: same table block, then a bare QA line."""
    return (
        "Give a database as shown below:\n"
        f"Table: {sub.title}\n"
        "/*\n"
        f"{_table_block(sub)}\n"
        "*/\n"
        f"Q: {question}\n"
        "A:"
    )


# ---- response parsing ----

_ROW_ID_RE = re.compile(r"^(\d+)\s*[.,]?$")


def parse_map_response(text: str, expected_row_ids: list, question: str) -> Column:
    """Parse the emitted sub-table and align it by row_id.

    Missing row ids become null; duplicates keep the last occurrence; columns
    between row_id and the final answer column are ignored.
    """
    body = text
    start = text.find("/*")
    if start >= 0:
        end = text.find("*/", start + 2)
        body = text[start + 2:end if end >= 0 else len(text)]
    answers: dict = {}
    for line in body.splitlines():
        fields = _fields(line)
        if len(fields) < 2:
            continue
        m = _ROW_ID_RE.match(fields[0])
        if not m:
            continue  # header or commentary line
        answers[int(m.group(1))] = fields[-1].lower()
    if not answers:
        raise MalformedResponse(
            f'no parseable rows in map response for "{question}": {text[:200]!r}')
    cells = tuple(answers.get(rid) for rid in expected_row_ids)
    return Column(question, "text", cells)


def parse_val_response(text: str) -> Optional[str]:
    for line in text.splitlines():
        if line.strip():
            return line.strip().lower()
    return None


# ---- demo retrieval ----

def _tokens(text: str) -> list:
    return re.findall(r"[a-z0-9]+", text.lower())


def _profile(text: str) -> tuple:
    """(token count, [Counter of its n-grams for n = 1..4])."""
    tokens = _tokens(text)
    return len(tokens), [Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
                         for n in range(1, 5)]


def _similarity(hyp: tuple, ref: tuple) -> float:
    (hyp_len, hcounts), (ref_len, rcounts) = hyp, ref
    if not hyp_len or not ref_len:
        return 0.0
    log_sum, used = 0.0, 0
    for n, (hc, rc) in enumerate(zip(hcounts, rcounts), start=1):
        grams = hyp_len - n + 1
        if grams <= 0:
            continue
        matched = sum(min(c, rc[g]) for g, c in hc.items())
        log_sum += math.log((matched + 1.0) / (grams + 1.0))
        used += 1
    score = math.exp(log_sum / used)
    if hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


def ngram_similarity(hypothesis: str, reference: str) -> float:
    """Smoothed modified-precision overlap of 1..4-grams, with a brevity
    penalty; 0 when either side is empty."""
    return _similarity(_profile(hypothesis), _profile(reference))


def retrieve_exec_demos(question: str, pool: list, k: int) -> list:
    """Top-k pool demos by question similarity; ties keep pool order."""
    if k <= 0:
        return []
    hyp = _profile(question)
    scored = sorted(enumerate(pool), key=lambda e: (-_similarity(hyp, e[1].question_profile), e[0]))
    return [demo for _, demo in scored[:k]]


# ---- pool files ----

def load_exec_demos(path) -> list:
    p = Path(path)
    try:
        entries = json.loads(p.read_text(encoding="utf-8"))
    except OSError as e:
        raise IoError(f"cannot read demo pool {p}: {e}")
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON in {p.name}: {e}")
    demos = []
    for i, entry in enumerate(entries):
        try:
            demos.append(ExecDemo(entry["title"], entry["column_block"],
                                  entry["question"], entry["answer_block"]))
        except (TypeError, KeyError) as e:
            raise FormatError(f"{p.name}[{i}]: missing field {e}")
    return demos


_default_pool: Optional[list] = None


def default_exec_demos() -> list:
    """The packaged execution-stage demo pool."""
    global _default_pool
    if _default_pool is None:
        from importlib import resources
        with resources.files("lmsql").joinpath("data/exec_demos.json").open("r", encoding="utf-8") as fh:
            entries = json.load(fh)
        _default_pool = [ExecDemo(e["title"], e["column_block"], e["question"], e["answer_block"])
                         for e in entries]
    return _default_pool


# ---- resolution ----

def _hash8(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def _generated_name(t: Table, ordinal: int, question: str) -> str:
    name = f"col_{ordinal}_{_hash8(question)}"
    bump = ordinal
    while t.has_column(name):
        bump += 1
        name = f"col_{bump}_{_hash8(question)}"
    return name


def _context_names(call: ApiCall, resolved_names: dict) -> list:
    names = []
    for arg in call.args:
        if isinstance(arg, ColumnRef):
            names.append(arg.name)
        elif isinstance(arg, ApiCall):
            name = resolved_names.get(id(arg))
            if name is None:
                raise EvalError(
                    f'inner call f("{arg.question}"; ...) was not resolved before its parent')
            names.append(name)
        else:
            raise EvalError("model-call arguments must be columns or nested calls")
    return names


def resolve_call(call: ApiCall, t: Table, backend: Backend, pool: list,
                 cfg: ExecutionConfig = ExecutionConfig(), resolved_names=None,
                 ordinal: int = 0) -> Resolution:
    """Resolve one call whose arguments are already materialized on t."""
    if call.role not in ("map", "val"):
        raise EvalError(f'call f("{call.question}"; ...) has no assigned role')
    sub = project(t, _context_names(call, resolved_names or {}))

    def ask(prompt: str) -> str:
        req = CompletionRequest(prompt, cfg.temperature, cfg.top_p,
                                cfg.max_output_tokens, 1, cfg.stop)
        return backend.complete(req)[0]

    name = _generated_name(t, ordinal, call.question)
    if call.role == "map":
        demos = retrieve_exec_demos(call.question, pool, cfg.num_demos)
        prompt = build_map_prompt(call.question, sub, demos)
        response = ask(prompt)
        row_ids = [int(v) for v in t.column(ROW_ID).cells]
        parsed = parse_map_response(response, row_ids, call.question)
        return Resolution(call, Column(name, "text", parsed.cells), name, prompt, response)
    prompt = build_val_prompt(call.question, sub)
    response = ask(prompt)
    return Resolution(call, parse_val_response(response), name, prompt, response)


# ---- rewriting ----

def rewrite(p: Program, resolutions: list, t: Table):
    """Substitute every resolved call and append the generated columns.

    Map resolutions become ColumnRefs over columns augmented onto t; val
    resolutions become literals. The returned program is plain SQL.
    """
    by_id = {id(r.call): r for r in resolutions}

    def substitute(node):
        if not isinstance(node, ApiCall):
            return map_children(node, substitute)
        res = by_id.get(id(node))
        if res is None:
            raise EvalError(f'no resolution for f("{node.question}"; ...)')
        if isinstance(res.outcome, Column):
            return ColumnRef(res.generated_name)
        return Literal(res.outcome)

    table = t
    for r in resolutions:
        if isinstance(r.outcome, Column):
            table = augment(table, r.outcome)
    return Program(substitute(p.root), p.source_text), table


# ---- driver ----

@dataclass
class ExecutionTrace:
    answer: Answer
    resolutions: list
    rewritten: Optional[Program] = None


def run_program(p: Program, t: Table, backend: Backend, pool=None,
                cfg: ExecutionConfig = ExecutionConfig()) -> ExecutionTrace:
    """Full execution with per-call trace. Resolutions are strictly
    sequential in bottom-up order; call-free programs never touch the
    backend."""
    tagged = assign_roles(p)
    calls = api_calls_bottom_up(tagged)
    if not calls:
        return ExecutionTrace(denotation_to_answer(execute_sql(tagged, t)), [], tagged)
    if pool is None:
        pool = default_exec_demos()
    working = t
    resolved_names: dict = {}
    resolutions = []
    for ordinal, call in enumerate(calls):
        try:
            res = resolve_call(call, working, backend, pool, cfg, resolved_names, ordinal)
        except Exception as e:
            raise ResolutionError(call.question, e) from e
        resolutions.append(res)
        if isinstance(res.outcome, Column):
            working = augment(working, res.outcome)
            resolved_names[id(call)] = res.generated_name
    pure, table = rewrite(tagged, resolutions, t)
    answer = denotation_to_answer(execute_sql(pure, table))
    return ExecutionTrace(answer, resolutions, pure)


def execute_binder(p: Program, t: Table, backend: Backend, pool=None,
                   cfg: ExecutionConfig = ExecutionConfig()) -> Answer:
    """Resolve calls bottom-up, rewrite to plain SQL, execute, and flatten."""
    return run_program(p, t, backend, pool, cfg).answer
