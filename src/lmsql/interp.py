"""Execution stage: resolve model calls bottom-up, substitute each by its
result as a column or a scalar, and run the resulting plain SQL.

Map calls send the context sub-table row by row and read back an aligned
answer column; val calls read a single value. An outer call sees the
columns of the calls nested in its arguments; calls that do not nest are
in flight together. Every resolved column is appended to the working table
in post-order.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Optional

from .backend import Backend, CompletionRequest
from .engine import Answer, execute_sql
from .errors import EvalError, FormatError, MalformedResponse, ResolutionError
from .syntax import (ApiCall, ColumnRef, Literal, Program, api_calls_bottom_up,
                     assign_roles, map_children)
from .table import (ROW_ID, Column, Table, augment, one_line, project, read_json,
                    table_lines, text_fields)


NUM_DEMOS = 8  # pool demos retrieved for each map prompt
MAX_OUTPUT_TOKENS = 1024  # of each map or val reply


@dataclass(frozen=True)
class ExecDemo:
    """One annotated map exemplar: a sub-table, a question, and the same
    sub-table with the answer column appended."""
    title: str
    column_block: str
    question: str
    answer_block: str

    def __post_init__(self):
        if not self.column_block or not self.answer_block:
            raise FormatError(f"demo {self.title!r}: empty block")
        have = len(_fields(self.column_block.split("\n")[0]))
        want = len(_fields(self.answer_block.split("\n")[0]))
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
    if "\t" in line:  # empty fields kept, so that a blank answer reads as blank
        return [p.strip() for p in line.split("\t")]
    return [p.strip() for p in re.split(r"\s{2,}", line) if p.strip()]


# ---- prompts ----

def _database_block(title: str, table_text: str, question_line: str) -> str:
    """The frame every execution prompt block shares: a table, then a question."""
    return (
        "Give a database as shown below:\n"
        f"Table: {title}\n"
        "/*\n"
        f"{table_text}\n"
        "*/\n"
        f"{question_line}"
    )


def _map_block(title: str, table_text: str, question: str) -> str:
    return _database_block(title, table_text,
                           f'Q: Answer question "{question}" row by row.\nQA map@ output:')


def build_map_prompt(question: str, sub: Table, demos: list) -> str:
    """Demos first, then the query block; ends right after the output marker."""
    blocks = [_map_block(d.title, d.column_block, d.question) + f"\n/*\n{d.answer_block}\n*/"
              for d in demos]
    blocks.append(_map_block(sub.title, table_lines(sub, sub.rows()), one_line(question)))
    return "\n\n".join(blocks) + "\n"


def build_val_prompt(question: str, sub: Table) -> str:
    """Single-value variant: same table block, then a bare QA line."""
    return _database_block(sub.title, table_lines(sub, sub.rows()), f"Q: {question}\nA:")


# ---- response parsing ----

_ROW_ID_RE = re.compile(r"^(\d+)\s*[.,]?$")
_OPEN_RE, _CLOSE_RE = re.compile(r"^/\*", re.M), re.compile(r"^\*/", re.M)  # at line starts


def parse_map_response(text: str, sub: Table, question: str) -> Column:
    """Parse the emitted sub-table and align it by row_id with sub, the
    sub-table the prompt showed.

    The block ends at the first line that starts with "*/", as no row line
    does. Missing row ids, blank answers and lines with fewer fields than
    sub's columns plus the answer become null; duplicates keep the last
    occurrence; columns between row_id and the final answer column are ignored.
    """
    row_ids = [int(v) for v in sub.column(ROW_ID).cells]
    width = len(sub.columns) + 1
    start = _OPEN_RE.search(text)
    body = text[start.end():] if start else text
    end = _CLOSE_RE.search(body)
    answers: dict = {}
    for line in body[:end.start() if end else None].split("\n"):
        fields = _fields(line)
        if len(fields) < 2:
            continue
        m = _ROW_ID_RE.match(fields[0])
        if not m:
            continue  # header or commentary line
        short = len(fields) < width  # the line has no answer field
        answers[int(m.group(1))] = None if short else fields[-1].lower() or None
    if not answers:
        raise MalformedResponse(
            f'no parseable rows in map response for "{question}": {text[:200]!r}')
    cells = tuple(answers.get(rid) for rid in row_ids)
    return Column(question, "text", cells)


def parse_val_response(text: str) -> Optional[str]:
    for line in text.split("\n"):
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
    """Smoothed modified-precision overlap of two _profiles' 1..4-grams, with
    a brevity penalty; 0 when either side is empty."""
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


def retrieve_exec_demos(question: str, pool: list, k: int) -> list:
    """Top-k pool demos by question similarity; ties keep pool order."""
    if k <= 0:
        return []
    hyp = _profile(question)
    scored = sorted(enumerate(pool), key=lambda e: (-_similarity(hyp, e[1].question_profile), e[0]))
    return [demo for _, demo in scored[:k]]


# ---- pool files ----

def load_exec_demos(path) -> list:
    """JSON array of {title, column_block, question, answer_block}."""
    name = Path(path).name
    return [ExecDemo(*text_fields(entry, ("title", "column_block", "question", "answer_block"),
                                  f"{name}[{i}]"))
            for i, entry in enumerate(read_json(path, "demo pool", array=True))]


@cache
def default_exec_demos() -> list:
    """The packaged execution-stage demo pool, loaded once per process."""
    return load_exec_demos(Path(__file__).parent / "data" / "exec_demos.json")


# ---- resolution ----

def _hash8(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def _generated_names(calls: list, t: Table) -> list:
    """Each call's column name, col_<post-order ordinal>_<question hash>,
    bumped past t's columns and the columns of the map calls before it: the
    names that resolving one call at a time in post-order gives."""
    taken = set(t.column_names())
    names = []
    for ordinal, call in enumerate(calls):
        bump = ordinal
        while (name := f"col_{bump}_{_hash8(call.question)}") in taken:
            bump += 1
        names.append(name)
        if call.role == "map":
            taken.add(name)
    return names


def resolve_call(call: ApiCall, t: Table, backend: Backend, pool: list, name: str) -> Resolution:
    """Resolve one call whose arguments are columns of t, under the generated
    column name `name`: nested calls must already be substituted by their
    generated columns."""
    if call.role not in ("map", "val"):
        raise EvalError(f'call f("{call.question}"; ...) has no assigned role')
    if not all(isinstance(arg, ColumnRef) for arg in call.args):
        raise EvalError(f'call f("{call.question}"; ...) has an argument that is not a column; '
                        "resolve nested calls first")
    sub = project(t, [arg.name for arg in call.args])

    def ask(prompt: str) -> str:
        return backend.complete(CompletionRequest(prompt, max_output_tokens=MAX_OUTPUT_TOKENS))[0]

    if call.role == "map" and not t.row_count:  # no row to ask about: no request
        return Resolution(call, Column(name, "text", ()), name, "", "")
    if call.role == "map":
        demos = retrieve_exec_demos(call.question, pool, NUM_DEMOS)
        prompt = build_map_prompt(call.question, sub, demos)
        response = ask(prompt)
        parsed = parse_map_response(response, sub, call.question)
        return Resolution(call, Column(name, "text", parsed.cells), name, prompt, response)
    prompt = build_val_prompt(call.question, sub)
    response = ask(prompt)
    return Resolution(call, parse_val_response(response), name, prompt, response)


# ---- driver ----

@dataclass
class ExecutionTrace:
    answer: Answer
    resolutions: list
    rewritten: Program


def _operand(res: Resolution):
    """What a resolved call becomes in its program: its column or its value."""
    return ColumnRef(res.generated_name) if isinstance(res.outcome, Column) else Literal(res.outcome)


def _call_arguments(calls: list) -> list:
    """For each call of a post-order list, the positions of the calls among
    its arguments: the last roots completed before it."""
    roots, out = [], []
    for i, call in enumerate(calls):
        start = len(roots) - sum(isinstance(a, ApiCall) for a in call.args)
        out.append(roots[start:])
        del roots[start:]
        roots.append(i)
    return out


def _resolve(call: ApiCall, t: Table, backend: Backend, pool: list, name: str) -> Resolution:
    """resolve_call, with any failure raised as a ResolutionError."""
    try:
        return resolve_call(call, t, backend, pool, name)
    except Exception as e:
        raise ResolutionError(call.question, e) from e


def _outcome(job: tuple):
    """_resolve(*job), or the ResolutionError it raises."""
    try:
        return _resolve(*job)
    except ResolutionError as e:
        return e


def _run_wave(wave: list, jobs: list, executor: Optional[Executor], done: list) -> None:
    """Set done[i] to the _outcome of each position i of the wave and its job.
    The first job runs on this thread; the others run on the executor's
    workers meanwhile, or here after it. A pool task raises its error, not
    returns it: a work item lets go of its Future only when its task raises,
    and a Future held through the error's own frames would be a cycle."""
    if executor is None:
        for i, job in zip(wave, jobs):
            done[i] = _outcome(job)
        return
    pending = [executor.submit(_resolve, *job) for job in jobs[1:]]
    done[wave[0]] = _outcome(jobs[0])
    for i, future in zip(wave[1:], pending):
        error = future.exception()
        done[i] = error if isinstance(error, ResolutionError) else future.result()


def _resolve_calls(calls: list, t: Table, backend: Backend, pool: list,
                   executor: Optional[Executor]) -> list:
    """The Resolution of each call of a post-order list, in that order, or the
    ResolutionError of the first call in post-order that fails.

    The calls go in waves: each wave holds every call before the first failure
    whose argument calls are all resolved, so a call waits only for the calls
    nested in its arguments, and one whose argument failed is never sent. A
    call sees t plus its argument calls' columns, under a name fixed before
    any request goes out."""
    names = _generated_names(calls, t)
    arguments = _call_arguments(calls)
    done: list = [None] * len(calls)  # a Resolution or a ResolutionError
    failed = len(calls)  # the position of the first failure
    while True:
        wave = [i for i in range(failed)
                if done[i] is None and all(done[j] is not None for j in arguments[i])]
        if not wave:
            break
        jobs = []
        for i in wave:
            results = iter([done[j] for j in arguments[i]])
            call = replace(calls[i], args=tuple(_operand(next(results)) if isinstance(a, ApiCall)
                                                else a for a in calls[i].args))
            table = t
            for j in arguments[i]:
                if isinstance(done[j].outcome, Column):
                    table = augment(table, done[j].outcome)
            jobs.append((call, table, backend, pool, names[i]))
        _run_wave(wave, jobs, executor, done)
        failed = min((i for i in wave if isinstance(done[i], ResolutionError)), default=failed)
    if failed < len(calls):
        try:
            raise done[failed]
        finally:  # the errors' frames hold done: emptied, it ties no cycle
            done.clear()
    return done


def _substitute_calls(node, substitute):
    """A copy of node with every call c replaced by substitute(c), where c's
    arguments are already substituted: a post-order map_children pass. It
    is not a closure that recurses into itself, because such a closure is a
    reference cycle that keeps the working table alive until gc runs."""
    node = map_children(node, lambda child: _substitute_calls(child, substitute))
    return substitute(node) if isinstance(node, ApiCall) else node


def run_program(p: Program, t: Table, backend: Backend, pool=None,
                executor: Optional[Executor] = None) -> ExecutionTrace:
    """Full execution with per-call trace. The calls are resolved in waves
    (_resolve_calls), with each wave's calls in flight at once on executor's
    workers, so the wait is the depth of the call tree, not the number of
    calls. Without an executor each wave runs on the calling thread. Names,
    the working table's column order, the resolutions and the error raised
    follow the calls' post-order, whatever order they complete in. Call-free
    programs never touch the backend. The answer is the result rows
    flattened in row-major order."""
    program = assign_roles(p)
    calls = api_calls_bottom_up(program)
    working = t
    resolutions: list = []
    if calls:
        resolutions = _resolve_calls(calls, t, backend,
                                     default_exec_demos() if pool is None else pool, executor)
        for res in resolutions:
            if isinstance(res.outcome, Column):
                working = augment(working, res.outcome)
        operands = iter([_operand(res) for res in resolutions])
        program = Program(_substitute_calls(program.root, lambda call: next(operands)),
                          program.source_text)
    rows = execute_sql(program, working)
    return ExecutionTrace(Answer(tuple(v for row in rows for v in row)), resolutions, program)
