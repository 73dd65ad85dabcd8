"""Command-line entry point: parse, exec, run, eval, repl.

Exit codes: 0 ok, 2 config, 3 IO, 4 backend, 5 syntax.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import Optional

from .backend import (Backend, CompletionRequest, HttpBackend, NullBackend,
                      mock_from_fixtures, with_cache)
from .engine import Answer
from .errors import (BackendError, BudgetExhausted, ConfigError, FormatError,
                     IoError, LmSqlError, ParseError, ResolutionError)
from .interp import ExecutionTrace, default_exec_demos, load_exec_demos, run_program
from .metrics import JUDGES, evaluate_dataset
from .prompts import (INSTRUCTIONS, PRESETS, GenerationConfig, load_exemplars,
                      parse_candidates, plan_parse_prompt, sample_candidates)
from .syntax import Program, parse, print_program
from .table import (Column, Table, load_table, normalize, read_json, read_text,
                    table_from_json, text_fields)
from .voting import STRATEGIES, Candidate, vote

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BACKEND = 4
EXIT_SYNTAX = 5


_PATHS = ("dataset", "exemplars", "exec_demo_pool", "cache_dir")
_BACKEND_VALUES = {"mock": (str, type(None)), "remote": dict, "none": object}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    backend: dict = field(default_factory=lambda: {"mock": None})
    dataset: Optional[str] = None
    exemplars: Optional[str] = None
    exec_demo_pool: Optional[str] = None
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    vote_strategy: str = "program-biased"
    cache_dir: Optional[str] = None
    parallelism: int = 1
    seed: int = 0
    instruction: str = INSTRUCTIONS["wikitq"]

    def __post_init__(self):
        """The one check of a run configuration, wherever its values came from."""
        if not (isinstance(self.backend, dict) and len(self.backend) == 1):
            raise ConfigError("exactly one backend variant must be set")
        (kind, value), = self.backend.items()
        if kind not in _BACKEND_VALUES:
            raise ConfigError(f"unknown backend kind {kind!r}")
        if not isinstance(value, _BACKEND_VALUES[kind]):
            raise ConfigError(f"bad value for backend {kind!r}: {value!r}")
        if kind == "remote" and not all(isinstance(value.get(k, ""), str)
                                        for k in ("endpoint", "model", "key_env")):
            raise ConfigError("remote backend endpoint, model and key_env must be strings")
        for name in _PATHS:
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path string")
        if not isinstance(self.instruction, str):
            raise ConfigError("instruction must be a string")
        if not (isinstance(self.vote_strategy, str) and self.vote_strategy in STRATEGIES):
            raise ConfigError(f"unknown vote strategy {self.vote_strategy!r} "
                              f"(have: {sorted(STRATEGIES)})")
        if not _is_int(self.seed):
            raise ConfigError("seed must be an integer")
        g = self.generation
        for name, value, least in (("parallelism", self.parallelism, 1),
                                   ("generation.sampling_n", g.sampling_n, 1),
                                   ("generation.num_shots", g.num_shots, 0)):
            if not _is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}")
        try:  # the parse requests this run will send must be valid
            CompletionRequest("", g.temperature, n=g.sampling_n)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad generation value: {e}")


def _known_keys(obj, cls, what: str) -> dict:
    """A copy of the config object obj, whose keys must be fields of cls."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(obj) - {f.name for f in dc_fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(obj)


def load_run_config(path: Optional[str], args: argparse.Namespace) -> RunConfig:
    """The defaults, overridden by the config file's values (its paths are
    relative to the file), overridden by the flags; RunConfig checks them."""
    values: dict = {}
    if path:
        p = Path(path)
        try:
            raw = read_json(p, "config")
        except FormatError as e:
            raise ConfigError(str(e))
        values = _known_keys(raw, RunConfig, "config")
        for key in _PATHS:
            if isinstance(values.get(key), str):
                values[key] = str(p.parent / values[key])
        backend = values.get("backend")
        if isinstance(backend, dict) and isinstance(backend.get("mock"), str) and backend["mock"]:
            values["backend"] = {**backend, "mock": str(p.parent / backend["mock"])}
        if "generation" in values:
            values["generation"] = GenerationConfig(
                **_known_keys(values["generation"], GenerationConfig, "generation"))
    if getattr(args, "backend", None):
        spec = args.backend
        if spec == "none":
            values["backend"] = {"none": True}
        elif spec.startswith("mock:"):
            values["backend"] = {"mock": spec[len("mock:"):]}
        elif spec.startswith("remote:"):
            values["backend"] = {"remote": {"endpoint": spec[len("remote:"):]}}
        else:
            raise ConfigError(f"--backend must be mock:PATH, remote:URL or none, got {spec!r}")
    for flag, key in (("dataset", "dataset"), ("exemplars", "exemplars"),
                      ("demo_pool", "exec_demo_pool"), ("cache_dir", "cache_dir"),
                      ("strategy", "vote_strategy"), ("parallelism", "parallelism"),
                      ("seed", "seed")):
        value = getattr(args, flag, None)
        if value is not None:
            values[key] = value
    gen_overrides = {}
    if getattr(args, "dataset_style", None):
        gen_overrides = dict(PRESETS[args.dataset_style])
        values["instruction"] = INSTRUCTIONS[args.dataset_style]
    if getattr(args, "n", None) is not None:
        gen_overrides["sampling_n"] = args.n
    if getattr(args, "temperature", None) is not None:
        gen_overrides["temperature"] = args.temperature
    if gen_overrides:
        values["generation"] = replace(values.get("generation", GenerationConfig()),
                                       **gen_overrides)
    return RunConfig(**values)


def make_backend(cfg: RunConfig) -> Backend:
    (kind, value), = cfg.backend.items()
    if kind == "mock":
        if not value:
            raise ConfigError("mock backend needs a fixture file path")
        backend: Backend = mock_from_fixtures(value)
    elif kind == "remote":
        import os
        endpoint = value.get("endpoint")
        if not endpoint:
            raise ConfigError("remote backend needs an endpoint")
        key_env = value.get("key_env", "LMSQL_API_KEY")
        backend = HttpBackend(endpoint, model=value.get("model", ""),
                              api_key=os.environ.get(key_env, ""))
    else:
        backend = NullBackend()
    return with_cache(backend, cfg.cache_dir, seed=cfg.seed)


@dataclass
class Run:
    """What one command's examples share, set up by start_run: the checked
    config, the backend with the run's cache, the parse exemplars, the
    execution-demo pool, the normalized tables loaded so far, by path, and,
    in `run`, the pool that sends a program's model calls."""
    cfg: RunConfig
    backend: Optional[Backend] = None
    exemplars: list = field(default_factory=list)
    pool: Optional[list] = None
    tables: dict = field(default_factory=dict)
    call_executor: Optional[Executor] = None

    def table(self, path: str) -> Table:
        """The normalized table at path, loaded once per Run, on the main thread."""
        if path not in self.tables:
            self.tables[path] = normalize(load_table(path))
        return self.tables[path]


def start_run(args) -> Run:
    """The command's Run, loaded in this order: the config; the backend, for
    `parse` and `run`; the command's table; the exemplars, for `parse` and
    `run`; the demo pool, for all but `parse`."""
    cfg = load_run_config(args.config, args)
    command, table = args.command, getattr(args, "table", None)
    if command == "run" and not cfg.dataset:
        raise ConfigError("run needs a dataset (positional or config)")
    parses = command in ("parse", "run")
    run = Run(cfg, make_backend(cfg) if parses else None)
    if table:
        run.table(table)
    if parses:
        run.exemplars = load_exemplars(cfg.exemplars) if cfg.exemplars else []
        if not run.exemplars:
            raise ConfigError(f"{command} needs an exemplar file (--exemplars or config)")
    if command != "parse":
        run.pool = load_exec_demos(cfg.exec_demo_pool) if cfg.exec_demo_pool else default_exec_demos()
    return run


def _table_for_example(example: dict, run: Run, where: str) -> Table:
    """The example's normalized table. A table_path, relative to the
    dataset, is loaded once per Run; an inline table is built anew each time."""
    if "table" in example:
        return normalize(table_from_json(example["table"]))
    if "table_path" in example:
        path, = text_fields(example, ("table_path",), where)
        return run.table(str(Path(run.cfg.dataset).parent / path))
    raise FormatError(f"{where} has neither table nor table_path")


def _read_jsonl(path: str) -> list:
    """(where, value) for each non-blank line, where naming the file and
    line. The value of a line that is not JSON is its FormatError. Only "\n"
    ends a line: JSON text may hold U+2028 and the other characters that
    str.splitlines() also breaks at."""
    p = Path(path)
    records = []
    for i, line in enumerate(read_text(p).split("\n")):
        if not line.strip():
            continue
        where = f"{p.name} line {i + 1}"
        try:
            records.append((where, json.loads(line)))
        except ValueError as e:  # bad JSON, or an integer too long to convert
            records.append((where, FormatError(f"{where}: {e}")))
    return records


def _eval_records(path: str, answer_key: str, with_question: bool = False) -> dict:
    """id -> (answer values, question) for each line of a results or gold
    file; the question is read only with_question, and is "" if absent. An
    id given twice is an error, since only one of its answers could count."""
    out, first_seen = {}, {}
    for where, r in _read_jsonl(path):
        if isinstance(r, FormatError):
            raise r
        if not isinstance(r, dict):
            raise FormatError(f"{where}: expected an object, got {type(r).__name__}")
        rid, values = r.get("id"), r.get(answer_key, [])
        question = r.get("question", "") if with_question else ""
        if isinstance(rid, (list, dict)):
            raise FormatError(f"{where}: field 'id' must be a string or a number")
        if not isinstance(values, list):
            raise FormatError(f"{where}: field {answer_key!r} must be a list, "
                              f"got {type(values).__name__}")
        if not isinstance(question, str):
            raise FormatError(f"{where}: field 'question' must be a string")
        if rid in first_seen:
            raise FormatError(f"{first_seen[rid]}: id {rid!r} is repeated on {where}")
        first_seen[rid] = where
        out[rid] = (values, question)
    return out


# ---- commands ----

def cmd_parse(args) -> int:
    run = start_run(args)
    plan = plan_parse_prompt(run.cfg.instruction, run.exemplars, run.table(args.table),
                             Path(args.table).stem, args.question, run.cfg.generation)
    texts = sample_candidates(run.backend, plan.text, run.cfg.generation)
    programs = parse_candidates(texts)
    for i, (text, prog) in enumerate(zip(texts, programs)):
        status = "ok" if isinstance(prog, Program) else f"syntax-error: {prog}"
        print(f"#{i}\t{status}")
        print(text)
    return EXIT_OK


def _execute_candidate(index: int, item, table: Table, run: Run) -> Candidate:
    if not isinstance(item, Program):
        return Candidate(index, item, None)
    try:
        trace = run_program(item, table, run.backend, run.pool, run.call_executor)
    except LmSqlError as e:
        # without its traceback, whose frames hold the table, the worker
        # thread's work item and through it this very Candidate
        return Candidate(index, item, e.with_traceback(None))
    return Candidate(index, item, trace.answer)


def _print_trace(trace: ExecutionTrace) -> None:
    """Each model call's prompt, response and (for a map call) materialized
    column, then the rewritten plain SQL."""
    for res in trace.resolutions:
        is_column = isinstance(res.outcome, Column)
        role = "column" if is_column else "value"
        print(f'--- call f("{res.call.question}"; ...) -> {role} {res.generated_name}')
        print("--- prompt:")
        print(res.prompt)
        print("--- response:")
        print(res.response)
        if is_column:
            print("--- materialized:")
            print("\t".join("" if c is None else str(c) for c in res.outcome.cells))
    print(f"--- rewritten: {print_program(trace.rewritten)}")


def _execute(run: Run, text: str, table_path: str, trace: bool) -> list:
    """The displayed answer of one `exec` or `repl` program, after its trace
    if asked. The backend is built for the first program with model calls,
    so a call-free program needs none configured."""
    program = parse(text)
    if run.backend is None and program.calls:
        run.backend = make_backend(run.cfg)
    result = run_program(program, run.table(table_path), run.backend or NullBackend(), run.pool)
    if trace:
        _print_trace(result)
    return result.answer.display()


def cmd_exec(args) -> int:
    run = start_run(args)
    print("\t".join(_execute(run, args.program, args.table, args.trace)))
    return EXIT_OK


def _run_example(example: dict, run: Run, executor: Executor) -> dict:
    """Parse, execute and vote one example. Each distinct candidate text is
    parsed and run once: the backend answers identical requests identically
    within a run, so its duplicates share the outcome and keep their own
    index."""
    record = {"id": example.get("id") if isinstance(example, dict) else None}
    where = f"example {record['id']!r}"
    cfg = run.cfg
    try:
        question, = text_fields(example, ("question",), where)
        table = _table_for_example(example, run, where)
        plan = plan_parse_prompt(cfg.instruction, run.exemplars, table,
                                 example.get("title", "w"), question, cfg.generation)
        texts = sample_candidates(run.backend, plan.text, cfg.generation)
        first = {}  # candidate text -> index of its first occurrence
        for i, text in enumerate(texts):
            first.setdefault(text, i)
        programs = dict(zip(first, parse_candidates(list(first))))
        outcomes = dict(zip(first, executor.map(
            lambda text: _execute_candidate(first[text], programs[text], table, run), first)))
        cands = [replace(outcomes[text], index=i) for i, text in enumerate(texts)]
        answer, report = vote(cands, cfg.vote_strategy)
        record["candidates"] = [
            {
                "program": texts[c.index],
                "parsed": isinstance(c.program, Program),
                "has_api_call": c.has_api_call,
                "answer": c.answer.display() if isinstance(c.answer, Answer) else None,
                "error": None if c.ok() else str(c.answer if isinstance(c.program, Program) else c.program),
            }
            for c in cands
        ]
        record["vote_report"] = report.to_dict()
        record["final_answer"] = answer.display()
    except LmSqlError as e:
        record["error"] = str(e)
        record["final_answer"] = []
    return record


def cmd_run(args) -> int:
    run = start_run(args)
    lines = _read_jsonl(run.cfg.dataset)
    out_path = Path(args.output) if args.output else Path("results.jsonl")
    workers = run.cfg.parallelism
    try:
        # two pools: a candidate waits on its calls, so they must not share
        # workers, and the call pool closes after the candidates' pool
        with ThreadPoolExecutor(max_workers=workers) as calls, \
                ThreadPoolExecutor(max_workers=workers) as executor, \
                out_path.open("w", encoding="utf-8") as fh:
            run.call_executor = calls
            for _, example in lines:
                record = ({"id": None, "error": str(example), "final_answer": []}
                          if isinstance(example, FormatError)
                          else _run_example(example, run, executor))
                fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {out_path}: {e}")
    print(f"wrote {len(lines)} records to {out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    results = _eval_records(args.results, "final_answer")
    golds = _eval_records(args.gold, "gold", with_question=True)
    if set(results) != set(golds):
        missing = set(results) ^ set(golds)
        raise IoError(f"results and gold ids do not align (mismatched: {sorted(missing, key=str)[:5]})")
    triples = [(Answer(tuple(results[rid][0])), Answer(tuple(gold)), question)
               for rid, (gold, question) in golds.items()]
    judges = list(JUDGES) if args.all else [args.judge]
    per_example = None
    for name in judges:
        report = evaluate_dataset(triples, name)
        acc = "n/a" if report.accuracy is None else f"{report.accuracy:.4f}"
        print(f"{name}\t{acc}\t({report.matched}/{report.total})")
        if name == (args.judge if not args.all else "semantic"):
            per_example = report
    if args.output and per_example is not None:
        ids = list(golds)
        payload = [
            {
                "id": ids[i],
                "pred": list(triples[i][0].values),
                "gold": list(triples[i][1].values),
                "matched": o.matched,
                "matcher_used": o.matcher_used,
            }
            for i, o in enumerate(per_example.outcomes)
        ]
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8")
    return EXIT_OK


def cmd_repl(args) -> int:
    run = start_run(args)
    table = run.table(args.table)
    print(f"table {args.table}: {table.row_count} rows, columns "
          f"{', '.join(table.column_names())}. Blank line or 'exit' quits.")
    while True:
        try:
            line = input("lmsql> ").strip()
        except EOFError:
            break
        if not line or line in ("exit", "quit"):
            break
        try:
            print("\t".join(_execute(run, line, args.table, args.trace)) or "<empty>")
        except LmSqlError as e:
            print(f"error: {e}", file=sys.stderr)
    return EXIT_OK


# ---- argument parsing / dispatch ----

# every run flag, in --help order; argparse names each one's dest after it
_FLAGS = {
    "--config": dict(help="JSON run-config file"),
    "--backend": dict(help="mock:PATH, remote:URL, or none"),
    "--exemplars": dict(help="exemplar JSON file"),
    "--demo-pool": dict(help="execution demo pool JSON file"),
    "--cache-dir": dict(help="response cache directory"),
    "--n": dict(type=int, help="candidate programs to sample"),
    "--temperature": dict(type=float),
    "--strategy": dict(choices=sorted(STRATEGIES)),
    "--dataset-style": dict(choices=sorted(INSTRUCTIONS),
                            help="generation defaults + instruction preset"),
    "--parallelism": dict(type=int),
    "--seed": dict(type=int),
}
# `exec` and `repl` send only map and val requests, at temperature 0, whose
# cache key leaves the seed out; `parse` votes on nothing and runs no program
_EXEC_FLAGS = ("--config", "--backend", "--demo-pool", "--cache-dir")
_PARSE_FLAGS = ("--config", "--backend", "--exemplars", "--cache-dir", "--n", "--temperature",
                "--dataset-style", "--seed")


def _add_flags(sp: argparse.ArgumentParser, flags=tuple(_FLAGS)) -> None:
    for flag, options in _FLAGS.items():
        if flag in flags:
            sp.add_argument(flag, **options)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lmsql",
                                 description="Question answering over tables via "
                                             "SQL extended with model calls.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="sample candidate programs for a question")
    sp.add_argument("question")
    sp.add_argument("table", help="table file (csv/tsv/json)")
    _add_flags(sp, _PARSE_FLAGS)
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("exec", help="execute one program against a table")
    sp.add_argument("program")
    sp.add_argument("table")
    sp.add_argument("--trace", action="store_true")
    _add_flags(sp, _EXEC_FLAGS)
    sp.set_defaults(fn=cmd_exec)

    sp = sub.add_parser("run", help="parse + execute + vote over a dataset")
    sp.add_argument("dataset", nargs="?", help="JSONL of {id, question, table_path|table, gold}")
    sp.add_argument("--output", "-o", help="results JSONL path (default results.jsonl)")
    _add_flags(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("eval", help="score a results file against gold answers")
    sp.add_argument("results")
    sp.add_argument("gold", help="dataset JSONL with gold answers")
    sp.add_argument("--judge", choices=sorted(JUDGES), default="semantic")
    sp.add_argument("--all", action="store_true", help="print all three judges")
    sp.add_argument("--output", "-o", help="write per-example report JSON here")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("repl", help="interactive program execution")
    sp.add_argument("table")
    sp.add_argument("--trace", action="store_true")
    _add_flags(sp, _EXEC_FLAGS)
    sp.set_defaults(fn=cmd_repl)
    return ap


def _exit_code_for(err: Exception) -> int:
    if isinstance(err, ResolutionError):
        return _exit_code_for(err.cause)
    if isinstance(err, ConfigError):
        return EXIT_CONFIG
    if isinstance(err, (IoError, FormatError)):
        return EXIT_IO
    if isinstance(err, BackendError):
        return EXIT_BACKEND
    if isinstance(err, ParseError):
        return EXIT_SYNTAX
    if isinstance(err, BudgetExhausted):
        return EXIT_CONFIG
    return 1


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LmSqlError as e:
        print(f"lmsql: {e}", file=sys.stderr)
        return _exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
