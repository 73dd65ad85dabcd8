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
from .interp import (ExecutionConfig, ExecutionTrace, default_exec_demos,
                     load_exec_demos, run_program)
from .metrics import JUDGES, evaluate_dataset
from .prompts import (INSTRUCTIONS, GenerationConfig, load_exemplars,
                      parse_candidates, plan_parse_prompt, sample_candidates)
from .syntax import Program, parse, print_program
from .table import (Column, Table, load_table, normalize, read_json, table_from_json,
                    text_fields)
from .voting import STRATEGIES, Candidate, vote

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BACKEND = 4
EXIT_SYNTAX = 5


_PATHS = ("dataset", "exemplars", "exec_demo_pool", "cache_dir")
_PRESET_KEYS = ("temperature", "sampling_n", "num_shots")  # what --dataset-style sets
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
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
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
        g, x = self.generation, self.execution
        for name, value, least in (("parallelism", self.parallelism, 1),
                                   ("generation.sampling_n", g.sampling_n, 1),
                                   ("generation.num_shots", g.num_shots, 0),
                                   ("generation.token_budget", g.token_budget, 0),
                                   ("execution.num_demos", x.num_demos, 0)):
            if not _is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}")
        for name, c, n in (("generation", g, g.sampling_n), ("execution", x, 1)):
            try:  # the requests this run will send must be valid
                CompletionRequest("", c.temperature, c.top_p, c.max_output_tokens, n, c.stop)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad {name} value: {e}")


def _known_keys(obj, cls, what: str) -> dict:
    """A copy of the config object obj, whose keys must be fields of cls."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(obj) - {f.name for f in dc_fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(obj)


def _generation_from_dict(obj) -> GenerationConfig:
    obj = _known_keys(obj, GenerationConfig, "generation")
    if "stop" in obj:
        obj["stop"] = tuple(obj["stop"])
    return GenerationConfig(**obj)


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
        try:
            if "generation" in values:
                values["generation"] = _generation_from_dict(values["generation"])
            if "execution" in values:
                values["execution"] = ExecutionConfig(
                    **_known_keys(values["execution"], ExecutionConfig, "execution"))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad config value: {e}")
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
        preset = GenerationConfig.for_dataset(args.dataset_style)
        gen_overrides = {key: getattr(preset, key) for key in _PRESET_KEYS}
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


def _load_pool(cfg: RunConfig):
    if cfg.exec_demo_pool:
        return load_exec_demos(cfg.exec_demo_pool)
    return default_exec_demos()


def _load_normalized_table(path: str) -> Table:
    return normalize(load_table(path))


def _table_for_example(example: dict, dataset_dir: Path, tables: dict,
                       where: str) -> Table:
    """The example's normalized table. A table_path is loaded once per
    `tables`, which maps each path resolved against dataset_dir to its Table;
    an inline table is built anew each time."""
    if "table" in example:
        return normalize(table_from_json(example["table"]))
    if "table_path" in example:
        path, = text_fields(example, ("table_path",), where)
        key = dataset_dir / path
        if key not in tables:
            tables[key] = _load_normalized_table(str(key))
        return tables[key]
    raise FormatError(f"{where} has neither table nor table_path")


def _read_jsonl(path: str) -> list:
    """(where, value) for each non-blank line, where naming the file and line."""
    p = Path(path)
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise IoError(f"cannot read {p}: {e}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{p.name} is not UTF-8 text: {e}")
    records = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"{p.name} line {i + 1}"
        try:
            records.append((where, json.loads(line)))
        except json.JSONDecodeError as e:
            raise FormatError(f"{where}: {e}")
    return records


def _eval_records(path: str, answer_key: str, with_question: bool = False) -> dict:
    """id -> (answer values, question) for each line of a results or gold
    file; the question is read only with_question, and is "" if absent. An
    id given twice is an error, since only one of its answers could count."""
    out, first_seen = {}, {}
    for where, r in _read_jsonl(path):
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
    cfg = load_run_config(args.config, args)
    backend = make_backend(cfg)
    table = _load_normalized_table(args.table)
    exemplars = load_exemplars(cfg.exemplars) if cfg.exemplars else []
    if not exemplars:
        raise ConfigError("parsing needs an exemplar file (--exemplars or config)")
    plan = plan_parse_prompt(cfg.instruction, exemplars, table,
                             Path(args.table).stem, args.question, cfg.generation)
    texts = sample_candidates(backend, plan.text, cfg.generation)
    programs = parse_candidates(texts)
    for i, (text, prog) in enumerate(zip(texts, programs)):
        status = "ok" if isinstance(prog, Program) else f"syntax-error: {prog}"
        print(f"#{i}\t{status}")
        print(text)
    return EXIT_OK


def _execute_candidate(index: int, item, table: Table, backend: Backend, pool,
                       exec_cfg: ExecutionConfig) -> Candidate:
    if not isinstance(item, Program):
        return Candidate(index, item, None, False)
    uses_calls = bool(item.calls)
    try:
        trace = run_program(item, table, backend, pool, exec_cfg)
    except LmSqlError as e:
        # without its traceback, whose frames hold the table, the worker
        # thread's work item and through it this very Candidate
        return Candidate(index, item, e.with_traceback(None), uses_calls)
    return Candidate(index, item, trace.answer, uses_calls)


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


def cmd_exec(args) -> int:
    cfg = load_run_config(args.config, args)
    program = parse(args.program)
    backend = make_backend(cfg) if program.calls else NullBackend()
    table = _load_normalized_table(args.table)
    pool = _load_pool(cfg)
    trace = run_program(program, table, backend, pool, cfg.execution)
    if args.trace:
        _print_trace(trace)
    print("\t".join(trace.answer.display()))
    return EXIT_OK


def _run_example(example: dict, dataset_dir: Path, tables: dict, cfg: RunConfig,
                 backend: Backend, exemplars: list, pool, executor: Executor) -> dict:
    """Parse, execute and vote one example. Each distinct candidate text runs
    once: the backend answers identical requests identically within a run,
    so its duplicates share the outcome and keep their own index. `tables`
    is the run's memo of loaded tables (see _table_for_example)."""
    record = {"id": example.get("id") if isinstance(example, dict) else None}
    where = f"example {record['id']!r}"
    try:
        question, = text_fields(example, ("question",), where)
        table = _table_for_example(example, dataset_dir, tables, where)
        plan = plan_parse_prompt(cfg.instruction, exemplars, table,
                                 example.get("title", "w"), question, cfg.generation)
        texts = sample_candidates(backend, plan.text, cfg.generation)
        programs = parse_candidates(texts)
        first = {}  # candidate text -> index of its first occurrence
        for i, text in enumerate(texts):
            first.setdefault(text, i)
        outcomes = dict(zip(first, executor.map(
            lambda i: _execute_candidate(i, programs[i], table, backend, pool,
                                         cfg.execution),
            first.values())))
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
    cfg = load_run_config(args.config, args)
    if not cfg.dataset:
        raise ConfigError("run needs a dataset (positional or config)")
    backend = make_backend(cfg)
    exemplars = load_exemplars(cfg.exemplars) if cfg.exemplars else []
    if not exemplars:
        raise ConfigError("run needs an exemplar file")
    pool = _load_pool(cfg)
    examples = [example for _, example in _read_jsonl(cfg.dataset)]
    dataset_dir = Path(cfg.dataset).parent
    out_path = Path(args.output) if args.output else Path("results.jsonl")
    tables: dict = {}  # Tables are immutable and examples run one at a time
    try:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as executor, \
                out_path.open("w", encoding="utf-8") as fh:
            for example in examples:
                record = _run_example(example, dataset_dir, tables, cfg, backend,
                                      exemplars, pool, executor)
                fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {out_path}: {e}")
    print(f"wrote {len(examples)} records to {out_path}")
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
    cfg = load_run_config(args.config, args)
    table = _load_normalized_table(args.table)
    pool = _load_pool(cfg)
    backend = None  # built once, on the first line that has model calls
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
            program = parse(line)
            if backend is None and program.calls:
                backend = make_backend(cfg)
            trace = run_program(program, table, backend or NullBackend(), pool, cfg.execution)
            if args.trace:
                _print_trace(trace)
            print("\t".join(trace.answer.display()) or "<empty>")
        except LmSqlError as e:
            print(f"error: {e}", file=sys.stderr)
    return EXIT_OK


# ---- argument parsing / dispatch ----

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON run-config file")
    sp.add_argument("--backend", help="mock:PATH, remote:URL, or none")
    sp.add_argument("--exemplars", help="exemplar JSON file")
    sp.add_argument("--demo-pool", dest="demo_pool", help="execution demo pool JSON file")
    sp.add_argument("--cache-dir", dest="cache_dir", help="response cache directory")
    sp.add_argument("--n", type=int, help="candidate programs to sample")
    sp.add_argument("--temperature", type=float)
    sp.add_argument("--strategy", choices=sorted(STRATEGIES))
    sp.add_argument("--dataset-style", dest="dataset_style",
                    choices=sorted(INSTRUCTIONS), help="generation defaults + instruction preset")
    sp.add_argument("--parallelism", type=int)
    sp.add_argument("--seed", type=int)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lmsql",
                                 description="Question answering over tables via "
                                             "SQL extended with model calls.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="sample candidate programs for a question")
    sp.add_argument("question")
    sp.add_argument("table", help="table file (csv/tsv/json)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("exec", help="execute one program against a table")
    sp.add_argument("program")
    sp.add_argument("table")
    sp.add_argument("--trace", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_exec)

    sp = sub.add_parser("run", help="parse + execute + vote over a dataset")
    sp.add_argument("dataset", nargs="?", help="JSONL of {id, question, table_path|table, gold}")
    sp.add_argument("--output", "-o", help="results JSONL path (default results.jsonl)")
    _add_common(sp)
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
    _add_common(sp)
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
