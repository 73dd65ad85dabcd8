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

from .backend import Backend, HttpBackend, NullBackend, mock_from_fixtures, with_cache
from .engine import Answer
from .errors import (BackendError, BudgetExhausted, ConfigError, FormatError,
                     IoError, LmSqlError, ParseError, ResolutionError)
from .interp import (ExecutionConfig, default_exec_demos, load_exec_demos,
                     run_program)
from .metrics import JUDGES, evaluate_dataset
from .prompts import (INSTRUCTIONS, GenerationConfig, load_exemplars,
                      parse_candidates, plan_parse_prompt, sample_candidates)
from .syntax import Program, has_api_calls, parse, print_program
from .table import Column, Table, load_table, normalize, table_from_json
from .voting import Candidate, strategy_from_name, vote

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BACKEND = 4
EXIT_SYNTAX = 5


@dataclass
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
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if len(self.backend) != 1:
            raise ConfigError("exactly one backend variant must be set")


def _generation_from_dict(obj: dict) -> GenerationConfig:
    obj = dict(obj)
    dataset = obj.pop("dataset", None)
    base = GenerationConfig.for_dataset(dataset) if dataset else GenerationConfig()
    known = {f.name for f in dc_fields(GenerationConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown generation keys: {sorted(unknown)}")
    if "stop" in obj:
        obj["stop"] = tuple(obj["stop"])
    return replace(base, **obj)


def load_run_config(path: Optional[str], args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    base_dir = Path(".")
    if path:
        p = Path(path)
        base_dir = p.parent
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except OSError as e:
            raise IoError(f"cannot read config {p}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON in config {p.name}: {e}")
        try:
            if "backend" in raw:
                cfg.backend = dict(raw["backend"])
            for key in ("dataset", "exemplars", "exec_demo_pool", "cache_dir"):
                if raw.get(key) is not None:
                    cfg_path = (base_dir / raw[key])
                    setattr(cfg, key, str(cfg_path))
            if "generation" in raw:
                cfg.generation = _generation_from_dict(raw["generation"])
            if "execution" in raw:
                cfg.execution = ExecutionConfig(**raw["execution"])
            for key in ("vote_strategy", "parallelism", "seed", "instruction"):
                if key in raw:
                    setattr(cfg, key, raw[key])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad config value: {e}")
        if "mock" in cfg.backend and cfg.backend["mock"]:
            cfg.backend = {"mock": str(base_dir / cfg.backend["mock"])}
    # flag overrides
    if getattr(args, "backend", None):
        spec = args.backend
        if spec == "none":
            cfg.backend = {"none": True}
        elif spec.startswith("mock:"):
            cfg.backend = {"mock": spec[len("mock:"):]}
        elif spec.startswith("remote:"):
            cfg.backend = {"remote": {"endpoint": spec[len("remote:"):]}}
        else:
            raise ConfigError(f"--backend must be mock:PATH, remote:URL or none, got {spec!r}")
    for flag, key in (("exemplars", "exemplars"), ("demo_pool", "exec_demo_pool"),
                      ("cache_dir", "cache_dir"), ("strategy", "vote_strategy")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, key, value)
    for flag in ("parallelism", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, flag, value)
    gen_overrides = {}
    if getattr(args, "n", None) is not None:
        gen_overrides["sampling_n"] = args.n
    if getattr(args, "temperature", None) is not None:
        gen_overrides["temperature"] = args.temperature
    if getattr(args, "dataset_style", None):
        cfg.generation = GenerationConfig.for_dataset(args.dataset_style, **gen_overrides)
        cfg.instruction = INSTRUCTIONS[args.dataset_style]
    elif gen_overrides:
        cfg.generation = replace(cfg.generation, **gen_overrides)
    if cfg.parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    return cfg


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
    elif kind == "none":
        backend = NullBackend()
    else:
        raise ConfigError(f"unknown backend kind {kind!r}")
    return with_cache(backend, cfg.cache_dir, seed=cfg.seed)


def _load_pool(cfg: RunConfig):
    if cfg.exec_demo_pool:
        return load_exec_demos(cfg.exec_demo_pool)
    return default_exec_demos()


def _load_normalized_table(path: str) -> Table:
    return normalize(load_table(path))


def _table_for_example(example: dict, dataset_dir: Path) -> Table:
    if "table" in example:
        return normalize(table_from_json(example["table"]))
    if "table_path" in example:
        return _load_normalized_table(str(dataset_dir / example["table_path"]))
    raise FormatError(f"example {example.get('id')!r} has neither table nor table_path")


def _read_jsonl(path: str) -> list:
    p = Path(path)
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise IoError(f"cannot read {p}: {e}")
    records = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise FormatError(f"{p.name} line {i + 1}: {e}")
    return records


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
    uses_calls = has_api_calls(item)
    try:
        trace = run_program(item, table, backend, pool, exec_cfg)
    except LmSqlError as e:
        # without its traceback, whose frames hold the table, the worker
        # thread's work item and through it this very Candidate
        return Candidate(index, item, e.with_traceback(None), uses_calls)
    return Candidate(index, item, trace.answer, uses_calls)


def cmd_exec(args) -> int:
    cfg = load_run_config(args.config, args)
    program = parse(args.program)
    backend = make_backend(cfg) if has_api_calls(program) else NullBackend()
    table = _load_normalized_table(args.table)
    pool = _load_pool(cfg)
    trace = run_program(program, table, backend, pool, cfg.execution)
    if args.trace:
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
    print("\t".join(trace.answer.display()))
    return EXIT_OK


def _run_example(example: dict, dataset_dir: Path, cfg: RunConfig,
                 backend: Backend, exemplars: list, pool, executor: Executor) -> dict:
    """Parse, execute and vote one example. Each distinct candidate text runs
    once: the backend answers identical requests identically within a run,
    so its duplicates share the outcome and keep their own index."""
    record = {"id": example.get("id")}
    try:
        table = _table_for_example(example, dataset_dir)
        question = example["question"]
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
        answer, report = vote(cands, strategy_from_name(cfg.vote_strategy))
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
    if args.dataset:
        cfg.dataset = args.dataset
    if not cfg.dataset:
        raise ConfigError("run needs a dataset (positional or config)")
    backend = make_backend(cfg)
    exemplars = load_exemplars(cfg.exemplars) if cfg.exemplars else []
    if not exemplars:
        raise ConfigError("run needs an exemplar file")
    pool = _load_pool(cfg)
    examples = _read_jsonl(cfg.dataset)
    dataset_dir = Path(cfg.dataset).parent
    out_path = Path(args.output) if args.output else Path("results.jsonl")
    try:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as executor, \
                out_path.open("w", encoding="utf-8") as fh:
            for example in examples:
                record = _run_example(example, dataset_dir, cfg, backend, exemplars,
                                      pool, executor)
                fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    except OSError as e:
        raise IoError(f"cannot write {out_path}: {e}")
    print(f"wrote {len(examples)} records to {out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    results = {r.get("id"): r for r in _read_jsonl(args.results)}
    golds = {r.get("id"): r for r in _read_jsonl(args.gold)}
    if set(results) != set(golds):
        missing = set(results) ^ set(golds)
        raise IoError(f"results and gold ids do not align (mismatched: {sorted(missing, key=str)[:5]})")
    triples = []
    for rid in golds:
        pred = Answer(tuple(results[rid].get("final_answer", [])))
        gold = Answer(tuple(golds[rid].get("gold", [])))
        triples.append((pred, gold, golds[rid].get("question", "")))
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
            if backend is None and has_api_calls(program):
                backend = make_backend(cfg)
            trace = run_program(program, table, backend or NullBackend(), pool, cfg.execution)
            if args.trace:
                for res in trace.resolutions:
                    print(f'f("{res.call.question}") -> {res.generated_name}: {res.response!r}')
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
    sp.add_argument("--strategy", choices=["plain", "answer-biased", "program-biased"])
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
