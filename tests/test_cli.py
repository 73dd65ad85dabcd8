from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import lmsql.table
from lmsql import (INSTRUCTIONS, GenerationConfig, MockBackend, load_exemplars, load_table,
                   mock_from_fixtures, with_cache)
from lmsql import cli
from lmsql.cli import RunConfig, main
from lmsql.prompts import EXEMPLAR_ROWS

from conftest import RecordingBackend, fixture_path

FIG1 = fixture_path("fig1")
SHIRTS = str(fixture_path("shirts.csv"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exec_plain_sql(capsys):
    code, out, _ = run_cli(capsys, "exec", "SELECT COUNT(*) FROM w", SHIRTS)
    assert code == 0
    assert out.strip() == "5"


def test_exec_with_mock_and_trace(capsys):
    program = ("SELECT shirt FROM w WHERE f(\"North America?\"; made_in) = 'yes' "
               "AND f(\"No chemicals?\"; shirt) = 'yes' ORDER BY num_of_orders DESC LIMIT 1")
    code, out, _ = run_cli(capsys, "exec", program, SHIRTS,
                           "--backend", f"mock:{FIG1 / 'mock.json'}", "--trace")
    assert code == 0
    assert out.strip().endswith("linen shirt, pure cotton")
    assert "Give a database as shown below:" in out  # prompts traced
    assert "--- rewritten: SELECT shirt FROM w WHERE col_0_" in out


def test_exec_syntax_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "exec", "SELECT FROM w", SHIRTS)
    assert code == 5
    assert "offset" in err


def test_exec_missing_table_exit_code(capsys):
    code, _, err = run_cli(capsys, "exec", "SELECT 1", "no_such_file.csv")
    assert code == 3


def test_exec_backend_needed_but_absent(capsys):
    code, _, err = run_cli(capsys, "exec", 'SELECT f("q"; shirt) FROM w', SHIRTS,
                           "--backend", "none")
    assert code == 4


def test_bad_backend_flag(capsys):
    code, _, err = run_cli(capsys, "exec", "SELECT 1", SHIRTS, "--backend", "carrier-pigeon")
    assert code == 2


def test_parse_command_lists_candidates(capsys):
    bench = fixture_path("bench")
    code, out, _ = run_cli(capsys, "parse", "which city has the largest population?",
                           str(bench / "tables/cities.csv"),
                           "--config", str(bench / "config.json"))
    assert code == 0  # syntax errors in candidates are reported, not fatal
    lines = out.splitlines()
    assert lines[0] == "#0\tok"
    assert "SELECT city FROM w ORDER BY population DESC LIMIT 1" in out
    assert any("syntax-error" in line for line in lines)


def test_run_and_eval_roundtrip(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    code, out, _ = run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"),
                           "--config", str(FIG1 / "config.json"), "-o", str(results))
    assert code == 0
    record = json.loads(results.read_text().strip())
    assert record["final_answer"] == ["linen shirt, pure cotton"]
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "eval", str(results), str(FIG1 / "dataset.jsonl"),
                           "--all", "-o", str(report))
    assert code == 0
    assert "semantic\t1.0000" in out
    payload = json.loads(report.read_text())
    assert payload[0]["matched"] is True


def test_run_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"),
                "--config", str(FIG1 / "config.json"), "-o", str(path))
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_run_uses_cache_on_rerun(tmp_path, capsys):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.jsonl"
    run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"), "--config", str(FIG1 / "config.json"),
            "--cache-dir", str(cache), "-o", str(cold))
    assert list(cache.glob("*.json"))  # entries were written
    # rerun against an empty mock: every completion must come from the cache
    empty = tmp_path / "empty_mock.json"
    empty.write_text("[]")
    warm = tmp_path / "warm.jsonl"
    code, _, _ = run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"),
                         "--config", str(FIG1 / "config.json"),
                         "--backend", f"mock:{empty}",
                         "--cache-dir", str(cache), "-o", str(warm))
    assert code == 0
    assert warm.read_bytes() == cold.read_bytes()


def _responses(entry: bytes):
    return json.loads(entry)["responses"]


def _with_responses(entry: bytes, responses) -> bytes:
    return json.dumps({**json.loads(entry), "responses": responses}).encode()


CACHE_DAMAGE = {  # the bytes of an entry and of another key's entry -> the damaged entry
    "not-utf8": lambda entry, other: b"\xff\xfe{}",
    "null-responses": lambda entry, other: _with_responses(entry, None),
    "top-level-array": lambda entry, other: b"[1, 2]",
    "string-responses": lambda entry, other: _with_responses(entry, "abc"),
    "one-response": lambda entry, other: _with_responses(entry, _responses(entry)[:1]),
    "int-responses": lambda entry, other: _with_responses(entry, [1] * len(_responses(entry))),
    "another-key": lambda entry, other: other,
    "truncated": lambda entry, other: entry[:len(entry) // 2],
}


@pytest.mark.parametrize("damage", CACHE_DAMAGE.values(), ids=CACHE_DAMAGE.keys())
def test_run_recomputes_a_damaged_cache_entry(tmp_path, capsys, damage):
    cache = tmp_path / "cache"
    args = ["run", str(BENCH / "dataset.jsonl"), "--config", str(BENCH / "config.json"),
            "--cache-dir", str(cache), "-o"]
    assert run_cli(capsys, *args, str(tmp_path / "cold.jsonl"))[0] == 0
    paths = sorted(cache.glob("*.json"))
    entries = [path.read_bytes() for path in paths]
    for i, path in enumerate(paths):
        path.write_bytes(damage(entries[i], entries[i - 1]))
    assert run_cli(capsys, *args, str(tmp_path / "warm.jsonl"))[0] == 0
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    # each damaged entry was rewritten
    assert [_responses(path.read_bytes()) for path in paths] == list(map(_responses, entries))


def test_eval_all_reproduces_judge_matrix(tmp_path, capsys):
    cases = [
        ("m1", "What was the same problem that Bernard Collomb had as Innes Ireland?",
         ["oil pressure"], ["oil pressure (56 laps)"]),
        ("m2", "What is the difference between the qualifying time in 1967 and 1965?",
         ["7.45"], ["7.449999999999989"]),
        ("m3", "Are there at least 13 different components on the chart?",
         ["Yes"], ["1"]),
        ("m4", "What is the difference in years between constiuency 1 and 2?",
         ["4 years"], ["4"]),
    ]
    results = tmp_path / "r.jsonl"
    gold = tmp_path / "g.jsonl"
    results.write_text("\n".join(
        json.dumps({"id": i, "final_answer": pred}) for i, _, _, pred in cases) + "\n")
    gold.write_text("\n".join(
        json.dumps({"id": i, "question": q, "gold": g}) for i, q, g, _ in cases) + "\n")
    code, out, _ = run_cli(capsys, "eval", str(results), str(gold), "--all")
    assert code == 0
    assert "string\t0.0000" in out
    assert "official\t0.5000" in out
    assert "semantic\t1.0000" in out


def test_parse_transport_failure_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty_mock.json"
    empty.write_text("[]")
    code, _, err = run_cli(capsys, "parse", "anything?", SHIRTS,
                           "--backend", f"mock:{empty}",
                           "--exemplars", str(FIG1 / "exemplars.json"))
    assert code == 4  # no fixture matched: backend failure, not a crash


def test_eval_mismatched_ids(tmp_path, capsys):
    results = tmp_path / "r.jsonl"
    results.write_text(json.dumps({"id": "other", "final_answer": ["x"]}) + "\n")
    code, _, err = run_cli(capsys, "eval", str(results), str(FIG1 / "dataset.jsonl"))
    assert code == 3
    assert "align" in err


def test_repl(monkeypatch, capsys):
    lines = iter(["SELECT COUNT(*) FROM w", "SELECT FROM", "exit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code, out, err = run_cli(capsys, "repl", SHIRTS)
    assert code == 0
    assert "5" in out
    assert "error:" in err


def test_repl_builds_its_backend_once(monkeypatch, capsys):
    loads = []

    def counting_mock(path):
        loads.append(path)
        return mock_from_fixtures(path)
    monkeypatch.setattr(cli, "mock_from_fixtures", counting_mock)
    lines = iter(["SELECT COUNT(*) FROM w",
                  "SELECT shirt FROM w WHERE f(\"North America?\"; made_in) = 'yes' "
                  "ORDER BY num_of_orders DESC LIMIT 1",
                  "SELECT COUNT(*) FROM w WHERE f(\"No chemicals?\"; shirt) = 'yes'",
                  "exit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code, out, err = run_cli(capsys, "repl", SHIRTS, "--backend", f"mock:{FIG1 / 'mock.json'}")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["5", "flannel shirt, synthetic blend", "3"]
    assert len(loads) == 1


def test_repl_trace_is_execs_trace(monkeypatch, capsys):
    program = "SELECT shirt FROM w WHERE f(\"North America?\"; made_in) = 'yes' ORDER BY shirt"
    backend = f"mock:{FIG1 / 'mock.json'}"
    code, exec_out, _ = run_cli(capsys, "exec", program, SHIRTS, "--backend", backend, "--trace")
    assert code == 0 and "--- materialized:" in exec_out
    lines = iter([program, "exit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code, repl_out, _ = run_cli(capsys, "repl", SHIRTS, "--backend", backend, "--trace")
    assert code == 0
    assert repl_out.split("\n", 1)[1] == exec_out  # after the table's header line


def test_run_sends_each_distinct_request_once(tmp_path, capsys, monkeypatch):
    bench = fixture_path("bench")
    seen = []

    def recording_mock(path):
        backend = RecordingBackend(mock_from_fixtures(path))
        seen.append(backend)
        return backend
    monkeypatch.setattr(cli, "mock_from_fixtures", recording_mock)
    outs = []
    for parallelism in ("1", "2"):
        path = tmp_path / f"p{parallelism}.jsonl"
        code, _, _ = run_cli(capsys, "run", str(bench / "dataset.jsonl"),
                             "--config", str(bench / "config.json"),
                             "--parallelism", parallelism, "-o", str(path))
        assert code == 0
        requests = [r for r, _ in seen[-1].calls]
        assert requests and len(requests) == len(set(requests))
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def _example(question="list the names"):
    return {"id": "x", "question": question,
            "table": {"title": "t", "header": ["name", "score"],
                      "rows": [["ann", "3"], ["bob", "9"], ["cy", "5"]]}}


def _run_one(programs, rules=()):
    """_run_example on one inline example whose parse request samples `programs`."""
    backend = with_cache(MockBackend(list(rules) + [("regex", "list the names", programs)]), None)
    cfg = RunConfig(generation=GenerationConfig(temperature=0.0, sampling_n=len(programs),
                                                num_shots=0))
    with ThreadPoolExecutor(max_workers=2) as executor:
        return cli._run_example(_example(), cli.Run(cfg, backend), executor)


def test_identical_candidates_execute_once(monkeypatch):
    count = "SELECT COUNT(*) FROM w"
    top = "SELECT name FROM w ORDER BY score DESC LIMIT 1"
    executed = []

    def recording(index, *args):
        executed.append(index)
        return execute_candidate(index, *args)
    execute_candidate = cli._execute_candidate
    monkeypatch.setattr(cli, "_execute_candidate", recording)
    record = _run_one([count, top, count, count])
    assert sorted(executed) == [0, 1]
    assert [c["program"] for c in record["candidates"]] == [count, top, count, count]
    assert [c["answer"] for c in record["candidates"]] == [["3"], ["bob"], ["3"], ["3"]]
    groups = {tuple(g["values"]): g["candidates"] for g in record["vote_report"]["groups"]}
    assert groups == {("3",): [0, 2, 3], ("bob",): [1]}
    assert record["final_answer"] == ["3"]


@pytest.mark.parametrize("reply", ["", "2.5", "three", "1e400"])
def test_non_integer_limit_reply_fails_only_its_candidate(reply):
    programs = ['SELECT name FROM w ORDER BY score DESC LIMIT f("how many to keep?"; name)',
                "SELECT name FROM w ORDER BY score DESC LIMIT 1"]
    record = _run_one(programs, [("regex", r"Q: how many to keep\?", [reply])])
    assert "error" not in record
    bad, good = record["candidates"]
    assert bad["answer"] is None and "LIMIT needs an integer" in bad["error"]
    assert good["error"] is None
    assert record["final_answer"] == ["bob"]


@pytest.mark.parametrize("reply", [" 2 ", "2.0", "2e0"])  # a number with no fractional part
def test_integer_limit_reply_still_applies(reply):
    programs = ['SELECT name FROM w ORDER BY score DESC LIMIT f("how many to keep?"; name)']
    record = _run_one(programs, [("regex", r"Q: how many to keep\?", [reply])])
    assert record["candidates"][0]["answer"] == ["bob", "cy"]


def _fig1_config(**changes) -> dict:
    config = json.loads((FIG1 / "config.json").read_text())
    config.update(backend={"mock": str(FIG1 / "mock.json")},
                  exemplars=str(FIG1 / "exemplars.json"))
    config.update(changes)
    return config


def test_dataset_style_sets_only_its_preset_over_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generation": {"temperature": 0.0, "sampling_n": 3},
                                  "seed": 7}))
    args = cli.build_arg_parser().parse_args(
        ["run", "--config", str(config), "--dataset-style", "tabfact", "--temperature", "0.2"])
    cfg = cli.load_run_config(args.config, args)
    g = cfg.generation
    assert cfg.seed == 7  # the file's
    assert (g.sampling_n, g.num_shots) == (50, 14)  # the preset's
    assert g.temperature == 0.2  # the flag's
    assert cfg.instruction == INSTRUCTIONS["tabfact"]


@pytest.mark.parametrize("key", ["token_budget", "max_output_tokens"])
def test_budget_and_reply_cap_are_not_config_keys(tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_fig1_config(generation={key: 4000})))
    got, _, err = run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"), "--config", str(config),
                          "-o", str(tmp_path / "results.jsonl"))
    assert got == 2
    assert err == f"lmsql: unknown generation keys: [{key!r}]\n"


CUSTOM_DEMO = {"title": "custom", "column_block": "row_id\tanimal\n0\tzebra",
               "question": "Is it striped?",
               "answer_block": "row_id\tanimal\tIs it striped?\n0\tzebra\tyes"}


def _custom_pool_files(tmp_path) -> tuple:
    """A pool file of one demo, and fig1's mock with each map rule made to
    answer only a map prompt that shows that demo."""
    pool, mock = tmp_path / "pool.json", tmp_path / "mock.json"
    pool.write_text(json.dumps([CUSTOM_DEMO]))
    rules = json.loads((FIG1 / "mock.json").read_text())
    for rule in rules:
        if "row by row" in rule["prompt_pattern"]:
            rule["prompt_pattern"] = (r'Q: Answer question "Is it striped\?" row by row\..*'
                                      + rule["prompt_pattern"])
    mock.write_text(json.dumps(rules))
    return pool, mock


def test_exec_demo_pool_reaches_the_map_prompt(tmp_path, capsys):
    pool, mock = _custom_pool_files(tmp_path)
    program = json.loads(mock.read_text())[0]["responses"][0]
    code, out, err = run_cli(capsys, "exec", program, SHIRTS, "--backend", f"mock:{mock}",
                             "--demo-pool", str(pool))
    assert (code, out, err) == (0, "linen shirt, pure cotton\n", "")


def test_run_exec_demo_pool_reaches_the_map_prompt(tmp_path, capsys):
    pool, mock = _custom_pool_files(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_fig1_config(backend={"mock": str(mock)},
                                              exec_demo_pool=str(pool))))
    results = tmp_path / "results.jsonl"
    code, _, _ = run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"), "--config", str(config),
                         "-o", str(results))
    assert code == 0
    record = json.loads(results.read_text())
    assert [c["error"] for c in record["candidates"]] == [None] * 3
    assert record["final_answer"] == ["linen shirt, pure cotton"]


POOL_ENTRY = {"title": "t", "column_block": "a", "question": "q?", "answer_block": "a\tb"}


@pytest.mark.parametrize("config, files, code", [
    ({"vote_strategy": "majority"}, {}, 2),
    ({"parallelism": "4"}, {}, 2),
    ({"shots": 2}, {}, 2),
    ("[1, 2]", {}, 2),
    ({"exemplars": "bad.json"}, {"bad.json": "5"}, 3),
    ({"exec_demo_pool": "bad.json"}, {"bad.json": "5"}, 3),
    ({"exec_demo_pool": "bad.json"}, {"bad.json": json.dumps([dict(POOL_ENTRY, title=5)])}, 3),
    ({"backend": {"remote": {"endpoint": "http://127.0.0.1:9", "key_env": 5}}}, {}, 2),
    ({"generation": {"dataset": "tabfact"}}, {}, 2),
    ({"execution": {"num_demos": 2}}, {}, 2),
    ({"generation": {"stop": ["\n"]}}, {}, 2),
    ({"generation": {"top_p": 0.9}}, {}, 2),
], ids=["unknown-strategy", "parallelism-text", "unknown-key", "config-array",
        "exemplars-not-array", "pool-not-array", "pool-numeric-title", "remote-key-env-number",
        "generation-dataset-key", "execution-key", "generation-stop-key", "generation-top-p-key"])
def test_bad_run_input_ends_with_one_line_error(tmp_path, capsys, config, files, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    config_path = tmp_path / "config.json"
    config_path.write_text(config if isinstance(config, str) else json.dumps(_fig1_config(**config)))
    results = tmp_path / "results.jsonl"
    got, _, err = run_cli(capsys, "run", str(FIG1 / "dataset.jsonl"),
                          "--config", str(config_path), "-o", str(results))
    assert got == code
    assert err.startswith("lmsql: ") and err.count("\n") == 1
    assert not results.exists()


@pytest.mark.parametrize("bad, error", [
    ([1, 2], "example None: expected an object, got list"),
    ({"id": "q", "table_path": SHIRTS}, "example 'q': missing field 'question'"),
], ids=["not-an-object", "no-question"])
def test_bad_example_fails_only_its_record(tmp_path, capsys, bad, error):
    good = json.loads((FIG1 / "dataset.jsonl").read_text())
    good["table_path"] = SHIRTS
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(e) + "\n" for e in (good, bad, good)))
    results = tmp_path / "results.jsonl"
    code, _, _ = run_cli(capsys, "run", str(dataset), "--config", str(FIG1 / "config.json"),
                         "-o", str(results))
    assert code == 0
    first, middle, last = (json.loads(line) for line in results.read_text().splitlines())
    assert first == last and first["final_answer"] == ["linen shirt, pure cotton"]
    assert middle["error"] == error and middle["final_answer"] == []


def test_hostile_inline_tables_fail_only_their_records(tmp_path, capsys):
    """A table cell beyond float range is null; a header entry that is a
    JSON object or array, and a line that is not JSON, are each a
    FormatError of their record alone."""
    good = json.loads((FIG1 / "dataset.jsonl").read_text())
    good["table_path"] = SHIRTS
    big = {"id": "big", "question": "how many rows?", "table": {"header": ["a"], "rows": [[10**400]]}}
    nested = {"id": "nested", "question": "how many rows?",
              "table": {"header": [{"x": 1}], "rows": [[1]]}}
    not_json = '{"id": "cut", "question": '
    outs = []
    for name, examples in (("mixed", (big, good, nested, not_json)), ("alone", (good,))):
        dataset = tmp_path / f"{name}.jsonl"
        dataset.write_text("".join((e if isinstance(e, str) else json.dumps(e)) + "\n"
                                   for e in examples))
        results = tmp_path / f"{name}-results.jsonl"
        code, _, _ = run_cli(capsys, "run", str(dataset), "--config", str(FIG1 / "config.json"),
                             "-o", str(results))
        assert code == 0
        outs.append(results.read_text().splitlines())
    mixed, alone = outs
    assert [json.loads(line)["id"] for line in mixed] == ["big", good["id"], "nested", None]
    assert mixed[1] == alone[0]
    assert "header entries must be strings" in json.loads(mixed[2])["error"]
    cut = json.loads(mixed[3])
    assert cut["error"].startswith("mixed.jsonl line 4: ") and cut["final_answer"] == []


BENCH = fixture_path("bench")


def _bench_dataset(path: Path, ids) -> Path:
    """The bench fixture's examples `ids`, with table paths made absolute."""
    lines = []
    for line in (BENCH / "dataset.jsonl").read_text().splitlines():
        example = json.loads(line)
        if example["id"] in ids:
            example["table_path"] = str(BENCH / example["table_path"])
            lines.append(json.dumps(example) + "\n")
    path.write_text("".join(lines))
    return path


def test_run_loads_each_table_once_per_run(tmp_path, capsys, monkeypatch):
    loaded = []
    load_table = cli.load_table

    def counting(path):
        loaded.append(Path(path).name)
        return load_table(path)
    monkeypatch.setattr(cli, "load_table", counting)
    dataset = _bench_dataset(tmp_path / "dataset.jsonl", ("b01", "b09", "b02"))
    config = str(BENCH / "config.json")
    runs = []
    for name in ("first.jsonl", "second.jsonl"):
        code, _, _ = run_cli(capsys, "run", str(dataset), "--config", config,
                             "-o", str(tmp_path / name))
        assert code == 0
        runs.append((tmp_path / name).read_text())
    # two tables per run, and nothing kept from one run to the next
    assert loaded == ["cities.csv", "books.csv"] * 2
    assert runs[0] == runs[1]
    # the same records as runs that each load their one table themselves
    alone = []
    for i, line in enumerate(dataset.read_text().splitlines()):
        one = tmp_path / f"one{i}.jsonl"
        one.write_text(line + "\n")
        run_cli(capsys, "run", str(one), "--config", config, "-o", str(tmp_path / f"out{i}.jsonl"))
        alone.append((tmp_path / f"out{i}.jsonl").read_text())
    assert runs[0] == "".join(alone)
    assert len(runs[0].splitlines()) == 3


def test_run_renders_each_table_row_once_per_run(tmp_path, capsys, monkeypatch):
    """The planner keeps a loaded table's row lines for the rest of the run,
    and not past it: two runs in one process render the same rows, and
    neither renders a row of the same table twice. Only rows rendered while
    a parse prompt is planned count; map and val prompts render their own."""
    rendered = []
    planning = threading.local()
    linearize_row, plan_parse_prompt = lmsql.table.linearize_row, cli.plan_parse_prompt

    def counting(row):
        rendered[-1] += getattr(planning, "on", False)
        return linearize_row(row)

    def planned(*args, **kwargs):
        planning.on = True
        try:
            return plan_parse_prompt(*args, **kwargs)
        finally:
            planning.on = False
    monkeypatch.setattr(lmsql.table, "linearize_row", counting)
    monkeypatch.setattr(cli, "plan_parse_prompt", planned)
    for name in ("first.jsonl", "second.jsonl"):
        rendered.append(0)
        code, _, _ = run_cli(capsys, "run", str(BENCH / "dataset.jsonl"),
                             "--config", str(BENCH / "config.json"), "-o", str(tmp_path / name))
        assert code == 0
    exemplar_rows = EXEMPLAR_ROWS * len(load_exemplars(BENCH / "exemplars.json"))
    table_rows = sum(load_table(p).row_count for p in (BENCH / "tables").iterdir())
    assert rendered[0] == rendered[1]
    assert exemplar_rows < rendered[0] <= exemplar_rows + table_rows


def run_with_third_b01_candidate(tmp_path, capsys, program: str) -> dict:
    """The record of the third candidate for b01 when program replaces it in
    `lmsql run` on the bench dataset. The run must exit 0, write every
    record, and otherwise agree with the plain bench run."""
    rules = json.loads((BENCH / "mock.json").read_text())
    rules[0]["responses"][2] = program
    (tmp_path / "mock.json").write_text(json.dumps(rules))
    config = json.loads((BENCH / "config.json").read_text())
    config.update(backend={"mock": str(tmp_path / "mock.json")},
                  exemplars=str(BENCH / "exemplars.json"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    outs = []
    for name, config_path in (("changed", tmp_path / "config.json"),
                              ("plain", BENCH / "config.json")):
        code, _, _ = run_cli(capsys, "run", str(BENCH / "dataset.jsonl"),
                             "--config", str(config_path), "-o", str(tmp_path / f"{name}.jsonl"))
        assert code == 0
        lines = (tmp_path / f"{name}.jsonl").read_text().splitlines()
        outs.append([json.loads(line) for line in lines])
    assert len(outs[0]) == len((BENCH / "dataset.jsonl").read_text().splitlines())
    assert outs[0][0]["final_answer"] == outs[1][0]["final_answer"]
    assert outs[0][1:] == outs[1][1:]
    return outs[0][0]["candidates"][2]


def test_run_survives_a_deeply_nested_candidate(tmp_path, capsys):
    deep = "SELECT " + "(" * 400 + "COUNT(*)" + ")" * 400 + " FROM w"
    deep_candidate = run_with_third_b01_candidate(tmp_path, capsys, deep)
    assert deep_candidate["program"] == deep and not deep_candidate["parsed"]
    assert "nesting deeper than" in deep_candidate["error"]


def test_run_survives_a_candidate_that_overflows(tmp_path, capsys):
    program = "SELECT COUNT(*) * 1e308 * 10 FROM w"
    candidate = run_with_third_b01_candidate(tmp_path, capsys, program)
    assert candidate["program"] == program and candidate["error"] is None
    assert candidate["answer"] == ["none"]


def test_inline_tables_are_built_per_example(tmp_path, capsys, monkeypatch):
    built = []
    table_from_json = cli.table_from_json
    monkeypatch.setattr(cli, "table_from_json",
                        lambda obj: built.append(1) or table_from_json(obj))
    dataset = tmp_path / "dataset.jsonl"
    example = {"id": "q", "question": "how many rows?",
               "table": {"header": ["a"], "rows": [["1"], ["2"]]}}
    dataset.write_text((json.dumps(example) + "\n") * 2)
    code, _, _ = run_cli(capsys, "run", str(dataset), "--config", str(BENCH / "config.json"),
                         "-o", str(tmp_path / "results.jsonl"))
    assert code == 0 and len(built) == 2


@pytest.mark.parametrize("command", ["run", "eval-results", "eval-gold"])
def test_non_utf8_input_is_a_format_error(tmp_path, capsys, command):
    bad = tmp_path / "utf16.jsonl"
    bad.write_bytes(b"\xff\xfe" + '{"id": "fig1"}\n'.encode("utf-16-le"))
    gold = str(FIG1 / "dataset.jsonl")
    argv = {"run": ["run", str(bad), "--config", str(FIG1 / "config.json"),
                    "-o", str(tmp_path / "results.jsonl")],
            "eval-results": ["eval", str(bad), gold],
            "eval-gold": ["eval", gold, str(bad)]}[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("lmsql: utf16.jsonl is not UTF-8 text") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-text limit")
def test_integer_too_long_to_read_is_a_format_error(tmp_path, capsys):
    """json.loads refuses an integer of more than 4300 digits with a plain
    ValueError, which is not a JSONDecodeError. `run` writes that line's
    error record and goes on; `eval` refuses the whole file."""
    dataset = tmp_path / "huge.jsonl"
    dataset.write_text('{"id": "q", "question": "how many rows?", '
                       '"table": {"header": ["a"], "rows": [[1' + "0" * 5000 + ']]}}\n')
    results = tmp_path / "results.jsonl"
    code, _, _ = run_cli(capsys, "run", str(dataset), "--config", str(FIG1 / "config.json"),
                         "-o", str(results))
    assert code == 0
    record, = (json.loads(line) for line in results.read_text().splitlines())
    assert record["id"] is None and record["final_answer"] == []
    assert record["error"].startswith("huge.jsonl line 1: ")
    code, _, err = run_cli(capsys, "eval", str(results), str(dataset))
    assert code == 3
    assert err.startswith("lmsql: huge.jsonl line 1: ") and err.count("\n") == 1


@pytest.mark.parametrize("which, line, error", [
    ("results", "[1, 2]", "expected an object, got list"),
    ("results", '{"id": "fig1", "final_answer": 5}', "field 'final_answer' must be a list, got int"),
    ("gold", '{"id": "fig1", "gold": 5}', "field 'gold' must be a list, got int"),
    ("gold", '{"id": "fig1", "gold": ["x"], "question": 5}', "field 'question' must be a string"),
    ("gold", '{"id": ["fig1"], "gold": ["x"]}', "field 'id' must be a string or a number"),
    ("results", '{"id": "fig1", "final_answer": ["x"]}\n{"id": "fig1", "final_answer": ["y"]}',
     "id 'fig1' is repeated on results.jsonl line 3"),
    ("gold", '{"id": 7, "gold": ["x"]}\n{"id": 7, "gold": ["x"]}',
     "id 7 is repeated on gold.jsonl line 3"),
], ids=["not-an-object", "answer-not-a-list", "gold-not-a-list", "question-not-text",
        "id-unhashable", "results-id-repeated", "gold-id-repeated"])
def test_bad_eval_line_names_file_and_line(tmp_path, capsys, which, line, error):
    files = {"results": '{"id": "fig1", "final_answer": ["x"]}', "gold": '{"id": "fig1", "gold": ["x"]}'}
    files[which] = line
    paths = []
    for name, text in files.items():
        (tmp_path / f"{name}.jsonl").write_text("\n" + text + "\n")
        paths.append(str(tmp_path / f"{name}.jsonl"))
    code, _, err = run_cli(capsys, "eval", *paths)
    assert code == 3
    assert err == f"lmsql: {which}.jsonl line 2: {error}\n"


def test_exec_refuses_a_flag_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exec", "SELECT 1", SHIRTS, "--n", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lmsql") and "unrecognized arguments: --n 3" in err


def _answering_config(tmp_path) -> str:
    """A config whose backend answers every question with SELECT a FROM w."""
    mock = tmp_path / "mock.json"
    mock.write_text(json.dumps([{"match": "regex", "prompt_pattern": "Binder: $",
                                 "responses": ["SELECT a FROM w"]}]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_fig1_config(backend={"mock": str(mock)})))
    return str(config)


def test_dataset_lines_end_only_at_newlines(tmp_path, capsys):
    """A raw U+2028 inside a JSON string is text of its line, not a line break."""
    dataset = tmp_path / "dataset.jsonl"
    example = {"id": "q", "question": "which\u2028a?",
               "table": {"header": ["a"], "rows": [["1"]]}}
    dataset.write_text(json.dumps(example, ensure_ascii=False) + "\n", encoding="utf-8")
    results = tmp_path / "results.jsonl"
    code, _, _ = run_cli(capsys, "run", str(dataset), "--config", _answering_config(tmp_path),
                         "-o", str(results))
    assert code == 0
    record = json.loads(results.read_text(encoding="utf-8"))
    assert (record["id"], record["final_answer"], record.get("error")) == ("q", ["1"], None)


def test_run_then_eval_with_line_separators_in_an_answer(tmp_path, capsys):
    """`run` writes U+2028 and U+0085 raw; `eval` reads that file back."""
    answer = "x\u2028y\u0085z"
    dataset = tmp_path / "dataset.jsonl"
    example = {"id": "q", "question": "which a?", "table": {"header": ["a"], "rows": [[answer]]},
               "gold": [answer]}
    dataset.write_text(json.dumps(example) + "\n")
    results = tmp_path / "results.jsonl"
    code, _, _ = run_cli(capsys, "run", str(dataset), "--config", _answering_config(tmp_path),
                         "-o", str(results))
    assert code == 0
    text = results.read_text(encoding="utf-8")
    assert "\u2028" in text and "\u0085" in text
    assert json.loads(text)["final_answer"] == [answer]
    code, out, _ = run_cli(capsys, "eval", str(results), str(dataset))
    assert code == 0 and "1.0000" in out
