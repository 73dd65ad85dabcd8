from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from lmsql import GenerationConfig, MockBackend, RecordingBackend, mock_from_fixtures, with_cache
from lmsql import cli
from lmsql.cli import RunConfig, main

from conftest import fixture_path

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
        return cli._run_example(_example(), Path("."), cfg, backend, [], None, executor)


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


def test_integer_limit_reply_still_applies():
    programs = ['SELECT name FROM w ORDER BY score DESC LIMIT f("how many to keep?"; name)']
    record = _run_one(programs, [("regex", r"Q: how many to keep\?", [" 2 "])])
    assert record["candidates"][0]["answer"] == ["bob", "cy"]
