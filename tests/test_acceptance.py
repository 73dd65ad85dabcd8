"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from lmsql import (Answer, AnswerBiasedVote, Candidate, MockBackend, PlainVote,
                   ProgramBiasedVote, RecordingBackend, build_map_prompt,
                   default_exec_demos, denotation_to_answer, execute_sql,
                   linearize, load_table, normalize, official_em, parse,
                   print_program, run_program, semantic_em, string_em, vote)
from lmsql.backend import approx_tokens
from lmsql.cli import main as cli_main
from lmsql.prompts import GenerationConfig, Exemplar, plan_parse_prompt
from lmsql.syntax import api_calls_bottom_up

from conftest import fixture_path, make_table
from corpus import EXEMPLAR_PROGRAMS
from randgen import make_random_table, random_query, rows_match, sqlite_denotation


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_c01_parser_round_trip_on_published_programs():
    start = time.monotonic()
    assert len(EXEMPLAR_PROGRAMS) >= 8
    for text in EXEMPLAR_PROGRAMS:
        first = parse(text)
        printed = print_program(first)
        again = parse(printed)
        assert again.root == first.root, text
        assert print_program(again) == printed
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"{len(EXEMPLAR_PROGRAMS)} published programs round-trip in {elapsed:.3f}s")


def test_c02_conservativity_of_extended_grammar():
    start = time.monotonic()
    rng = random.Random(20260402)
    trials = 200
    for _ in range(trials):
        table, num_cols, text_cols = make_random_table(rng)
        sql, _, _ = random_query(rng, num_cols, text_cols)
        extended = parse(sql)
        plain = parse(sql, allow_api_calls=False)
        assert extended.root == plain.root, sql
        backend = RecordingBackend(MockBackend())
        got = run_program(extended, table, backend, pool=[]).answer
        want = denotation_to_answer(execute_sql(plain, table))
        assert got.values == want.values, sql
        assert backend.calls == [], "backend must never be invoked for call-free programs"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"{trials} call-free programs parse+execute identically in {elapsed:.2f}s, 0 backend calls")


def test_c03_relational_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20260809)
    trials = 250
    for trial in range(trials):
        table, num_cols, text_cols = make_random_table(rng)
        mine_sql, sqlite_sql, ordered = random_query(rng, num_cols, text_cols)
        mine = execute_sql(parse(mine_sql), table).rows
        theirs = sqlite_denotation(table, sqlite_sql)
        assert rows_match(mine, theirs, ordered), (trial, mine_sql, mine, theirs)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"{trials} randomized queries match the sqlite reference in {elapsed:.2f}s")


def test_c04_published_evaluator_matrix():
    matrix = [
        ("What was the same problem that Bernard Collomb had as Innes Ireland?",
         ["oil pressure"], ["oil pressure (56 laps)"], (False, True, True)),
        ("What is the difference between the qualifying time in 1967 and 1965?",
         ["7.45"], ["7.449999999999989"], (False, True, True)),
        ("Are there at least 13 different components on the chart?",
         ["Yes"], ["1"], (False, False, True)),
        ("What is the difference in years between constiuency 1 and 2?",
         ["4 years"], ["4"], (False, False, True)),
    ]
    outcomes = []
    for question, gold, pred, expected in matrix:
        p, g = Answer(tuple(pred)), Answer(tuple(gold))
        got = (string_em(p, g).matched, official_em(p, g).matched,
               semantic_em(p, g, question).matched)
        outcomes.append(got)
        assert got == expected, (question, got, expected)
    report(4, f"4x3 evaluator matrix reproduced exactly: {outcomes}")


def test_c05_vote_arithmetic():
    plain = parse("SELECT 1")
    binder = parse('SELECT f("q"; a) FROM w')

    def cand(i, values, api=False):
        return Candidate(i, binder if api else plain, Answer(tuple(values)), api)

    answer, rep = vote([cand(0, [1.0]), cand(1, [0.0]), cand(2, [0.0]), cand(3, [0.0])],
                       AnswerBiasedVote())
    tally = {g.key: g.weight for g in rep.groups}
    assert answer.display() == ["1"] and tally == {"1": 4, "0": 3}

    cands = [cand(0, ["x"], api=True), cand(1, ["x"], api=True)]
    cands += [cand(i, ["y"]) for i in range(2, 7)]
    answer, rep = vote(cands, ProgramBiasedVote())
    tally = {g.key: g.weight for g in rep.groups}
    assert answer.display() == ["x"] and tally == {"x": 20, "y": 5}

    answer, _ = vote([cand(0, ["a"]), cand(1, ["b"]), cand(2, ["c"])], PlainVote())
    assert answer.display() == ["a"]
    report(5, "answer-biased {1:4,0:3}, program-biased {x:20,y:5}, plain tie to candidate 0")


def test_c06_bottom_up_contract():
    table = make_table("n", ["c"], [["x1"], ["x2"]])
    mock = MockBackend()
    mock.add_rule(r'Q: Answer question "inner\?" row by row\.',
                  ["/*\nrow_id\tc\tinner?\n0\tx1\ti1\n1\tx2\ti2\n*/"])
    mock.add_rule(r'Q: Answer question "outer\?" row by row\.',
                  ["/*\nrow_id\tcol\touter?\n0\ti1\tyes\n1\ti2\tno\n*/"])
    backend = RecordingBackend(mock)
    program = parse('SELECT c FROM w WHERE f("outer?"; f("inner?"; c)) = \'yes\'')
    answer = run_program(program, table, backend, pool=[]).answer
    assert answer.display() == ["x1"]
    assert len(backend.calls) == 2
    first, second = (req.prompt for req, _ in backend.calls)
    assert '"inner?"' in first and '"outer?"' in second, "inner call must complete first"
    assert "row_id\tcol_0_" in second and "0\ti1\n1\ti2" in second, \
        "outer context column must be the inner call's materialized column"
    report(6, "nested calls resolve inner-before-outer; outer prompt carries the inner column")


def test_c07_prompt_byte_exactness(hometown):
    lachlan = normalize(load_table(fixture_path("lachlan.csv")))
    golden = fixture_path("golden/lachlan_linearize.txt").read_bytes()
    got = linearize(lachlan, "Electoral district of Lachlan", 3).encode("utf-8")
    assert got == golden
    golden_map = fixture_path("golden/map_prompt_hometown.txt").read_bytes()
    assert build_map_prompt("Is it from alabama?", hometown, []).encode("utf-8") == golden_map
    golden_demo = fixture_path("golden/map_prompt_hometown_with_demo.txt").read_bytes()
    with_demo = build_map_prompt("Is it from alabama?", hometown, [default_exec_demos()[0]])
    assert with_demo.encode("utf-8") == golden_demo
    report(7, "linearize and map prompts match the shipped golden files byte-for-byte")


def test_c08_end_to_end_fixture(tmp_path, capsys):
    fig1 = fixture_path("fig1")
    cache = tmp_path / "cache"
    outputs = []
    for label in ("cold", "warm", "fresh"):
        if label == "fresh":
            import shutil
            shutil.rmtree(cache)
        out = tmp_path / f"{label}.jsonl"
        code = cli_main(["run", str(fig1 / "dataset.jsonl"), "--config",
                         str(fig1 / "config.json"), "--cache-dir", str(cache),
                         "-o", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    record = json.loads(outputs[0].decode("utf-8").strip())
    assert record["final_answer"] == ["linen shirt, pure cotton"]
    code = cli_main(["eval", str(tmp_path / "cold.jsonl"), str(fig1 / "dataset.jsonl"),
                     "--judge", "semantic"])
    assert code == 0
    captured = capsys.readouterr()
    assert "semantic\t1.0000" in captured.out
    report(8, "pipeline fixture answers correctly; identical bytes over cold/warm/fresh cache")


def test_c09_truncation_monotonicity():
    table = normalize(load_table(fixture_path("lachlan.csv")))
    exemplars = [
        Exemplar(table, "Electoral district of Lachlan",
                 f"synthetic question number {i} about the members of the district?",
                 "SELECT COUNT(*) FROM w")
        for i in range(30)
    ]
    infer = make_table("big", ["a", "b"], [[str(i), f"value {i}"] for i in range(120)])
    previous = -1
    counts = []
    for budget in range(1000, 8001, 500):
        plan = plan_parse_prompt("Answer the question.", exemplars, infer, "big", "how many?",
                                 GenerationConfig(num_shots=30, token_budget=budget))
        assert approx_tokens(plan.text) <= budget
        assert plan.num_shots >= previous
        previous = plan.num_shots
        counts.append(plan.num_shots)
    assert counts[0] < counts[-1], "the range must actually exercise shrinking"
    report(9, f"shots per budget 1000..8000 step 500: {counts}; every prompt within budget")


def test_c10_mini_benchmark(tmp_path):
    # Regression value pinned at build time: semantic accuracy 1.0 (25/25),
    # computed once against brute-force golds frozen in dataset.jsonl.
    start = time.monotonic()
    bench = fixture_path("bench")
    results = tmp_path / "results.jsonl"
    code = cli_main(["run", str(bench / "dataset.jsonl"), "--config",
                     str(bench / "config.json"), "-o", str(results)])
    assert code == 0
    records = [json.loads(line) for line in results.read_text().splitlines()]
    assert len(records) == 25
    golds = {json.loads(line)["id"]: json.loads(line)
             for line in (bench / "dataset.jsonl").read_text().splitlines()}
    matched = 0
    for record in records:
        gold = golds[record["id"]]
        outcome = semantic_em(Answer(tuple(record["final_answer"])),
                              Answer(tuple(gold["gold"])), gold["question"])
        matched += outcome.matched
    accuracy = matched / len(records)
    elapsed = time.monotonic() - start
    assert accuracy == 1.0, f"pinned benchmark accuracy regressed: {accuracy}"
    assert elapsed < 30.0
    report(10, f"25-example benchmark: semantic accuracy {accuracy:.2f} in {elapsed:.2f}s, no network")
