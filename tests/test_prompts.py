from __future__ import annotations

import json
from dataclasses import fields

import pytest

from lmsql import (BudgetExhausted, GenerationConfig, MockBackend, ParseError,
                   Program, linearize, load_exemplars,
                   parse_candidates, plan_parse_prompt, sample_candidates)
from lmsql.backend import TOKEN_BUDGET, approx_tokens
from lmsql.prompts import MAX_OUTPUT_TOKENS, Exemplar, INSTRUCTIONS, PRESETS

from conftest import fixture_path, make_table, padded


def lachlan_exemplar():
    from lmsql import load_table, normalize
    table = normalize(load_table(fixture_path("lachlan.csv")))
    return Exemplar(
        table, "Electoral district of Lachlan",
        "of the members of the third incarnation of the lachlan, who served the longest?",
        'SELECT member FROM w ORDER BY f("How long does it last?"; term) DESC LIMIT 1')


def small_table(rows=3):
    return make_table("infer", ["a", "b"], [[str(i), "w"] for i in range(rows)])


def test_prompt_layout_matches_published_block():
    ex = lachlan_exemplar()
    infer = small_table()
    text = plan_parse_prompt(INSTRUCTIONS["wikitq"], [ex], infer, "T", "how many rows?",
                             GenerationConfig(num_shots=1)).text
    golden_block = fixture_path("golden/lachlan_linearize.txt").read_text(encoding="utf-8")
    expected_head = (
        "Generate SQL given the question and table to answer the question correctly.\n\n"
        + golden_block + "\n"
        + "Q: of the members of the third incarnation of the lachlan, who served the longest?\n"
        + 'Binder: SELECT member FROM w ORDER BY f("How long does it last?"; term) DESC LIMIT 1\n\n'
    )
    assert text.startswith(expected_head)
    assert "All rows of the table:\nSELECT * FROM w;" in text
    assert text.endswith("Q: how many rows?\nBinder: ")


def test_prompt_is_deterministic():
    ex = lachlan_exemplar()
    infer = small_table()
    cfg = GenerationConfig()
    a = plan_parse_prompt("instruction", [ex] * 3, infer, "T", "q?", cfg).text
    b = plan_parse_prompt("instruction", [ex] * 3, infer, "T", "q?", cfg).text
    assert a == b


def test_shot_shrinking_drops_suffix_first():
    exemplars = [lachlan_exemplar() for _ in range(4)]
    infer = small_table()
    cfg = GenerationConfig(num_shots=4)
    fits_all = plan_parse_prompt("i", exemplars, infer, "T", "q?", cfg)
    assert fits_all.num_shots == 4
    tight = padded("i", approx_tokens(fits_all.text) - 20 + MAX_OUTPUT_TOKENS)
    fits_fewer = plan_parse_prompt(tight, exemplars, infer, "T", "q?", cfg)
    assert 0 < fits_fewer.num_shots < 4
    assert fits_fewer.tokens + MAX_OUTPUT_TOKENS <= TOKEN_BUDGET
    # kept shots are a prefix of the exemplar list
    first_block = fits_fewer.text.split("\n\n")[1]
    assert first_block.startswith("CREATE TABLE Electoral district of Lachlan(")


def test_shot_count_monotone_in_budget():
    exemplars = [lachlan_exemplar() for _ in range(6)]
    infer = small_table(40)
    last = -1
    for budget in range(400 + MAX_OUTPUT_TOKENS, TOKEN_BUDGET + 1, 400):
        plan = plan_parse_prompt(padded("i", budget), exemplars, infer, "T", "q?",
                                 GenerationConfig(num_shots=6))
        assert plan.num_shots >= last
        assert plan.tokens + MAX_OUTPUT_TOKENS <= TOKEN_BUDGET
        last = plan.num_shots


def test_inference_rows_truncated_when_shots_exhausted():
    infer = small_table(300)
    full = linearize(infer, "T", infer.row_count, full=True)
    budget = approx_tokens(full) // 2 + MAX_OUTPUT_TOKENS
    plan = plan_parse_prompt(padded("i", budget), [lachlan_exemplar()], infer, "T", "q?")
    assert plan.num_shots == 0
    assert 0 < plan.inference_rows < 300
    assert plan.tokens + MAX_OUTPUT_TOKENS <= TOKEN_BUDGET


def test_budget_exhausted():
    with pytest.raises(BudgetExhausted):
        plan_parse_prompt(padded("i" * 400, 10), [], small_table(), "T", "q?")


def test_sample_candidates_passthrough_and_trim():
    mock = MockBackend()
    mock.add_exact("p", ["  SELECT 1 \n\njunk", "SELECT 2", "SELECT 3"])
    cfg = GenerationConfig(sampling_n=3)
    assert sample_candidates(mock, "p", cfg) == ["SELECT 1", "SELECT 2", "SELECT 3"]


def test_parse_candidates_partitions_and_keeps_duplicates():
    texts = ["SELECT a FROM w", "SELECT FROM", "SELECT a FROM w"]
    results = parse_candidates(texts)
    assert isinstance(results[0], Program)
    assert isinstance(results[1], ParseError)
    assert results[2].root == results[0].root


def test_generation_defaults_per_dataset():
    g = GenerationConfig()
    assert (g.temperature, g.sampling_n, g.num_shots) == (0.4, 20, 14)
    assert MAX_OUTPUT_TOKENS == 512 and TOKEN_BUDGET == 8000
    assert PRESETS == {
        "wikitq": {"temperature": 0.4, "sampling_n": 20, "num_shots": 14},
        "tabfact": {"temperature": 0.6, "sampling_n": 50, "num_shots": 14},
        "mmqa": {"temperature": 0.4, "sampling_n": 20, "num_shots": 18},
    }
    assert set(PRESETS) == set(INSTRUCTIONS)
    assert all(set(preset) == {f.name for f in fields(GenerationConfig)}
               for preset in PRESETS.values())


def test_load_exemplars(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(json.dumps([{
        "title": "T",
        "table": {"title": "T", "header": ["a"], "rows": [["1"], ["2"]]},
        "question": "q?",
        "program": "SELECT COUNT(*) FROM w",
    }]))
    (ex,) = load_exemplars(path)
    assert ex.table.column_names() == ["row_id", "a"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{
        "title": "T", "table": {"title": "T", "header": ["a"], "rows": []},
        "question": "q?", "program": "SELECT FROM",
    }]))
    with pytest.raises(ParseError):
        load_exemplars(bad)


def test_exemplar_blocks_render_once_per_load(monkeypatch):
    """Every prompt planned from one loaded exemplar file reuses its blocks;
    a new load renders them again."""
    from lmsql import prompts
    rendered = []

    def counting(*args, **kwargs):
        rendered.append(args[1])
        return linearize(*args, **kwargs)
    monkeypatch.setattr(prompts, "linearize", counting)
    path = fixture_path("bench/exemplars.json")
    for load in (1, 2):
        exemplars = load_exemplars(path)
        plans = [plan_parse_prompt("i", exemplars, small_table(), "T", question)
                 for question in ("q1?", "q2?", "q3?")]
        assert {p.num_shots for p in plans} == {len(exemplars)}
        assert sorted(rendered) == sorted([ex.title for ex in exemplars] * load)
