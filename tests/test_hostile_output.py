"""Hostile model output: whatever text the backend returns, the per-example
step of `lmsql run` gives back a record in which every candidate ends with
an answer or an error, never both, and no exception escapes."""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor

from hypothesis import HealthCheck, given, settings, strategies as st

from lmsql import Backend, GenerationConfig, default_exec_demos, load_exemplars, with_cache
from lmsql import cli
from lmsql.cli import RunConfig
from lmsql.syntax import MAX_DEPTH

from conftest import fixture_path
from corpus import EXEMPLAR_PROGRAMS

BENCH = fixture_path("bench")
EXAMPLES = [json.loads(line) for line in (BENCH / "dataset.jsonl").read_text().splitlines()]
EXEMPLARS = load_exemplars(BENCH / "exemplars.json")
TABLES: dict = {}  # the run's memo of loaded tables, shared as in a run
BENCH_PROGRAMS = sorted({text for rule in json.loads((BENCH / "mock.json").read_text())
                         if rule["prompt_pattern"].endswith("Binder: $")
                         for text in rule["responses"]})
EXECUTION_ENDS = ("QA map@ output:\n", "\nA:")  # how map and val prompts end


class HostileBackend(Backend):
    """Answers the parse request with the given candidates, and each map or
    val request with the next of the given replies, in turn."""

    identity = "hostile"

    def __init__(self, candidates: list, replies: list):
        self.candidates = candidates
        self.replies = replies
        self.served = 0

    def _complete(self, req) -> list:
        if not req.prompt.endswith(EXECUTION_ENDS):
            return list(self.candidates)
        reply = self.replies[self.served % len(self.replies)]
        self.served += 1
        return [reply]


def run_example(example: dict, candidates: list, replies: list) -> dict:
    """The record `lmsql run` writes for example when the model samples
    candidates and answers its calls with replies."""
    backend = with_cache(HostileBackend(candidates, replies), None)
    cfg = RunConfig(generation=GenerationConfig(temperature=0.0, sampling_n=len(candidates),
                                                num_shots=2))
    with ThreadPoolExecutor(max_workers=1) as executor:
        return cli._run_example(example, BENCH, TABLES, cfg, backend, EXEMPLARS,
                                default_exec_demos(), executor)


# ---- drawn model output ----

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)  # any unicode
CELL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"),
               max_size=8)


def _quoted(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


@st.composite
def mutated(draw, program: str) -> str:
    """program with one token deleted, or two tokens swapped."""
    words = re.findall(r"'[^']*'|\"[^\"]*\"|\w+|\S", program)
    i, j = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
    if draw(st.booleans()):
        del words[i]
    else:
        words[i], words[j] = words[j], words[i]
    return " ".join(words)


DEEP_FORMS = [
    lambda k, col: "SELECT " + "(" * k + "COUNT(*)" + ")" * k + " FROM w",
    lambda k, col: "SELECT " + "NOT " * k + "1",
    lambda k, col: "SELECT " + "(SELECT " * k + "1" + ")" * k,
    lambda k, col: "SELECT " + 'f("Why?"; ' * k + col + ")" * k + " FROM w",
]


def candidates_for(columns: list):
    col = st.sampled_from(columns + ["nosuch"])
    question = st.sampled_from(["Is it big?", "How many?", "Which one?"]) | TEXT
    call = st.builds(lambda name, q, c: f'{name}("{q}"; {c})',
                     st.sampled_from(["f", "f_val", "f_col"]), question, col)
    operand = (st.sampled_from(["0", "2", "2.0", "2.5", "-1", "1e400", "'2'", "''", "NULL",
                                "'%a_'", "'%'"])
               | call | col | TEXT.map(_quoted))
    corpus = st.sampled_from(BENCH_PROGRAMS + EXEMPLAR_PROGRAMS)
    return st.one_of(
        corpus,
        corpus.flatmap(mutated),
        st.builds(lambda form, k, c: form(k, c), st.sampled_from(DEEP_FORMS),
                  st.integers(MAX_DEPTH - 4, MAX_DEPTH + 2), col),
        st.builds(lambda c, x: f"SELECT {c} FROM w ORDER BY row_id LIMIT {x}", col, operand),
        st.builds(lambda c, op, x: f"SELECT {c} FROM w WHERE {c} {op} {x}", col,
                  st.sampled_from(["LIKE", "NOT LIKE", "=", "<", ">="]), operand),
        st.builds(lambda c, x: f"SELECT {c}, {x} FROM w ORDER BY {x} DESC", col, call),
        TEXT,
    )


@st.composite
def map_reply(draw, row_count: int) -> str:
    """A sub-table as a map call answers: row ids missing, repeated, out of
    range or not numbers, any number of columns, any frame."""
    row_id = (st.integers(0, row_count + 1).map(str)
              | st.sampled_from(["x", "-1", "1a", "", "0.", "3,", "١"]))
    lines = ["row_id\tcolumn\tanswer"]
    for rid in draw(st.lists(row_id, max_size=row_count + 3)):
        lines.append("\t".join([rid] + draw(st.lists(CELL, min_size=0, max_size=4))))
    opening, closing = draw(st.sampled_from([("/*\n", "\n*/"), ("/*\n", ""), ("", ""),
                                             ("say /*", "*/ done"), ("*/", "/*")]))
    return opening + "\n".join(lines) + closing


VAL_REPLY = st.sampled_from(["", " ", "2", "2.0", "2.5", " 3 ", "1e3", "1e400", "-1", "yes",
                             "tokyo", "\n\nlate"]) | TEXT


@st.composite
def hostile_case(draw):
    example = draw(st.sampled_from(EXAMPLES))
    table = cli._table_for_example(example, BENCH, TABLES, "bench")
    candidates = draw(st.lists(candidates_for(table.column_names()), min_size=1, max_size=4))
    replies = draw(st.lists(map_reply(table.row_count) | VAL_REPLY, min_size=1, max_size=4))
    return example, candidates, replies


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(hostile_case())
def test_hostile_output_ends_every_candidate_in_an_answer_or_an_error(case):
    example, candidates, replies = case
    record = run_example(example, candidates, replies)
    json.dumps(record, sort_keys=True, ensure_ascii=False)  # as `lmsql run` writes it
    assert "error" not in record  # the examples are well formed: only candidates fail
    assert len(record["candidates"]) == len(candidates)
    for c in record["candidates"]:
        assert (c["answer"] is None) != (c["error"] is None), c


# ---- the contract, pinned ----

CITIES = next(e for e in EXAMPLES if e["table_path"] == "tables/cities.csv")


def test_missing_row_ids_are_null_and_a_repeated_one_keeps_its_last_line():
    reply = ("/*\nrow_id\tcity\tbig\n0\ttokyo\tyes\n2\tshanghai\tno\n"
             "2\tshanghai\tan extra column\tmaybe\n*/")
    record = run_example(CITIES, ['SELECT f("Is it big?"; city) FROM w ORDER BY row_id LIMIT 4'],
                         [reply])
    assert record["candidates"][0]["answer"] == ["yes", "none", "maybe", "none"]


def test_a_val_reply_compares_with_a_column_as_a_number_or_as_text():
    program = "SELECT city FROM w WHERE {} ORDER BY row_id"
    numeric = program.format('population > f_val("How many?"; population)')
    text = program.format('city = f_val("Which city?"; city)')
    for sql, reply, answer in ((numeric, " 30000000 ", ["tokyo", "delhi"]),
                               (numeric, "lots", []),  # text and a number do not compare
                               (text, "Delhi\nand more", ["delhi"])):  # its first line, lowercased
        candidate, = run_example(CITIES, [sql], [reply])["candidates"]
        assert candidate["answer"] == answer and candidate["error"] is None, reply
