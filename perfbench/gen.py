"""Seeded input generator for the lmsql benchmark.

Writes everything `lmsql run` receives for one workload: CSV tables, a
dataset JSONL, a `mock:` fixture of regex rules (the format of
tests/fixtures/bench/mock.json), exemplars and a run config. Next to them
it writes `expect.json`, which only the benchmark reads: the kind of every
candidate (ok or which hostile output) and the workload's traffic
properties.

Gold answers come from stdlib sqlite3 over the generated table plus the map
answers this generator chose; nothing here imports lmsql.

The same (workload, seed, size) gives byte-identical files. Mixes are fixed
proportions shuffled by the seed, so counts per example hardly move between
seeds.

    python3 perfbench/gen.py --workload live-calls --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sqlite3
from collections import Counter
from pathlib import Path

WORKLOADS = {
    "live-calls": {
        "family": "calls", "examples": 120, "tables": 10, "latency_ms": 20.0, "cache": False,
        "why": "Waiting on the backend dominates: 20 ms per request, no cache, and the "
               "3 identical programs among n=5 candidates all send their calls. Call dedup, "
               "single-flight or concurrency shows here and nowhere else.",
    },
    "warm-replay": {
        "family": "calls", "examples": 360, "tables": 10, "latency_ms": 0.0, "cache": True,
        "why": "The CPU side of the same pipeline: every request is answered by a disk cache "
               "that an untimed cold pass filled, so cache hits, demo retrieval, map prompt "
               "build/parse, parsing and voting dominate.",
    },
    "large-sql": {
        "family": "sql", "examples": 100, "latency_ms": 0.0, "cache": False,
        "why": "Pure-SQL candidates over 1k- and 10k-row tables, with one service request per "
               "example: table loading, prompt planning and the SQL evaluator dominate.",
    },
}

# Smoke-test sizes: same generator and mixes, far fewer and smaller inputs.
TINY = {"live-calls": 24, "warm-replay": 24, "large-sql": 12}

NOUNS = [("team", "teams"), ("river", "rivers"), ("band", "bands"), ("hotel", "hotels"),
         ("museum", "museums"), ("airport", "airports"), ("bridge", "bridges"),
         ("festival", "festivals"), ("library", "libraries"), ("stadium", "stadiums"),
         ("park", "parks"), ("market", "markets"), ("castle", "castles"),
         ("island", "islands"), ("school", "schools"), ("theater", "theaters")]
ADJS = ["red", "blue", "silver", "golden", "quiet", "bright", "old", "new", "high", "low",
        "north", "south", "east", "west", "grand", "little", "royal", "wild", "green", "stone"]
WORDS = ["lion", "harbor", "oak", "river", "star", "crown", "falcon", "willow", "summit",
         "valley", "anchor", "meadow", "beacon", "cedar", "harvest", "maple", "comet",
         "ember", "orchid", "raven"]
KINDS = ["public", "private", "historic", "community", "regional"]
PLACES = ["lisbon", "oslo", "lima", "cairo", "denver", "osaka", "perth", "quito", "dakar",
          "riga", "tunis", "hanoi", "bergen", "porto", "austin", "turin", "leeds", "nantes",
          "graz", "cork", "malmo", "split", "basel", "gdansk"]
REGIONS = ["north", "south", "east", "west", "central"]
PROPS = ["coastal", "well known", "very old", "popular with tourists", "near a mountain",
         "busy in summer"]
UNITS = ["km", "m", "kg", "seats", "rooms", "acres"]
CATEGORIES = ["tools", "books", "games", "music", "garden", "sports", "toys", "food"]

# Hostile map replies, keyed by the wording that marks the hostile question.
HOSTILE_SUFFIX = {"no-rows": "roughly", "missing-rowid": "at a glance", "dup-rowid": "in short"}
# Candidate kinds that must end with an LmSqlError (recorded as an error).
ERROR_KINDS = ("syntax", "no-rows", "unknown-column")


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"lmsql-bench:{workload}:{seed}")


def _balanced(rng: random.Random, items: list, count: int) -> list:
    """`count` items in fixed proportions (whole cycles first), shuffled."""
    out = [items[i % len(items)] for i in range(count)]
    rng.shuffle(out)
    return out


def _gold_value(v) -> str:
    if isinstance(v, float):
        return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    return str(v)


def _csv_bytes(header: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _sqlite_table(header: list, types: list, rows: list) -> sqlite3.Connection:
    db = sqlite3.connect(":memory:")
    cols = ", ".join(f'"{h}" {t}' for h, t in zip(header, types))
    db.execute(f"CREATE TABLE w ({cols})")
    db.executemany(f"INSERT INTO w VALUES ({', '.join('?' * len(header))})", rows)
    return db


def _gold(db: sqlite3.Connection, sql: str) -> list:
    return [_gold_value(v) for row in db.execute(sql).fetchall() for v in row]


def _map_rule(question: str, response: str) -> dict:
    pattern = re.escape(f'Q: Answer question "{question}" row by row.\nQA map@ output:\n') + "$"
    return {"match": "regex", "prompt_pattern": pattern, "responses": [response]}


def _val_rule(question: str, response: str) -> dict:
    return {"match": "regex", "prompt_pattern": re.escape(f"Q: {question}\nA:") + "$",
            "responses": [response]}


def _parse_rule(question: str, candidates: list) -> dict:
    pattern = re.escape(f"Q: {question}\nBinder: ") + "$"
    return {"match": "regex", "prompt_pattern": pattern, "responses": candidates}


def _map_reply(ctx_name: str, question: str, ctx_cells: list, answers: list,
               hostile: str = "") -> str:
    rows = [(i, ctx_cells[i], answers[i]) for i in range(len(answers))]
    if hostile == "no-rows":
        return "Sorry, I can only answer questions about the table as a whole."
    if hostile == "missing-rowid":
        rows = rows[::2]
    elif hostile == "dup-rowid":
        flip = {"yes": "no", "no": "yes"}
        rows = rows + [(i, c, flip.get(a, "unknown")) for i, c, a in rows[1::3]]
    lines = ["/*", f"row_id\t{ctx_name}\t{question}"]
    lines += [f"{i}\t{c}\t{a}" for i, c, a in rows]
    lines.append("*/")
    return "\n".join(lines)


def _break(text: str, k: int) -> str:
    """A syntax error, as a model truncating or garbling a program emits."""
    if k % 3 == 0:
        return text.rsplit(" ", 1)[0]
    if k % 3 == 1 and " FROM w" in text:
        return text.replace(" FROM w", " FROM", 1)
    return text + " )"


def _exemplars() -> list:
    shirts = {"header": ["shirt", "made_in", "price", "num_of_orders"],
              "rows": [["linen shirt", "usa", 30, 12], ["silk shirt", "china", 55, 4],
                       ["wool shirt", "canada", 42, 9], ["cotton shirt", "india", 18, 30]]}
    peaks = {"header": ["peak", "elevation", "range"],
             "rows": [["mount elbert", "14,440 ft", "sawatch"], ["mount rainier", "14,411 ft", "cascade"],
                      ["mount whitney", "14,505 ft", "sierra nevada"]]}
    return [
        {"title": "shirts", "table": shirts,
         "question": "which shirt made in north america has the most orders?",
         "program": 'SELECT shirt FROM w WHERE f("Is it made in North America?"; made_in) = '
                    "'yes' ORDER BY num_of_orders DESC LIMIT 1"},
        {"title": "shirts", "table": shirts, "question": "how many shirts cost more than 20?",
         "program": "SELECT COUNT(*) FROM w WHERE price > 20"},
        {"title": "peaks", "table": peaks, "question": "which peak is the highest?",
         "program": 'SELECT peak FROM w ORDER BY f("What is the height in feet?"; elevation) '
                    "DESC LIMIT 1"},
    ]


class _Writer:
    """Accumulates one workload's files, rules and expectations."""

    def __init__(self, workload: str, n: int):
        self.workload, self.n = workload, n
        self.tables: dict = {}      # file name -> csv text
        self.dataset: list = []
        self.rules: list = []
        self._rule_keys: set = set()
        self.expect: dict = {}
        self._questions: set = set()

    def rule(self, key: str, rule: dict) -> None:
        if key not in self._rule_keys:
            self._rule_keys.add(key)
            self.rules.append(rule)

    def unique_question(self, question: str) -> str:
        q, k = question, 2
        while q in self._questions:
            q = f"{question[:-1]} (case {k})?"
            k += 1
        self._questions.add(q)
        return q

    def example(self, title: str, file: str, question: str, gold: list,
                slots: list, rng: random.Random) -> None:
        """slots: (candidate text, kind) pairs; shuffled into sampling order."""
        rng.shuffle(slots)
        ex_id = f"{self.workload}-{len(self.dataset):04d}"
        question = self.unique_question(question)
        self.dataset.append({"id": ex_id, "question": question, "table_path": f"tables/{file}",
                             "title": title, "gold": gold})
        self.rule("parse:" + question, _parse_rule(question, [t for t, _ in slots]))
        self.expect[ex_id] = [kind for _, kind in slots]


# ---- call-using family (live-calls, warm-replay) ----

class _CallTable:
    """One small table and the model calls asked about it, memoized by question."""

    def __init__(self, rng: random.Random, noun: tuple, rows: int):
        self.rng = rng
        self.singular, self.plural = noun
        self.file = f"{self.plural}.csv"
        names = rng.sample([f"{a} {w}" for a in ADJS for w in WORDS], rows)
        unit = rng.choice(UNITS)
        self.header = ["name", "kind", "score", "year", "place", "size"]
        self.types = ["TEXT", "TEXT", "INTEGER", "INTEGER", "TEXT", "TEXT"]
        scores = rng.sample(range(1, 1000), rows)
        sizes = rng.sample(range(5, 5000), rows)
        self.rows = [[names[i], rng.choice(KINDS), scores[i], rng.randint(1900, 2020),
                      rng.choice(PLACES), f"{sizes[i]} {unit}"] for i in range(rows)]
        self.sizes = sizes
        self.calls: dict = {}  # question -> call spec

    def cells(self, col: str) -> list:
        j = self.header.index(col)
        return [str(r[j]) for r in self.rows]

    def _per_value(self, values: list, choices: list) -> list:
        """Answer per row, consistent for equal context values, both answers present."""
        distinct = sorted(set(values))
        while True:
            pick = {v: self.rng.choice(choices) for v in distinct}
            answers = [pick[v] for v in values]
            if len(set(answers)) > 1 or len(distinct) == 1:
                return answers

    def _spec(self, question: str, ctx, answers, sql_type: str, val: bool = False) -> dict:
        spec = {"question": question, "ctx": ctx, "answers": answers, "type": sql_type,
                "val": val, "col": f"m{len(self.calls)}"}
        self.calls[question] = spec
        return spec

    def yesno(self, col: str, prop: str) -> dict:
        q = f"Is the {col} of this {self.singular} {prop}?"
        return self.calls.get(q) or self._spec(
            q, col, self._per_value(self.cells(col), ["yes", "no"]), "TEXT")

    def number(self) -> dict:
        q = f"What is the number in the size of this {self.singular}?"
        return self.calls.get(q) or self._spec(q, "size", [str(s) for s in self.sizes], "REAL")

    def nested(self) -> dict:
        qi = f"Which region is the place of this {self.singular} in?"
        inner = self.calls.get(qi) or self._spec(
            qi, "place", self._per_value(self.cells("place"), REGIONS), "TEXT")
        qo = f"Is that region cold for a {self.singular}?"
        return self.calls.get(qo) or self._spec(
            qo, inner, self._per_value(inner["answers"], ["yes", "no"]), "TEXT")

    def value(self, col: str, question: str) -> dict:
        return self.calls.get(question) or self._spec(
            question, col, self.rng.choice(sorted(set(self.cells(col)))), "", val=True)

    def hostile(self, spec: dict, kind: str) -> dict:
        """Same call, reworded so the mock serves a hostile reply to it."""
        q = f"{spec['question'][:-1]}, {HOSTILE_SUFFIX[kind]}?"
        if q not in self.calls:
            self._spec(q, spec["ctx"], spec["answers"], spec["type"])["hostile"] = kind
        return self.calls[q]


def _call_text(spec: dict, ghost: str = "") -> str:
    ctx = spec["ctx"]
    inner = _call_text(ctx, ghost) if isinstance(ctx, dict) else (ghost or ctx)
    return f'{"f_val" if spec["val"] else "f"}("{spec["question"]}"; {inner})'


def _sqlite_ref(spec: dict) -> str:
    if spec["val"]:
        return "'" + spec["answers"].replace("'", "''") + "'"
    return spec["col"]


def _map_specs(spec: dict) -> list:
    """The map calls a call expression sends, inner first."""
    if spec["val"]:
        return []
    ctx = spec["ctx"]
    return (_map_specs(ctx) if isinstance(ctx, dict) else []) + [spec]


# template -> (question, main, variant) over placeholders {A}, {B}; A is the call swapped
# for a hostile one.
CALL_TEMPLATES = {
    "count": ("how many {plural} have a {col} that is {prop}?",
              "SELECT COUNT(*) FROM w WHERE {A} = 'yes'",
              "SELECT COUNT(name) FROM w WHERE {A} = 'yes'"),
    "top": ("which {singular} with a {col} that is {prop} has the highest score?",
            "SELECT name FROM w WHERE {A} = 'yes' ORDER BY score DESC LIMIT 1",
            "SELECT name FROM w WHERE 'yes' = {A} ORDER BY score DESC LIMIT 1"),
    "two": ("how many {plural} have a {col} that is {prop} and a {col2} that is {prop2}?",
            "SELECT COUNT(*) FROM w WHERE {A} = 'yes' AND {B} = 'yes'",
            "SELECT COUNT(*) FROM w WHERE {B} = 'yes' AND {A} = 'yes'"),
    "nested": ("how many {plural} lie in a cold region?",
               "SELECT COUNT(*) FROM w WHERE {A} = 'yes'",
               "SELECT COUNT(*) FROM w WHERE {A} != 'no'"),
    "number": ("which {singular} has the largest size?",
               "SELECT name FROM w ORDER BY {A} DESC LIMIT 1",
               "SELECT name FROM w ORDER BY {A} DESC, score LIMIT 1"),
    "group": ("how many {plural} of each kind have a {col} that is {prop}?",
              "SELECT kind, COUNT(*) FROM w WHERE {A} = 'yes' GROUP BY kind",
              "SELECT kind, COUNT(name) FROM w WHERE {A} = 'yes' GROUP BY kind"),
    "subquery": ("which {singular} scores best among those with a {col} that is {prop}?",
                 "SELECT name FROM w WHERE score = (SELECT MAX(score) FROM w WHERE {A} = 'yes')",
                 "SELECT name FROM w WHERE {A} = 'yes' ORDER BY score DESC LIMIT 1"),
    "val-filter": ("how many {plural} are of the rarest kind?",
                   "SELECT COUNT(*) FROM w WHERE kind = {A}",
                   "SELECT COUNT(*) FROM w WHERE {A} = kind"),
    "val-select": ("which place among the {plural} sounds the coldest?",
                   "SELECT {A}",
                   "SELECT {A} FROM w LIMIT 1"),
}
# What every table gets, once per cycle: (template, hostile kind of its variant slot).
# 16 calls over 12 programs, 2 of 12 nested, 4 of 12 variant slots hostile.
CALL_CYCLE = [("count", "no-rows"), ("count", ""), ("top", ""), ("two", "missing-rowid"),
              ("two", ""), ("nested", "dup-rowid"), ("nested", ""), ("number", ""),
              ("group", ""), ("subquery", "unknown-column"), ("val-filter", ""),
              ("val-select", "")]
CALL_COLS = ["place", "name", "kind"]


def _gen_calls(w: _Writer, rng: random.Random, examples: int, n_tables: int, tiny: bool) -> dict:
    sizes = [6, 8] if tiny else [10 + round(50 * i / (n_tables - 1)) for i in range(n_tables)]
    cycles = max(1, examples // (len(sizes) * len(CALL_CYCLE)))
    nouns = rng.sample(NOUNS, len(sizes))
    rng.shuffle(sizes)
    tables = [_CallTable(rng, noun, rows) for noun, rows in zip(nouns, sizes)]
    plan = [(t, name, hostile) for t in tables for name, hostile in CALL_CYCLE * cycles]
    rng.shuffle(plan)
    # Each table walks its (column, property) pairs in a seeded order, so the number
    # of distinct yes/no questions per table is the same for every seed.
    pairs = {id(t): [(c, p) for c in CALL_COLS for p in PROPS] for t in tables}
    for ps in pairs.values():
        rng.shuffle(ps)
    drawn = {id(t): 0 for t in tables}

    def next_pair(t):
        k = drawn[id(t)]
        drawn[id(t)] = k + 1
        return pairs[id(t)][k % len(pairs[id(t)])]

    templates = [name for _, name, _ in plan]
    for i, (t, name, hostile) in enumerate(plan):
        qtext, main, variant = CALL_TEMPLATES[name]
        col, prop = next_pair(t) if name in ("count", "top", "group", "subquery", "two") else ("", "")
        col2, prop2 = next_pair(t) if name == "two" else ("", "")
        if name in ("count", "top", "group", "subquery"):
            a, b = t.yesno(col, prop), None
        elif name == "two":
            a, b = t.yesno(col, prop), t.yesno(col2, prop2)
        elif name == "nested":
            a, b = t.nested(), None
        elif name == "number":
            a, b = t.number(), None
        elif name == "val-filter":
            a, b = t.value("kind", f"Which kind of {t.singular} is the rarest?"), None
        else:
            a, b = t.value("place", f"Which place of these {t.plural} sounds the coldest?"), None

        def render(template: str, a_spec: dict, ghost: str = "") -> str:
            return template.format(A=_call_text(a_spec, ghost),
                                   B=_call_text(b) if b else "")

        text = render(main, a)
        slots = [(text, "ok")] * 3
        if hostile:
            kind = hostile
            if kind == "unknown-column":
                slots.append((render(main, a, ghost="plce"), kind))
            else:
                target = a["ctx"] if name == "nested" else a
                swapped = t.hostile(target, kind)
                if name == "nested":
                    outer = dict(a, ctx=swapped)
                    slots.append((render(main, outer), kind))
                else:
                    slots.append((render(main, swapped), kind))
        else:
            slots.append((render(variant, a), "ok"))
        slots.append((_break(text, i), "syntax"))

        specs = _map_specs(a) + (_map_specs(b) if b else [])
        header = t.header + [s["col"] for s in specs]
        types = t.types + [s["type"] for s in specs]
        answers = [[float(v) if s["type"] == "REAL" else v for v in s["answers"]] for s in specs]
        rows = [r + [col_[k] for col_ in answers] for k, r in enumerate(t.rows)]
        db = _sqlite_table(header, types, rows)
        sql = main.format(A=_sqlite_ref(a), B=_sqlite_ref(b) if b else "")
        gold = _gold(db, sql)
        db.close()
        question = qtext.format(plural=t.plural, singular=t.singular, col=col, prop=prop,
                                col2=col2, prop2=prop2)
        w.example(t.plural, t.file, question, gold, slots, rng)

    for t in tables:
        w.tables[t.file] = _csv_bytes(t.header, t.rows)
        for spec in t.calls.values():
            if spec["val"]:
                w.rule("val:" + spec["question"], _val_rule(spec["question"], spec["answers"]))
                continue
            ctx = spec["ctx"]
            ctx_cells = ctx["answers"] if isinstance(ctx, dict) else t.cells(ctx)
            ctx_name = "value" if isinstance(ctx, dict) else ctx
            reply = _map_reply(ctx_name, spec["question"], ctx_cells, spec["answers"],
                               spec.get("hostile", ""))
            w.rule("map:" + spec["question"], _map_rule(spec["question"], reply))
    return {"table_rows": sorted(sizes), "templates": _count(templates),
            "nested_share": templates.count("nested") / len(templates)}


# ---- pure-SQL family (large-sql) ----

SQL_TEMPLATES = {
    "filter": [
        ("which {plural} in {cat} with more than {q} units have the highest amounts?",
         "SELECT name FROM w WHERE category = '{cat}' AND qty > {q} ORDER BY amount DESC LIMIT 5",
         "SELECT name FROM w WHERE qty > {q} AND category = '{cat}' ORDER BY amount DESC LIMIT 5"),
        ("how many {plural} from {city} are dated {y} or later?",
         "SELECT COUNT(*) FROM w WHERE year >= {y} AND city = '{city}'",
         "SELECT COUNT(name) FROM w WHERE city = '{city}' AND year >= {y}"),
    ],
    "group": [
        ("which categories have more than {k} {plural}?",
         "SELECT category, COUNT(*) FROM w GROUP BY category HAVING COUNT(*) > {k}",
         "SELECT category, COUNT(name) FROM w GROUP BY category HAVING COUNT(name) > {k}"),
        ("which three cities sold the most units after {y}?",
         "SELECT city, SUM(qty) FROM w WHERE year > {y} GROUP BY city ORDER BY SUM(qty) DESC, city LIMIT 3",
         "SELECT city, SUM(qty) FROM w WHERE {y} < year GROUP BY city ORDER BY SUM(qty) DESC, city LIMIT 3"),
        ("what is the largest amount in each category?",
         "SELECT category, MAX(amount) FROM w GROUP BY category",
         "SELECT category, MAX(amount) FROM w GROUP BY category ORDER BY category"),
    ],
    "like": [
        ("how many {plural} have a name starting with {p}?",
         "SELECT COUNT(*) FROM w WHERE name LIKE '{p}%'",
         "SELECT COUNT(name) FROM w WHERE name LIKE '{p}%'"),
        ("which {plural} with a code like {code} have the smallest amounts?",
         "SELECT name FROM w WHERE code LIKE '{code}%' ORDER BY amount LIMIT 5",
         "SELECT name FROM w WHERE code LIKE '{code}%' ORDER BY amount ASC LIMIT 5"),
    ],
    "subquery": [
        ("which {singular} in {cat} has the largest amount?",
         "SELECT name FROM w WHERE amount = (SELECT MAX(amount) FROM w WHERE category = '{cat}')",
         "SELECT name FROM w WHERE category = '{cat}' ORDER BY amount DESC LIMIT 1"),
    ],
}
# One cycle of the pure-SQL mix: (shape, table size class). The slow 10k-row and
# subquery examples are 8% of the mix, so example_ms.p90 falls inside the 1k-row group
# instead of on the edge between two groups.
SQL_MIX = ([("filter", "1k")] * 8 + [("group", "1k")] * 7 + [("like", "1k")] * 8
           + [("10k", "10k"), ("subquery", "small")])


class _SqlTable:
    def __init__(self, rng: random.Random, noun: tuple, rows: int):
        self.singular, self.plural = noun
        self.file = f"{self.plural}.csv"
        self.header = ["name", "category", "city", "amount", "qty", "year", "code", "day"]
        self.types = ["TEXT", "TEXT", "TEXT", "INTEGER", "INTEGER", "INTEGER", "TEXT", "TEXT"]
        amounts = rng.sample(range(10 * rows), rows)
        self.rows = []
        for i in range(rows):
            self.rows.append([
                f"{rng.choice(ADJS)} {rng.choice(WORDS)} {i}", rng.choice(CATEGORIES),
                rng.choice(PLACES), amounts[i], rng.randint(1, 100), rng.randint(1990, 2023),
                f"{rng.choice('abcdefgh')}{rng.choice('abcdefgh')}-{rng.randint(100, 999)}",
                f"{rng.randint(1990, 2023)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"])


def _misspell_column(text: str, header: list) -> str:
    """Misspell the first column the program names, as a model misreading the schema does."""
    for col in header:
        if re.search(rf"\b{col}\b", text):
            return re.sub(rf"\b{col}\b", col[:-1], text, count=1)
    raise ValueError(f"no column to misspell in {text!r}")


def _gen_sql(w: _Writer, rng: random.Random, examples: int, tiny: bool) -> dict:
    size_of = ({"1k": 60, "10k": 150, "small": 40} if tiny
               else {"1k": 1000, "10k": 10000, "small": 200})
    nouns = rng.sample(NOUNS, 8)
    classes = ["1k"] * 5 + ["10k"] + ["small"] * 2
    tables: dict = {}
    for noun, cls in zip(nouns, classes):
        tables.setdefault(cls, []).append(_SqlTable(rng, noun, size_of[cls]))
    dbs = {id(t): _sqlite_table(t.header, t.types, t.rows) for ts in tables.values() for t in ts}
    mix = _balanced(rng, SQL_MIX, examples)
    big_shapes = iter(["filter", "group", "like"] * examples)
    mix = [(next(big_shapes), cls) if shape == "10k" else (shape, cls) for shape, cls in mix]
    third = _balanced(rng, ["variant", "variant", "syntax", "variant", "variant", "unknown-column"],
                      examples)
    used = {cls: 0 for cls in tables}
    asked = {shape: 0 for shape in SQL_TEMPLATES}
    for i, (shape, cls) in enumerate(mix):
        t = tables[cls][used[cls] % len(tables[cls])]
        used[cls] += 1
        db = dbs[id(t)]
        qtext, main, variant = SQL_TEMPLATES[shape][asked[shape] % len(SQL_TEMPLATES[shape])]
        asked[shape] += 1
        fill = {"plural": t.plural, "singular": t.singular, "cat": rng.choice(CATEGORIES),
                "city": rng.choice(PLACES), "q": rng.randint(20, 80), "y": rng.randint(1995, 2018),
                "k": len(t.rows) // 10, "p": rng.choice(ADJS)[:2],
                "code": rng.choice("abcdefgh") + rng.choice("abcdefgh")}
        text = main.format(**fill)
        gold = _gold(db, text)
        slots = [(text, "ok"), (text, "ok")]
        if third[i] == "variant":
            slots.append((variant.format(**fill), "ok"))
        elif third[i] == "syntax":
            slots.append((_break(text, i), "syntax"))
        else:
            slots.append((_misspell_column(text, t.header), "unknown-column"))
        w.example(t.plural, t.file, qtext.format(**fill), gold, slots, rng)
    for db in dbs.values():
        db.close()
    for ts in tables.values():
        for t in ts:
            w.tables[t.file] = _csv_bytes(t.header, t.rows)
    return {"table_rows": sorted(size_of[c] for c in classes),
            "templates": _count([s for s, _ in mix]), "nested_share": 0.0}


def _count(items: list) -> dict:
    return dict(sorted(Counter(items).items()))


def _traffic(w: _Writer) -> dict:
    """Traffic properties measured on the written candidates."""
    kinds = [k for ks in w.expect.values() for k in ks]
    texts = []
    for rule in w.rules:
        if rule["prompt_pattern"].endswith(re.escape("\nBinder: ") + "$"):
            texts.append(rule["responses"])
    distinct = [len(dict.fromkeys(c)) for c in texts]
    calls = [len(re.findall(r'\bf(?:_val)?\("', t)) for c in texts for t in c]
    call_progs = [c for c in calls if c]
    return {
        "examples": len(w.dataset),
        "n": w.n,
        "duplicate_share": 1 - sum(distinct) / (len(distinct) * w.n),
        "call_program_share": len(call_progs) / len(calls),
        "calls_per_call_program": sum(call_progs) / len(call_progs) if call_progs else 0.0,
        "hostile_share": sum(1 for k in kinds if k != "ok") / len(kinds),
        "hostile_kinds": _count([k for k in kinds if k != "ok"]),
    }


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    """Write the workload's inputs under `out` and return its manifest."""
    spec = WORKLOADS[workload]
    rng = _seeded(workload, seed)
    examples = TINY[workload] if tiny else spec["examples"]
    n = 5 if spec["family"] == "calls" else 3
    w = _Writer(workload, n)
    if spec["family"] == "calls":
        shape = _gen_calls(w, rng, examples, spec["tables"], tiny)
    else:
        shape = _gen_sql(w, rng, examples, tiny)
    config = {
        "backend": {"mock": "mock.json"},
        "exemplars": "exemplars.json",
        "generation": {"temperature": 0.4, "sampling_n": n, "num_shots": 3},
        "vote_strategy": "program-biased",
        "parallelism": 2,
        "seed": 0,
    }
    manifest = {"workload": workload, "seed": seed, "size": "tiny" if tiny else "full",
                "why": spec["why"], "latency_ms": spec["latency_ms"], "cache": spec["cache"],
                **shape, **_traffic(w)}
    out = Path(out)
    (out / "tables").mkdir(parents=True, exist_ok=True)
    files = {f"tables/{name}": text for name, text in sorted(w.tables.items())}
    files["dataset.jsonl"] = "".join(json.dumps(r, sort_keys=True) + "\n" for r in w.dataset)
    files["mock.json"] = json.dumps(w.rules, indent=1, sort_keys=True) + "\n"
    files["exemplars.json"] = json.dumps(_exemplars(), indent=1, sort_keys=True) + "\n"
    files["config.json"] = json.dumps(config, indent=1, sort_keys=True) + "\n"
    files["expect.json"] = json.dumps({"manifest": manifest, "candidates": w.expect},
                                      indent=1, sort_keys=True) + "\n"
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.tiny)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
