"""Cross-check the evaluator against sqlite on randomized tables and queries."""

from __future__ import annotations

import random

from lmsql import execute_sql, parse

from randgen import make_random_table, random_query, rows_match, sqlite_denotation

TRIALS = 250


def test_matches_sqlite_on_random_queries():
    rng = random.Random(20260809)
    failures = []
    for trial in range(TRIALS):
        table, num_cols, text_cols = make_random_table(rng)
        mine_sql, sqlite_sql, ordered = random_query(rng, num_cols, text_cols)
        mine = execute_sql(parse(mine_sql), table)
        theirs = sqlite_denotation(table, sqlite_sql)
        if not rows_match(mine, theirs, ordered):
            failures.append((trial, mine_sql, mine, theirs))
    assert not failures, f"{len(failures)} mismatches, first: {failures[0]}"


def test_generator_covers_shapes():
    rng = random.Random(7)
    seen = {"ORDER BY": 0, "GROUP BY": 0, "WHERE": 0, "LIKE": 0, "DISTINCT": 0,
            "LIMIT": 0, "(SELECT": 0}
    for _ in range(400):
        _, nc, tc = make_random_table(rng)
        sql, _, _ = random_query(rng, nc, tc)
        for key in seen:
            if key in sql:
                seen[key] += 1
    assert all(count > 10 for count in seen.values()), seen
