"""Random tables and subset queries for cross-checking the evaluator against
sqlite. The generator emits type-correct queries (numeric comparisons on
numeric columns, string predicates on text columns) and keeps ORDER BY keys
total, so both engines are deterministic; the sqlite rendering only adds
NULLS LAST, which is this evaluator's fixed policy."""

from __future__ import annotations

import sqlite3
from datetime import date

from lmsql.table import Column, Table

VOCAB = ["apple", "pear", "plum", "kiwi", "mango", "fig", "grape", "lime"]


def make_random_table(rng):
    """Table with row_id, 1-3 numeric and 1-2 text columns, some nulls."""
    n_rows = rng.choice([0, 1, 2] + [rng.randint(3, 20)] * 5)
    columns = [Column("row_id", "int", tuple(float(i) for i in range(n_rows)))]
    num_cols, text_cols = [], []
    idx = 1
    for _ in range(rng.randint(1, 3)):
        name = f"n{idx}"
        idx += 1
        cells = []
        for _ in range(n_rows):
            if rng.random() < 0.12:
                cells.append(None)
            elif rng.random() < 0.6:
                cells.append(float(rng.randint(-5, 15)))
            else:
                cells.append(round(rng.uniform(-10.0, 30.0), 3))
        columns.append(Column(name, "real", tuple(cells)))
        num_cols.append(name)
    for _ in range(rng.randint(1, 2)):
        name = f"t{idx}"
        idx += 1
        cells = tuple(None if rng.random() < 0.1 else rng.choice(VOCAB) for _ in range(n_rows))
        columns.append(Column(name, "text", cells))
        text_cols.append(name)
    return Table("rand", tuple(columns)), num_cols, text_cols


# text cells that read as numbers, and some that only look like them
NUMERIC_TEXT = ["3", "3.0", "12", " 7", "-2", "3.5", "1e1", "10", "0", "apple", "12abc", "nan",
                "inf", ""]
DATE_LITERALS = ["2020-06-01", "2021-03-03", "1999-12-31", "March 3, 2021", "1 jan 2020",
                 "5/17/2020", "not a date"]


def make_rich_table(rng):
    """make_random_table plus a date column `d` and a text column `s` of
    mostly numeric-looking cells. sqlite cannot check either: it has no date
    type, and it compares text with a number by storage class, not by value."""
    table, num_cols, text_cols = make_random_table(rng)
    n = table.row_count
    dates = tuple(None if rng.random() < 0.15 else
                  date(rng.choice([1999, 2020, 2021]), rng.randint(1, 12), rng.randint(1, 28))
                  for _ in range(n))
    texts = tuple(None if rng.random() < 0.1 else rng.choice(NUMERIC_TEXT) for _ in range(n))
    columns = table.columns + (Column("d", "date", dates), Column("s", "text", texts))
    return Table(table.title, columns), num_cols, text_cols


def _rich_atom(rng, num_cols) -> str:
    """A predicate over the rich columns; many of these are null on some or
    all rows (a date against a number, text that is not a number)."""
    cmp_op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    n = rng.choice(num_cols)
    return rng.choice([
        lambda: f"d {cmp_op} '{rng.choice(DATE_LITERALS)}'",
        lambda: f"d {cmp_op} {rng.randint(0, 5)}",
        lambda: f"d IS {'NOT ' if rng.random() < 0.5 else ''}NULL",
        lambda: f"d IN ('{rng.choice(DATE_LITERALS)}', '{rng.choice(DATE_LITERALS)}')",
        lambda: "d = (SELECT MAX(d) FROM w)",
        lambda: f"s {cmp_op} {rng.randint(-3, 12)}",
        lambda: f"s {cmp_op} '{rng.choice(NUMERIC_TEXT)}'",
        lambda: f"s {'NOT ' if rng.random() < 0.3 else ''}IN (3, '12', 'apple', {n})",
        lambda: f"s {'NOT ' if rng.random() < 0.5 else ''}LIKE '{rng.choice(['1%', '%a%', '_'])}'",
        lambda: f"(s + {n}) {cmp_op} {rng.randint(-3, 12)}",
        lambda: f"({n} / {rng.choice([0, 2])}) {cmp_op} s",
        lambda: f"(SELECT COUNT(*) FROM w WHERE s > 2) {cmp_op} {n}",
        lambda: f"{n} % {rng.choice([0, 3])} = 1",
        lambda: rng.choice(["s", n, "d", "NULL", "'yes'", "-s"]),
    ])()


def rich_pred(rng, num_cols, text_cols, depth=2) -> str:
    """A random predicate over a make_rich_table table, nulls included."""
    r = rng.random()
    if depth > 0 and r < 0.3:
        op = rng.choice(["AND", "OR"])
        return (f"({rich_pred(rng, num_cols, text_cols, depth - 1)} {op} "
                f"{rich_pred(rng, num_cols, text_cols, depth - 1)})")
    if depth > 0 and r < 0.4:
        return f"NOT ({rich_pred(rng, num_cols, text_cols, depth - 1)})"
    if r < 0.65:
        return _pred(rng, num_cols, text_cols, 0)
    return _rich_atom(rng, num_cols)


def _num_expr(rng, num_cols, depth=2) -> str:
    r = rng.random()
    if depth == 0 or r < 0.45:
        return rng.choice(num_cols)
    if r < 0.6:
        return str(rng.randint(-5, 15))
    if r < 0.7:
        return f"-{rng.choice(num_cols)}"
    if r < 0.8:
        return f"({rng.choice(num_cols)} / {rng.choice([2, 4, 5])})"
    op = rng.choice(["+", "-", "*"])
    return f"({_num_expr(rng, num_cols, depth - 1)} {op} {_num_expr(rng, num_cols, depth - 1)})"


def _pred(rng, num_cols, text_cols, depth=2) -> str:
    r = rng.random()
    if depth > 0 and r < 0.3:
        op = rng.choice(["AND", "OR"])
        return (f"({_pred(rng, num_cols, text_cols, depth - 1)} {op} "
                f"{_pred(rng, num_cols, text_cols, depth - 1)})")
    if depth > 0 and r < 0.38:
        return f"NOT {_pred(rng, num_cols, text_cols, depth - 1)}"
    kind = rng.random()
    if kind < 0.45 or not text_cols:
        cmp_op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{_num_expr(rng, num_cols, 1)} {cmp_op} {rng.randint(-5, 15)}"
    col = rng.choice(text_cols)
    choice = rng.random()
    if choice < 0.3:
        op = rng.choice(["=", "!="])
        return f"{col} {op} '{rng.choice(VOCAB)}'"
    if choice < 0.5:
        words = ", ".join(f"'{w}'" for w in rng.sample(VOCAB, rng.randint(1, 3)))
        return f"{col} {'NOT ' if rng.random() < 0.3 else ''}IN ({words})"
    if choice < 0.75:
        word = rng.choice(VOCAB)
        pattern = rng.choice([word[:2] + "%", "%" + word[-2:], word[0] + "_" + "%"])
        return f"{col} LIKE '{pattern}'"
    return f"{col} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"


def _aggregate(rng, num_cols, text_cols) -> str:
    kind = rng.random()
    if kind < 0.2:
        return "COUNT(*)"
    if kind < 0.35:
        return f"COUNT({rng.choice(num_cols + text_cols)})"
    if kind < 0.45:
        return f"COUNT(DISTINCT {rng.choice(num_cols + text_cols)})"
    if kind < 0.6:
        return f"SUM({rng.choice(num_cols)})"
    if kind < 0.7:
        return f"AVG({rng.choice(num_cols)})"
    func = rng.choice(["MIN", "MAX"])
    return f"{func}({rng.choice(num_cols + text_cols)})"


def random_query(rng, num_cols, text_cols):
    """Returns (text_for_lmsql, text_for_sqlite, ordered)."""
    all_cols = num_cols + text_cols
    where = f" WHERE {_pred(rng, num_cols, text_cols)}" if rng.random() < 0.6 else ""
    shape = rng.random()
    order_keys: list = []

    if shape < 0.38:  # plain row query
        items = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.5:
                items.append(rng.choice(all_cols + ["row_id"]))
            elif r < 0.8:
                items.append(_num_expr(rng, num_cols))
            else:
                items.append(f"{_num_expr(rng, num_cols, 1)} {rng.choice(['>', '<=', '='])} "
                             f"{rng.randint(-2, 12)}")
        distinct = ""
        limit = ""
        if rng.random() < 0.55:
            for _ in range(rng.randint(1, 2)):
                order_keys.append((rng.choice(all_cols), rng.random() < 0.5))
            order_keys.append(("row_id", False))  # total order tiebreak
            if rng.random() < 0.5:
                limit = f" LIMIT {rng.randint(0, 8)}"
        elif rng.random() < 0.25:
            distinct = "DISTINCT "
        select = f"SELECT {distinct}{', '.join(items)} FROM w{where}"
        return _with_order(select, order_keys, limit)

    if shape < 0.6:  # global aggregates
        items = [_aggregate(rng, num_cols, text_cols) for _ in range(rng.randint(1, 3))]
        select = f"SELECT {', '.join(items)} FROM w{where}"
        return select, select, False

    if shape < 0.85:  # grouped
        gcol = rng.choice(all_cols)
        items = [gcol] + [_aggregate(rng, num_cols, text_cols) for _ in range(rng.randint(1, 2))]
        having = ""
        if rng.random() < 0.4:
            having = f" HAVING COUNT(*) {rng.choice(['>', '>=', '='])} {rng.randint(1, 3)}"
        select = f"SELECT {', '.join(items)} FROM w{where} GROUP BY {gcol}{having}"
        limit = ""
        if rng.random() < 0.6:
            order_keys.append((gcol, rng.random() < 0.5))
            if rng.random() < 0.4:
                limit = f" LIMIT {rng.randint(0, 5)}"
        return _with_order(select, order_keys, limit)

    if shape < 0.95:  # scalar subquery compared in a FROM-less select
        sub = f"SELECT COUNT(*) FROM w{where}"
        select = f"SELECT (it) {rng.choice(['=', '>', '<='])} {rng.randint(0, 10)}".replace("it", sub)
        return select, select, False

    # scalar subquery inside WHERE
    agg = rng.choice([f"AVG({rng.choice(num_cols)})", f"MAX({rng.choice(num_cols)})", "COUNT(*)"])
    select = (f"SELECT row_id, {rng.choice(all_cols)} FROM w "
              f"WHERE {rng.choice(num_cols)} >= (SELECT {agg} FROM w)")
    order_keys.append(("row_id", False))
    return _with_order(select, order_keys, "")


def _with_order(select: str, order_keys: list, limit: str):
    if not order_keys:
        return select + limit, select + limit, False
    mine = ", ".join(k + (" DESC" if d else "") for k, d in order_keys)
    theirs = ", ".join(k + (" DESC" if d else "") + " NULLS LAST" for k, d in order_keys)
    return (f"{select} ORDER BY {mine}{limit}",
            f"{select} ORDER BY {theirs}{limit}",
            True)


def sqlite_denotation(t: Table, sql: str) -> list:
    conn = sqlite3.connect(":memory:")
    decls = ", ".join(
        f'"{c.name}" {"TEXT" if c.declared_type == "text" else "REAL"}' for c in t.columns)
    conn.execute(f"CREATE TABLE w ({decls})")
    conn.executemany(f"INSERT INTO w VALUES ({', '.join('?' * len(t.columns))})",
                     list(t.rows()))
    rows = [tuple(r) for r in conn.execute(sql).fetchall()]
    conn.close()
    return rows


def _cell_key(v):
    if v is None:
        return ("null",)
    if isinstance(v, (int, float)):
        return ("n", round(float(v), 9))
    return ("t", str(v))


def rows_match(mine, theirs, ordered: bool) -> bool:
    if len(mine) != len(theirs):
        return False
    a = [tuple(_cell_key(v) for v in row) for row in mine]
    b = [tuple(_cell_key(v) for v in row) for row in theirs]
    if not ordered:
        a, b = sorted(a), sorted(b)
    return a == b
