from __future__ import annotations

import csv
import math
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import lmsql.table
from lmsql import (Backend, DuplicateColumn, FormatError, IoError, LengthMismatch, LmSqlError,
                   UnknownColumn, augment, linearize, load_table, normalize, parse,
                   project, run_program, table_from_json)
from lmsql.table import (Column, Table, cell_to_text, parse_date_like, parse_number)

from conftest import fixture_path, make_table


def test_load_csv_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("member,party,term\na,b,c\nd,e,f\ng,h,i\n")
    t = load_table(p)
    assert t.column_names() == ["member", "party", "term"]
    assert t.row_count == 3
    assert t.title == "t"


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("a,b\n")
    t = load_table(p)
    assert t.row_count == 0


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(FormatError):
        load_table(p)


def test_load_csv_ends_rows_only_at_newlines(tmp_path):
    """A raw line separator is cell text, and a quoted line break stays in its
    cell, as in an inline JSON table; only "\n" ends a row."""
    p = tmp_path / "t.csv"
    p.write_text('a,b\nfoo\u2028bar,1\n"foo\nbar",2\nx\u0085y\x0cz,3\n', encoding="utf-8")
    t = load_table(p)
    assert t.columns[0].cells == ("foo\u2028bar", "foo\nbar", "x\u0085y\x0cz")
    assert t.columns[1].cells == ("1", "2", "3")


def test_load_duplicate_headers(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("a,a\n1,2\n")
    with pytest.raises(FormatError):
        load_table(p)


def test_load_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_table(tmp_path / "nope.csv")


@pytest.mark.parametrize("name", ["latin1.csv", "latin1.json"])
def test_load_non_utf8_file_is_format_error(tmp_path, name):
    p = tmp_path / name
    p.write_bytes('{"header": ["caf\u00e9"], "rows": []}'.encode("latin-1"))
    with pytest.raises(FormatError):
        load_table(p)


def test_load_tsv_and_json(tmp_path):
    tsv = tmp_path / "t.tsv"
    tsv.write_text("a\tb\n1\tx\n")
    assert load_table(tsv).row_count == 1
    js = tmp_path / "t.json"
    js.write_text('{"title": "T", "header": ["a"], "rows": [[5], [null]]}')
    t = load_table(js)
    assert t.title == "T"
    assert t.columns[0].cells == (5.0, None)


def test_normalize_lowercases_and_adds_row_id():
    raw = Table("x", (Column("Member", "text", ("John Ryan", "MARY")),))
    t = normalize(raw)
    assert t.column_names() == ["row_id", "member"]
    assert t.column("member").cells == ("john ryan", "mary")
    assert t.column("row_id").cells == (0.0, 1.0)


class BigCityBackend(Backend):
    """Answers a map prompt row by row from its query block: yes for tokyo, no otherwise."""

    identity = "big-city"

    def _complete(self, req) -> list:
        block = req.prompt.rsplit("/*\n", 1)[1].split("\n*/")[0]
        rows = block.splitlines()[1:]  # below the line of column names
        return ["/*\n" + "\n".join(f"{r}\t{'yes' if r.endswith('tokyo') else 'no'}"
                                    for r in rows) + "\n*/"]


def test_a_row_id_column_of_the_table_is_renamed_and_not_used_as_row_ids():
    t = make_table("w", ["row_id", "city"], [[0, "tokyo"], [0, "oslo"]])
    assert t.column_names() == ["row_id", "row_id_2", "city"]
    assert t.column("row_id").cells == (0.0, 1.0)
    trace = run_program(parse('SELECT city, f("Is it big?"; city) FROM w'), t, BigCityBackend(),
                        pool=[])
    assert trace.answer.display() == ["tokyo", "yes", "oslo", "no"]


def test_normalize_type_inference():
    t = make_table("x", ["n", "r", "d", "s", "term"],
                   [["1", "1.5", "1990-05-27 00:00:00", "abc", "1859–1864"],
                    ["2", "2", "March 3, 1991", "5", "1864–1869"]])
    types = {c.name: c.declared_type for c in t.columns}
    assert types == {"row_id": "int", "n": "int", "r": "real", "d": "date",
                     "s": "text", "term": "text"}
    assert str(t.column("d").cells[0]) == "1990-05-27"


def test_normalize_empty_cells_ignored_for_inference():
    t = make_table("x", ["n"], [["4"], [""], ["6"]])
    assert t.column("n").declared_type == "int"
    assert t.column("n").cells == (4.0, None, 6.0)


def test_normalize_sanitizes_and_dedupes_names():
    t = make_table("x", ["Signed From", "signed_from", "% of total"],
                   [["a", "b", "1"]])
    assert t.column_names() == ["row_id", "signed_from", "signed_from_2", "of_total"]


def test_project_keeps_row_id(shirts):
    sub = project(shirts, ["made_in"])
    assert sub.column_names() == ["row_id", "made_in"]
    assert sub.row_count == shirts.row_count
    assert sub.column("made_in").cells == shirts.column("made_in").cells


def test_project_identity_and_errors(shirts):
    assert project(shirts, shirts.column_names()).column_names() == shirts.column_names()
    with pytest.raises(UnknownColumn):
        project(shirts, ["nonexistent"])


def test_project_resolves_unsanitized_names(shirts):
    sub = project(shirts, ["Made In"])
    assert sub.column_names() == ["row_id", "made_in"]


def test_augment():
    t = make_table("x", ["a"], [["1"], ["2"], ["3"]])
    t2 = augment(t, Column("flag", "text", ("yes", "no", "yes")))
    assert t2.column_names() == ["row_id", "a", "flag"]
    assert t.column_names() == ["row_id", "a"]  # original untouched
    with pytest.raises(LengthMismatch):
        augment(t, Column("bad", "text", ("x", "y")))
    with pytest.raises(DuplicateColumn):
        augment(t2, Column("flag", "text", ("a", "b", "c")))


def test_linearize_matches_published_block(lachlan):
    golden = fixture_path("golden/lachlan_linearize.txt").read_text(encoding="utf-8")
    assert linearize(lachlan, "Electoral district of Lachlan", 3) == golden


def test_linearize_empty_and_clamped(lachlan):
    empty = make_table("x", ["a"], [])
    out = linearize(empty, "x", 3)
    assert out.splitlines()[-2] == "row_id\ta"  # header line, zero value rows
    clamped = linearize(lachlan, "t", 100)
    assert len(clamped.splitlines()) == len(linearize(lachlan, "t", 3).splitlines())


def test_linearize_full_variant(lachlan):
    out = linearize(lachlan, "t", lachlan.row_count, full=True)
    assert "All rows of the table:\nSELECT * FROM w;" in out
    assert "example rows" not in out


def test_linearize_line_count(records):
    out = linearize(records, "t", 3)
    # CREATE line + one line per column + "/*" + 2 announce lines + header + 3 rows + "*/"
    assert len(out.splitlines()) == 1 + len(records.columns) + 1 + 2 + 1 + 3 + 1


def test_parse_date_like_forms():
    for s in ("1990-05-27", "1990-05-27 00:00:00", "May 27, 1990", "27 May 1990", "5/27/1990"):
        d = parse_date_like(s)
        assert d is not None and d.isoformat() == "1990-05-27"
    assert parse_date_like("не дата") is None
    assert parse_date_like("1859–1864") is None


# ---- ingest against the two-pass code it replaced ----
# Every cell went through old_ingest_cell on ingest, and _infer_cells then
# walked it again. The old code runs through the public functions with
# these two in place of the current ones.

def old_ingest_cell(v):
    if v is None:
        return None
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        f = float(v)
        return f if math.isfinite(f) else None
    return str(v)


def old_table_from_grid(title, header, grid):
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise FormatError(f"duplicate headers: {dupes}")
    for i, row in enumerate(grid):
        if len(row) != len(header):
            raise FormatError(f"ragged row {i}: {len(row)} fields, expected {len(header)}")
    cols = []
    for j, name in enumerate(header):
        cells = tuple(old_ingest_cell(row[j]) for row in grid)
        cols.append(Column(str(name), "text", cells))
    return Table(title, tuple(cols))


def old_table_from_json(obj):
    return old_table_from_grid(str(obj.get("title", "")), list(obj["header"]),
                               [list(r) for r in obj["rows"]])


def old_infer_cells(cells):
    present = []
    for v in cells:
        if v is None or (isinstance(v, str) and not v.strip()):
            present.append(None)
        else:
            present.append(v)
    nonnull = [v for v in present if v is not None]

    def all_numeric():
        out = []
        for v in nonnull:
            if isinstance(v, float):
                out.append(v)
            elif isinstance(v, str):
                n = parse_number(v)
                if n is None:
                    return None
                out.append(n)
            else:
                return None
        return out

    if nonnull:
        nums = all_numeric()
        if nums is not None:
            kind = "int" if all(n == int(n) for n in nums) else "real"
            it = iter(nums)
            return kind, tuple(None if v is None else next(it) for v in present)
        dates = []
        for v in nonnull:
            d = v if isinstance(v, date) else parse_date_like(v) if isinstance(v, str) else None
            if d is None:
                dates = None
                break
            dates.append(d)
        if dates:
            it = iter(dates)
            return "date", tuple(None if v is None else next(it) for v in present)
    text = tuple(None if v is None else cell_to_text(v).lower() for v in present)
    return "text", text


def ingest_outcome(build, two_pass=False):
    """The normalized table build() gives, every cell with its exact type
    (1.0, True and '1' differ), or the error it raises."""
    with pytest.MonkeyPatch.context() as mp:
        if two_pass:
            mp.setattr(lmsql.table, "_table_from_grid", old_table_from_grid)
            mp.setattr(lmsql.table, "_infer_cells", old_infer_cells)
        try:
            t = normalize(build())
        except LmSqlError as e:
            return type(e), str(e)
    return t.title, [(c.name, c.declared_type, [(type(v), repr(v)) for v in c.cells])
                     for c in t.columns]


blank_text = st.sampled_from(["", " ", "\t", "  "])
number_text = st.one_of(st.integers().map(str), st.floats().map(repr),
                        st.sampled_from(["1_000", " 7 ", "1e3", "-0", "+2.50", "nan", "-inf"]))
date_text = st.one_of(st.dates(min_value=date(1000, 1, 1)).map(date.isoformat),
                      st.sampled_from(["2013-11-13 10:20", "March 3, 2001", "3 mar 2001",
                                       "1/2/2003", "2001-02-30", "13/13/2013"]))
cell_texts = [st.text(max_size=8), blank_text, number_text, date_text]
cell_values = [st.none(), st.booleans(), st.integers(), st.floats(),
               st.sampled_from([math.nan, math.inf, -math.inf]), *cell_texts]
headers = st.lists(st.sampled_from(["a", "b", "A", "row_id", "x y", "", "1st"]),
                   max_size=4, unique=True)


def event_kinds(outcome) -> None:
    if isinstance(outcome[1], str):
        event(outcome[1].split(":")[0])
        return
    for _, kind, _ in outcome[1][1:]:
        event(kind)


@st.composite
def grids(draw, kinds):
    """A header and rows, each column's cells drawn mostly from one kind (so
    that numeric and date columns occur), and now and then a repeated header
    or a ragged row."""
    header = draw(headers)
    if header and draw(st.integers(0, 9)) == 0:
        header.append(header[0])
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in header:
        kind = draw(st.sampled_from(kinds))
        mixed = st.sampled_from(kinds).flatmap(lambda k: k)
        cells = st.one_of(kind, kind, kind, blank_text, mixed)
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    rows = [list(row) for row in zip(*columns)] if header else [[] for _ in range(n_rows)]
    if rows and draw(st.integers(0, 9)) == 0:
        row = draw(st.sampled_from(rows))
        row.pop() if row and draw(st.booleans()) else row.append("")
    return header, rows


@settings(max_examples=300, deadline=None)
@given(grid=grids(cell_texts), suffix=st.sampled_from([".csv", ".tsv"]))
def test_csv_ingest_matches_two_pass(grid, suffix):
    header, rows = grid
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"t{suffix}"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, delimiter="," if suffix == ".csv" else "\t",
                       lineterminator="\n").writerows([header, *rows])
        outcome = ingest_outcome(lambda: load_table(path))
        assert outcome == ingest_outcome(lambda: load_table(path), two_pass=True)
    event_kinds(outcome)


@settings(max_examples=300, deadline=None)
@given(grid=grids(cell_values), title=st.text(max_size=5))
def test_json_ingest_matches_two_pass(grid, title):
    header, rows = grid
    obj = {"title": title, "header": header, "rows": rows}
    outcome = ingest_outcome(lambda: table_from_json(obj))
    assert outcome == ingest_outcome(lambda: old_table_from_json(obj), two_pass=True)
    event_kinds(outcome)


# ---- hostile JSON tables ----
# A dataset line may carry any JSON as its table: every header entry and
# cell of every JSON type, integers beyond float range, nesting.

big_integers = st.integers(10**308, 10**400).flatmap(lambda n: st.sampled_from([n, -n]))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), big_integers,
                         st.floats(), st.text(max_size=6))
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@st.composite
def json_tables(draw):
    header = draw(st.lists(st.one_of(json_scalars, json_scalars, json_values), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        header += header  # repeated headers, of mixed types
    row = st.lists(json_values, min_size=len(header), max_size=len(header))
    obj = {"header": header, "rows": draw(st.lists(row, max_size=4))}
    if draw(st.booleans()):
        obj["title"] = draw(json_values)
    return obj


@pytest.mark.parametrize("header, names", [([1, True], ["row_id", "c_1", "true"]),
                                           ([1, "1"], None), ([None, "None"], None)])
def test_json_header_repeats_are_checked_on_the_column_names(header, names):
    obj = {"header": header, "rows": [[1, 2]]}
    if names is None:
        with pytest.raises(FormatError, match="duplicate headers"):
            table_from_json(obj)
    else:
        assert normalize(table_from_json(obj)).column_names() == names


@settings(max_examples=300, deadline=None)
@given(obj=json_tables())
def test_any_json_table_is_a_table_or_an_lmsql_error(obj):
    try:
        t = normalize(table_from_json(obj))
    except LmSqlError as e:
        event(type(e).__name__)
        return
    assert isinstance(t, Table)
    event("table")
