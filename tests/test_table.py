from __future__ import annotations

import pytest

from lmsql import (DuplicateColumn, FormatError, IoError, LengthMismatch,
                   UnknownColumn, augment, linearize, load_table, normalize,
                   project)
from lmsql.table import Column, Table, parse_date_like

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


def test_normalize_idempotent(lachlan):
    assert normalize(lachlan) == lachlan


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
