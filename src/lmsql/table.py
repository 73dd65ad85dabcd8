"""Table data model: ingestion, normalization, projection and prompt linearization.

A Table is immutable; every shaping operation returns a new one, and its
cache of rendered row lines (row_lines) changes no result. Cells are
plain Python values: None (null), float (all numbers), str (text, lowercased
by normalize) or datetime.date.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import DuplicateColumn, FormatError, IoError, LengthMismatch, UnknownColumn

Cell = Union[None, float, str, date]

ROW_ID = "row_id"

_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        "january february march april may june july august september october november december".split()
    )
}
_MONTHS.update({m[:3]: v for m, v in list(_MONTHS.items())})

_DATE_PATTERNS = (
    # ISO, with optional time-of-day suffix that gets truncated
    re.compile(r"^(?P<y>\d{4})-(?P<m>\d{1,2})-(?P<d>\d{1,2})(?:[ t]\d{2}:\d{2}(?::\d{2})?)?$"),
    # Month D, YYYY
    re.compile(r"^(?P<mon>[a-z]+) (?P<d>\d{1,2}),? (?P<y>\d{4})$"),
    # D Month YYYY
    re.compile(r"^(?P<d>\d{1,2}) (?P<mon>[a-z]+),? (?P<y>\d{4})$"),
    # M/D/YYYY
    re.compile(r"^(?P<m>\d{1,2})/(?P<d>\d{1,2})/(?P<y>\d{4})$"),
)


def parse_date_like(text: str) -> Optional[date]:
    """Parse a date in one of the accepted surface forms, or return None."""
    s = text.strip().lower()
    for pat in _DATE_PATTERNS:
        m = pat.match(s)
        if not m:
            continue
        g = m.groupdict()
        if "mon" in g:
            month = _MONTHS.get(g["mon"])
            if month is None:
                continue
        else:
            month = int(g["m"])
        try:
            return date(int(g["y"]), month, int(g["d"]))
        except ValueError:
            continue
    return None


def parse_number(text: str) -> Optional[float]:
    """Parse a finite number, or return None. NaN/Inf spellings and Python's
    digit grouping ('1_000') stay text, as they do in sqlite."""
    if "_" in text:
        return None
    try:
        v = float(text.strip())
    except (ValueError, TypeError):
        return None
    return v if math.isfinite(v) else None


def format_number(v: float) -> str:
    """Integral floats print without a decimal point."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def cell_to_text(v: Cell) -> str:
    """Render a cell for prompts and CSV output; null renders empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return format_number(v)
    if isinstance(v, date):
        return v.isoformat()
    return str(v)


def sanitize_name(name: str) -> str:
    """Identifier-safe column name: lowercase, runs of other chars become _."""
    s = re.sub(r"[^a-z0-9]+", "_", name.strip().lower()).strip("_")
    if not s:
        s = "col"
    if s[0].isdigit():
        s = "c_" + s
    return s


@dataclass(frozen=True)
class Column:
    name: str
    declared_type: str  # int | real | text | date
    cells: tuple

    def __post_init__(self):
        if self.declared_type not in ("int", "real", "text", "date"):
            raise ValueError(f"bad declared_type {self.declared_type!r}")
        object.__setattr__(self, "cells", tuple(self.cells))


@dataclass(frozen=True)
class Table:
    title: str
    columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        lengths = {len(c.cells) for c in self.columns}
        if len(lengths) > 1:
            raise LengthMismatch(f"ragged columns: lengths {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[0].cells) if self.columns else 0

    def column_names(self) -> list:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Look up a column by exact name, falling back to its sanitized form
        so programs written against original headers still resolve."""
        for c in self.columns:
            if c.name == name:
                return c
        wanted = sanitize_name(name)
        for c in self.columns:
            if c.name == wanted:
                return c
        raise UnknownColumn(name, self.column_names())

    def rows(self) -> Iterator[tuple]:
        return zip(*(c.cells for c in self.columns))

    @cached_property
    def _row_lines(self) -> tuple:
        return [], [0], self.rows()  # lines, running lengths, rows not yet rendered

    def row_lines(self, room: int) -> tuple:
        """The leading rows' prompt lines, each a newline plus linearize_row,
        and their running lengths, which start at 0. Each row is rendered once
        per Table, and only when a caller's `room` reaches past the lines
        rendered so far."""
        lines, ends, rows = self._row_lines
        while ends[-1] <= room and len(lines) < self.row_count:
            lines.append("\n" + linearize_row(next(rows)))
            ends.append(ends[-1] + len(lines[-1]))
        return lines, ends


# ---- ingestion ----

def _table_from_grid(title: str, header: list, grid: list) -> Table:
    names = [str(h) for h in header]  # the column names; JSON headers mix types
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate headers: {sorted({n for n in names if names.count(n) > 1})}")
    for i, row in enumerate(grid):
        if len(row) != len(header):
            raise FormatError(f"ragged row {i}: {len(row)} fields, expected {len(header)}")
    columns = zip(*grid) if grid else [()] * len(header)
    return Table(title, tuple(Column(name, "text", cells) for name, cells in zip(names, columns)))


def _ingest_cell(v) -> Cell:
    if v is None:
        return None
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        try:
            f = float(v)
        except OverflowError:  # an integer beyond float range
            return None
        return f if math.isfinite(f) else None
    return str(v)


def table_from_json(obj: dict, title: Optional[str] = None) -> Table:
    """Build a table from {"title":..., "header":[...], "rows":[[...],...]}."""
    try:
        header = list(obj["header"])
        rows = [list(r) for r in obj["rows"]]
    except (KeyError, TypeError) as e:
        raise FormatError(f"JSON table needs 'header' and 'rows': {e}")
    if any(isinstance(h, (dict, list)) for h in header):
        raise FormatError("JSON table header entries must be strings, numbers, booleans or null")
    t = _table_from_grid(title or str(obj.get("title", "")), header, rows)
    return Table(t.title, tuple(Column(c.name, "text", map(_ingest_cell, c.cells)) for c in t.columns))


def read_text(path) -> str:
    """The text of one UTF-8 input file. An unreadable file is an IoError;
    one that is not UTF-8 is a FormatError."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as e:
        raise IoError(f"cannot read {p}: {e}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{p.name} is not UTF-8 text: {e}")


def read_json(path, what: str, array: bool = False):
    """Parse one JSON input file. An unreadable file is an IoError; bad JSON,
    and with array=True anything but a JSON array, is a FormatError."""
    p = Path(path)
    try:
        value = json.loads(p.read_text(encoding="utf-8"))
    except OSError as e:
        raise IoError(f"cannot read {what} {p}: {e}")
    except ValueError as e:  # bad JSON or bad UTF-8
        raise FormatError(f"bad JSON in {p.name}: {e}")
    if array and not isinstance(value, list):
        raise FormatError(f"{p.name}: {what} must be a JSON array, got {type(value).__name__}")
    return value


def text_fields(entry, names: tuple, where: str) -> tuple:
    """The values of the named fields of one input object, each a string; an
    entry that is not an object, or a field that is missing or not a string,
    is a FormatError naming `where`."""
    if not isinstance(entry, dict):
        raise FormatError(f"{where}: expected an object, got {type(entry).__name__}")
    for name in names:
        if name not in entry:
            raise FormatError(f"{where}: missing field {name!r}")
        if not isinstance(entry[name], str):
            raise FormatError(f"{where}: field {name!r} must be a string")
    return tuple(entry[name] for name in names)


def load_table(path) -> Table:
    """Load an un-normalized table from CSV, TSV or JSON, by the file's
    suffix. Column order is preserved; all CSV/TSV cells stay text until
    normalize()."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix not in (".csv", ".tsv", ".json"):
        raise FormatError(f"unknown table format {p.suffix!r} for {p.name}")
    if suffix == ".json":
        return table_from_json(read_json(p, "table"))
    delim = "," if suffix == ".csv" else "\t"
    # only "\n" ends a row: a quoted line break stays in its cell, and other
    # line-break characters are cell text
    rows = list(csv.reader(io.StringIO(read_text(p), newline=""), delimiter=delim))
    if not rows:
        raise FormatError(f"{p.name} is empty")
    return _table_from_grid(p.stem, rows[0], rows[1:])


# ---- normalization ----

def _convert_all(cells: list, convert):
    """convert(v) for each cell, nulls kept; None if any conversion fails."""
    out = []
    for v in cells:
        if v is not None:
            v = convert(v)
            if v is None:
                return None
        out.append(v)
    return out


def as_number(v) -> Optional[float]:
    return v if isinstance(v, float) else parse_number(v) if isinstance(v, str) else None


def as_date(v) -> Optional[date]:
    return v if isinstance(v, date) else parse_date_like(v) if isinstance(v, str) else None


def _infer_cells(cells: Iterable[Cell]):
    """Infer (declared_type, converted_cells). Empty/missing cells are ignored
    for inference and stored null."""
    present = [None if v is None or (isinstance(v, str) and not v.strip()) else v for v in cells]
    if present.count(None) < len(present):
        nums = _convert_all(present, as_number)
        if nums is not None:
            kind = "int" if all(n is None or n == int(n) for n in nums) else "real"
            return kind, tuple(nums)
        dates = _convert_all(present, as_date)
        if dates is not None:
            return "date", tuple(dates)
    return "text", tuple(v if v is None else v.lower() if isinstance(v, str)
                         else cell_to_text(v).lower() for v in present)


def normalize(t: Table) -> Table:
    """Lowercase text, infer types, sanitize names and put the row ids 0..n-1
    first, as row_id. A column of t that is named row_id is renamed like any
    other repeated name."""
    used = {ROW_ID}
    counts: dict = {}
    new_cols = [Column(ROW_ID, "int", tuple(float(i) for i in range(t.row_count)))]
    for col in t.columns:
        base = sanitize_name(col.name)
        name = base
        while name in used:
            counts[base] = counts.get(base, 1) + 1
            name = f"{base}_{counts[base]}"
        used.add(name)
        kind, cells = _infer_cells(col.cells)
        new_cols.append(Column(name, kind, cells))
    return Table(t.title, tuple(new_cols))


# ---- shaping ----

def project(t: Table, columns: list) -> Table:
    """Sub-table of row_id plus the named columns, in the requested order."""
    picked = [t.column(ROW_ID)] if ROW_ID in t.column_names() else []
    seen = {ROW_ID}
    for name in columns:
        c = t.column(name)
        if c.name not in seen:
            picked.append(c)
            seen.add(c.name)
    return Table(t.title, tuple(picked))


def augment(t: Table, c: Column) -> Table:
    if len(c.cells) != t.row_count:
        raise LengthMismatch(f"column {c.name!r} has {len(c.cells)} cells, table has {t.row_count} rows")
    if any(existing.name == c.name for existing in t.columns):
        raise DuplicateColumn(c.name)
    return Table(t.title, t.columns + (c,))


# ---- prompt linearization ----
# The line rule: a table row is one prompt line, and a reply is split only at
# "\n". So "\n" is the only character that can break a row, and one_line
# turns each into a space; every other character is cell text.

def one_line(text: str) -> str:
    return text.replace("\n", " ")


def table_lines(t: Table, rows: Iterable) -> str:
    """Table text as every prompt shows it: the line of column names, then a
    newline plus linearize_row(row) for each of rows."""
    return one_line("\t".join(t.column_names())) + "".join("\n" + linearize_row(r) for r in rows)


def linearize_frame(t: Table, title: str, full: bool = False) -> tuple:
    """The text around a linearization's value rows, as (head, foot): the
    CREATE TABLE block and the sample's announcement down to the line of
    column names, and the closing comment line. Each value row goes between
    them as a newline plus linearize_row(row)."""
    lines = [f"CREATE TABLE {title}("]
    for i, c in enumerate(t.columns):
        sep = "," if i < len(t.columns) - 1 else ")"
        lines.append(f"    {c.name} {c.declared_type}{sep}")
    lines.append("/*")
    if full:
        lines.append("All rows of the table:")
        lines.append("SELECT * FROM w;")
    else:
        lines.append("3 example rows:")
        lines.append("SELECT * FROM w LIMIT 3;")
    lines.append(table_lines(t, ()))
    return "\n".join(lines), "\n*/"


def linearize_row(row: tuple) -> str:
    """One value row as one prompt line: its cells rendered by cell_to_text
    and tab-separated."""
    return one_line("\t".join(cell_to_text(v) for v in row))


def linearize(t: Table, title: str, num_rows: int, full: bool = False) -> str:
    """Emit the CREATE TABLE block plus a commented sample of rows.

    full=False announces a 3-example-row sample; full=True announces the whole
    table. Either way at most min(num_rows, row_count) value rows are printed.
    """
    if num_rows < 0:
        raise ValueError("num_rows must be >= 0")
    head, foot = linearize_frame(t, title, full)
    rows = "".join("\n" + linearize_row(row) for row in islice(t.rows(), num_rows))
    return head + rows + foot
