"""Table data model: ingestion, normalization, projection and prompt linearization.

A Table is immutable; every shaping operation returns a new one. Cells are
plain Python values: None (null), float (all numbers), str (text, lowercased
by normalize) or datetime.date.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from datetime import date
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
    """Parse a finite number, or return None. NaN/Inf spellings stay text."""
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

    def has_column(self, name: str) -> bool:
        return any(c.name == name or c.name == sanitize_name(name) for c in self.columns)

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


# ---- ingestion ----

def _table_from_grid(title: str, header: list, grid: list) -> Table:
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise FormatError(f"duplicate headers: {dupes}")
    for i, row in enumerate(grid):
        if len(row) != len(header):
            raise FormatError(f"ragged row {i}: {len(row)} fields, expected {len(header)}")
    cols = []
    for j, name in enumerate(header):
        cells = tuple(_ingest_cell(row[j]) for row in grid)
        cols.append(Column(str(name), "text", cells))
    return Table(title, tuple(cols))


def _ingest_cell(v) -> Cell:
    if v is None:
        return None
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        f = float(v)
        return f if math.isfinite(f) else None
    return str(v)


def table_from_json(obj: dict, title: Optional[str] = None) -> Table:
    """Build a table from {"title":..., "header":[...], "rows":[[...],...]}."""
    try:
        header = list(obj["header"])
        rows = [list(r) for r in obj["rows"]]
    except (KeyError, TypeError) as e:
        raise FormatError(f"JSON table needs 'header' and 'rows': {e}")
    return _table_from_grid(title or str(obj.get("title", "")), header, rows)


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
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as e:
        raise IoError(f"cannot read {p}: {e}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{p.name} is not UTF-8 text: {e}")
    delim = "," if suffix == ".csv" else "\t"
    rows = list(csv.reader(raw.splitlines(), delimiter=delim))
    if not rows:
        raise FormatError(f"{p.name} is empty")
    return _table_from_grid(p.stem, rows[0], rows[1:])


# ---- normalization ----

def _infer_cells(cells: Iterable[Cell]):
    """Infer (declared_type, converted_cells). Empty/missing cells are ignored
    for inference and stored null."""
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


def normalize(t: Table) -> Table:
    """Lowercase text, add a row_id column, infer types and sanitize names.

    Idempotent: a normalized table maps to itself.
    """
    n = t.row_count
    used: set = set()
    counts: dict = {}
    new_cols = []
    for col in t.columns:
        base = sanitize_name(col.name)
        name = base
        while name in used:
            counts[base] = counts.get(base, 1) + 1
            name = f"{base}_{counts[base]}"
        used.add(name)
        kind, cells = _infer_cells(col.cells)
        new_cols.append(Column(name, kind, cells))
    if not (new_cols and new_cols[0].name == ROW_ID):
        for i, c in enumerate(new_cols):
            if c.name == ROW_ID:  # stray row_id not in front: keep but rename
                new_cols[i] = Column(f"{ROW_ID}_orig", c.declared_type, c.cells)
        new_cols.insert(0, Column(ROW_ID, "int", tuple(float(i) for i in range(n))))
    return Table(t.title, tuple(new_cols))


# ---- shaping ----

def project(t: Table, columns: list) -> Table:
    """Sub-table of row_id plus the named columns, in the requested order."""
    picked = [t.column(ROW_ID)] if t.has_column(ROW_ID) else []
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
    lines.append("\t".join(t.column_names()))
    return "\n".join(lines), "\n*/"


def linearize_row(row: tuple) -> str:
    """One value row, its cells rendered by cell_to_text and tab-separated."""
    return "\t".join(cell_to_text(v) for v in row)


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
