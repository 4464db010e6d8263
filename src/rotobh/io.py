"""Deterministic emission and parsing of result tables.

CSV layout: line 1 is `# rotobh v1 <subcommand>`, line 2 the column
names, then one data row per line.  JSON output mirrors the same rows
plus a `meta` object (convention, fit protocol, tolerances, version).
Identical runs produce byte-identical files, and re-parsing a CSV table
recovers the in-memory table exactly.

Emission contract:

- CSV cells: a float (any float instance, numpy's float64 included) is
  float.__repr__, the shortest decimal string that round-trips to the
  same 64-bit value; an int is its decimal digits; a bool is true/false;
  a str is the string itself; anything else is str(value).
- JSON bytes equal json.dumps(payload, indent=2, sort_keys=True) + "\\n"
  for payload {"columns", "format", "meta", "rows", "subcommand"}, with
  every non-finite float cell written as null (strict JSON has no NaN).

Both emitters format a column at a time: the rows are transposed once,
and a column whose cells are all builtin floats, ints or strs is
formatted by one map over float.__repr__, int.__repr__ or, for JSON
strings, json's encode_basestring_ascii.  A float column that repeats
its values (a grid axis of a row-major table) formats each distinct
value once and looks the repeats up, with the same text per cell;
zeros are formatted cell by cell, since 0.0 and -0.0 are equal but print
differently (_float_texts).  Any other column (bools, mixed
types, other types) takes the per-cell path, format_cell for CSV and
json.dumps for JSON, so JSON rejects exactly what json.dumps rejects.
Every row must have one cell per column name; a ragged table raises
ValueError.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Iterable

FORMAT_TAG = "rotobh v1"

_NON_FINITE = frozenset(("nan", "inf", "-inf"))
# A JSON cell sits at indent level 3 of the payload: dict, "rows", row.
_JSON_CELL_INDENT = "\n      "


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text == "true":
        return True
    if text == "false":
        return False
    return text


def _transpose(columns, rows):
    """(column names, row count, cell columns) of a rectangular table."""
    columns = list(columns)
    rows = tuple(rows)
    widths = set(map(len, rows))
    if widths - {len(columns)}:
        raise ValueError("table rows have %s cells for %d columns"
                         % (sorted(widths), len(columns)))
    return columns, len(rows), list(zip(*rows))


def _only_type(cells):
    """The type of every cell, or None for a mixed column."""
    kinds = set(map(type, cells))
    return kinds.pop() if len(kinds) == 1 else None


# The shortest float column whose repeats _float_texts looks up.
_LOOKUP_MIN_CELLS = 16


def _float_texts(cells):
    """float.__repr__ of every cell of a column of builtin floats, as an
    iterable.

    A column of at least _LOOKUP_MIN_CELLS cells whose distinct values
    number at most half its cells, as a grid axis emitted row-major has,
    formats each distinct value once and looks the cells up; any other
    column is formatted cell by cell.  On x86-64 CPython 3.11 a lookup
    takes about 70 ns and building the table about 1 us, against 300 ns
    for the repr of 0.3 and 800 ns for 17 digits: at 16 cells, half of
    them repeats, the saved reprs about cover that cost for texts as short
    as 0.3 and repay it more than twice for 17 digits.
    A zero cell is formatted on its own, since 0.0 == -0.0 share one key
    but not one text.  A NaN finds its own entry by identity, which set
    and dict lookups test before equality, and each distinct NaN object
    has an entry.
    """
    if len(cells) >= _LOOKUP_MIN_CELLS:
        distinct = set(cells)
        if 2 * len(distinct) <= len(cells):
            memo = dict(zip(distinct, map(float.__repr__, distinct)))
            return [memo[c] if c else float.__repr__(c) for c in cells]
    return map(float.__repr__, cells)


def _csv_column(cells):
    kind = _only_type(cells)
    if kind is str:
        return cells
    if kind is float:
        return _float_texts(cells)
    if kind is int:
        return map(int.__repr__, cells)
    return map(format_cell, cells)


def csv_text(subcommand: str, columns: Iterable[str], rows: Iterable[tuple]) -> str:
    columns, n_rows, cells = _transpose(columns, rows)
    lines = ["# %s %s" % (FORMAT_TAG, subcommand), ",".join(columns)]
    if columns:
        lines += map(",".join, zip(*map(_csv_column, cells)))
    else:
        lines += [""] * n_rows
    return "\n".join(lines) + "\n"


def parse_csv(text: str):
    """Inverse of csv_text: returns (subcommand, columns, rows)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# %s " % FORMAT_TAG):
        raise ValueError("not a %s table" % FORMAT_TAG)
    subcommand = lines[0][len(FORMAT_TAG) + 3:]
    columns = tuple(lines[1].split(","))
    rows = tuple(tuple(parse_cell(c) for c in line.split(","))
                 for line in lines[2:] if line)
    return subcommand, columns, rows


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    text = json.dumps(value, indent=2, sort_keys=True)
    return text.replace("\n", _JSON_CELL_INDENT)


def _json_column(cells):
    kind = _only_type(cells)
    if kind is str:
        return map(encode_basestring_ascii, cells)
    if kind is float:
        texts = _float_texts(cells)
        if not math.isfinite(sum(cells)):  # a non-finite cell, or overflow
            texts = ["null" if t in _NON_FINITE else t for t in texts]
        return texts
    if kind is int:
        return map(int.__repr__, cells)
    return map(_json_cell, cells)


def json_text(subcommand: str, columns, rows, meta: dict) -> str:
    columns, n_rows, cells = _transpose(columns, rows)
    head = json.dumps({"format": FORMAT_TAG, "meta": meta, "columns": columns},
                      indent=2, sort_keys=True)
    if not n_rows:
        body = "[]"
    elif not columns:
        body = "[\n" + ",\n".join(["    []"] * n_rows) + "\n  ]"
    else:
        row_texts = map(("," + _JSON_CELL_INDENT).join,
                        zip(*map(_json_column, cells)))
        body = ("[\n    [" + _JSON_CELL_INDENT
                + ("\n    ],\n    [" + _JSON_CELL_INDENT).join(row_texts)
                + "\n    ]\n  ]")
    # head ends in "\n}"; "rows" and "subcommand" follow "meta" in key order
    return '%s,\n  "rows": %s,\n  "subcommand": %s\n}\n' % (
        head[:-2], body, json.dumps(subcommand, indent=2, sort_keys=True))
