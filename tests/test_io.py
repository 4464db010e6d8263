import contextlib
import io
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotobh import cli
from rotobh import io as rio
from rotobh.io import (FORMAT_TAG, csv_text, format_cell, json_text,
                       parse_cell, parse_csv)

README = Path(__file__).resolve().parent.parent / "README.md"


# -- reference emitters: the emission contract spelled out cell by cell ---

def reference_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def reference_csv_text(subcommand, columns, rows):
    lines = ["# %s %s" % (FORMAT_TAG, subcommand), ",".join(columns)]
    for row in rows:
        lines.append(",".join(reference_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def reference_json_text(subcommand, columns, rows, meta):
    def safe(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value
    payload = {"format": FORMAT_TAG, "subcommand": subcommand, "meta": meta,
               "columns": list(columns),
               "rows": [[safe(c) for c in row] for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(3) == "3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0 / 3.0) == "0.3333333333333333"
    assert format_cell(math.nan) == "nan"
    assert format_cell("mott:1") == "mott:1"


def test_parse_cell_inverts_format_cell():
    for value in (True, False, 0, 7, -3, 0.1, -2.5e-7, 1.0 / 3.0,
                  "superfluid", "error:config"):
        assert parse_cell(format_cell(value)) == value
    assert math.isnan(parse_cell("nan"))
    # ints parse back as ints, not floats
    assert parse_cell("4") == 4
    assert isinstance(parse_cell("4"), int)
    assert isinstance(parse_cell("4.0"), float)


def test_csv_layout():
    text = csv_text("phase-diagram", ("a", "b"), [(1, 0.5), (2, "x")])
    assert text == "# rotobh v1 phase-diagram\na,b\n1,0.5\n2,x\n"
    assert text.startswith("# %s " % FORMAT_TAG)


def test_csv_roundtrip():
    rows = ((1.0, 3, "mott:1", True, 0.2282177322938193),
            (-0.5, 0, "vacuum", False, 0.0))
    text = csv_text("demo", ("mu", "n", "phase", "flag", "psi"), rows)
    sub, cols, parsed = parse_csv(text)
    assert sub == "demo"
    assert cols == ("mu", "n", "phase", "flag", "psi")
    assert parsed == rows
    with pytest.raises(ValueError):
        parse_csv("a,b\n1,2\n")


def test_csv_repr_floats_roundtrip_exactly():
    values = (math.pi, 1.0 / 3.0, 0.1 + 0.2, 2.0 ** -52, 1e308)
    _, _, parsed = parse_csv(csv_text("x", ("v",), [(v,) for v in values]))
    assert tuple(p[0] for p in parsed) == values


def test_json_text():
    text = json_text("resolution", ("x", "y"), [(1.0, math.nan)],
                     {"convention": "paper"})
    payload = json.loads(text)
    assert payload["format"] == FORMAT_TAG
    assert payload["subcommand"] == "resolution"
    assert payload["meta"]["convention"] == "paper"
    assert payload["columns"] == ["x", "y"]
    assert payload["rows"] == [[1.0, None]]  # NaN has no strict-JSON form
    # deterministic serialization
    assert text == json_text("resolution", ("x", "y"), [(1.0, math.nan)],
                             {"convention": "paper"})


def test_float_subclass_cells_are_plain_floats():
    # numpy 2 reprs np.float64(0.1) as "np.float64(0.1)"; the table must not
    x, nan = np.float64(0.1), np.float64(math.nan)
    assert format_cell(x) == "0.1"
    text = csv_text("x", ("v", "w"), [(x, nan), (0.5, x)])
    assert text == "# rotobh v1 x\nv,w\n0.1,nan\n0.5,0.1\n"
    assert parse_csv(text)[2][0][0] == 0.1
    payload = json.loads(json_text("x", ("v", "w"), [(x, nan), (0.5, x)], {}))
    assert payload["rows"] == [[0.1, None], [0.5, 0.1]]


def test_json_float_column_nulls_only_non_finite_cells():
    # a float column is formatted at once; its sum flags non-finite cells
    for values in ((1.0, math.nan, -0.0), (math.inf, -math.inf, 2.5),
                   (1e308, 1e308, -1e308)):
        rows = [(v,) for v in values]
        assert json_text("x", ("v",), rows, {}) == reference_json_text(
            "x", ("v",), rows, {})
    payload = json.loads(json_text("x", ("v",), [(1e308,), (math.nan,)], {}))
    assert payload["rows"] == [[1e308], [None]]


def test_ragged_table_is_an_error():
    with pytest.raises(ValueError, match="cells for 2 columns"):
        csv_text("x", ("a", "b"), [(1, 2), (3,)])
    with pytest.raises(ValueError, match="cells for 2 columns"):
        json_text("x", ("a", "b"), [(1, 2, 3)], {})


def test_json_rejects_what_json_dumps_rejects():
    for cell in (object(), {1, 2}, np.int64(3)):
        with pytest.raises(TypeError):
            json.dumps(cell)
        with pytest.raises(TypeError):
            json_text("x", ("a",), [(cell,)], {})


# Floats and strings lean on the values an encoder must special-case.
_TEXT = st.text(st.one_of(st.sampled_from('"\\,\n\r\t\x00\x1f\x7f\u00e9\u2028'),
                          st.characters()), max_size=6)
_SCALARS = {
    "float": st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                        5e-324, 1e308]), st.floats()),
    "int": st.integers(-2 ** 70, 2 ** 70),
    "str": _TEXT,
    "bool": st.booleans(),
}
_ANY = st.one_of(st.none(), *_SCALARS.values(),
                 st.lists(st.one_of(*_SCALARS.values()), max_size=2),
                 st.dictionaries(_TEXT, st.floats(), max_size=2))
# A "pooled" float column draws its cells from a small pool, so that it
# repeats values and takes the once-per-value formatting.  The pool holds
# the cells a lookup could confuse: 0.0 == -0.0, two distinct NaN
# objects, infinities and a subnormal.
_POOLED = st.sampled_from([0.0, -0.0, math.nan, float("nan"), math.inf,
                           -math.inf, 5e-324, 0.1, -2.5, 1e308])
_CELLS = dict(_SCALARS, mixed=_ANY)
_META = st.recursive(st.one_of(st.none(), *_SCALARS.values()),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_TEXT, inner, max_size=3),
                     max_leaves=8)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS) + ["pooled"]),
                          max_size=4))
    columns = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
    cells = [_POOLED if k == "pooled" else _CELLS[k] for k in kinds]
    rows = draw(st.lists(st.tuples(*cells),
                         max_size=40 if "pooled" in kinds else 5))
    return draw(_TEXT), columns, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@example(table=("x", ["v", "w"], [(z, n) for z in (0.0, -0.0, -0.0, 0.0)
                                  for n in (math.nan, float("nan"))] * 2),
         meta={})
@given(table=tables(), meta=st.dictionaries(_TEXT, _META, max_size=3))
def test_emitters_match_the_reference(table, meta):
    subcommand, columns, rows = table
    assert csv_text(subcommand, columns, rows) == reference_csv_text(
        subcommand, columns, rows)
    assert json_text(subcommand, columns, rows, meta) == reference_json_text(
        subcommand, columns, rows, meta)
    # rows and columns may be one-shot iterables
    assert json_text(subcommand, iter(columns), iter(rows), meta) == \
        json_text(subcommand, columns, rows, meta)


def _readme_argvs():
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```", 2)[1].replace("\\\n", " ")
    for line in block.splitlines():
        if line.startswith("rotobh "):
            argv = shlex.split(line)[1:]
            if "--output" in argv:
                j = argv.index("--output")
                del argv[j:j + 2]
            yield argv


def test_readme_tables_match_the_reference(monkeypatch):
    """The README figure commands emit exactly the reference bytes."""
    emitted = []
    real_csv, real_json = rio.csv_text, rio.json_text

    def record_csv(subcommand, columns, rows):
        columns, rows = tuple(columns), tuple(rows)
        text = real_csv(subcommand, columns, rows)
        emitted.append((text, reference_csv_text(subcommand, columns, rows)))
        return text

    def record_json(subcommand, columns, rows, meta):
        columns, rows = tuple(columns), tuple(rows)
        text = real_json(subcommand, columns, rows, meta)
        emitted.append((text, reference_json_text(subcommand, columns, rows,
                                                  meta)))
        return text

    monkeypatch.setattr(rio, "csv_text", record_csv)
    monkeypatch.setattr(rio, "json_text", record_json)
    argvs = list(_readme_argvs())
    assert len(argvs) >= 8
    for argv in argvs:
        for fmt in ("csv", "json"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv + ["--format", fmt]) == 0
            assert out.getvalue() == emitted[-1][0]
    assert len(emitted) == 2 * len(argvs)
    assert all(text == want for text, want in emitted)
