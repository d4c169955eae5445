"""Table writers: byte equality with the row-wise writers they replaced."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqlab.cli import RAMSEY_CSV_HEADER, _read_scan_csv, main
from seqlab.io import csv_text, format_value, json_table_text

ROOT = Path(__file__).resolve().parent.parent
CANONICAL = ROOT / "sequences" / "ramsey_readout.seq"


# ------------------------------------------------------- row-wise oracle

def oracle_csv(header: str, rows) -> str:
    lines = [header]
    width = len(header.split(","))
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def oracle_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def oracle_json_table(header: str, columns) -> str:
    names = header.split(",")
    return oracle_json([dict(zip(names, row)) for row in zip(*columns)])


# ------------------------------------------------------------- tables

# 5e-324 is the smallest subnormal, 2.2250738585072014e-308 the smallest
# normal; repr switches to exponent form at 1e16 and below 1e-4.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,
    0.0001, 9.999999999999999e-05, 0.00010000000000000002, -0.0001,
    1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [v for v in SPECIAL_FLOATS if np.isfinite(v)]
)
any_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)


def _column(kind: str, n: int):
    """Strategy for one column of n cells of the given kind."""
    if kind in ("finite", "any"):
        values = st.lists(finite_floats if kind == "finite" else any_floats, min_size=n, max_size=n)
        return st.one_of(values, values.map(lambda v: np.array(v, dtype=np.float64)))
    if kind == "int":
        return st.lists(st.integers(), min_size=n, max_size=n)
    if kind == "int64":
        return st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)
        )
    if kind == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n)
    return st.lists(st.text(max_size=6), min_size=n, max_size=n)


ALL_KINDS = ("finite", "any", "int", "int64", "bool", "str")
# the commands' JSON tables: finite floats and Python ints, at least one row
CLI_JSON_KINDS = ("finite", "int")


@st.composite
def tables(draw, kinds=ALL_KINDS, min_rows=0):
    n_rows = draw(st.integers(min_rows, 50))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    names = draw(
        st.lists(
            st.text(st.characters(blacklist_characters=","), min_size=1, max_size=6),
            min_size=len(kinds), max_size=len(kinds), unique=True,
        )
    )
    columns = [draw(_column(kind, n_rows)) for kind in kinds]
    return ",".join(names), columns


@given(tables())
@example(("a", [[]]))
@example(("a,b", [np.array([]), []]))
@example(("x%s,y", [np.array([1e16, float("nan")]), [True, False]]))
def test_csv_matches_the_row_wise_writer(table):
    header, columns = table
    assert csv_text(header, columns) == oracle_csv(header, list(zip(*columns)))


@given(tables(CLI_JSON_KINDS, min_rows=1))
@example(("x%s,y", [np.array([1e16, -0.0]), [1, 2]]))
@example(('q"é\n', [[5e-324]]))
def test_json_table_matches_the_records_writer(table):
    header, columns = table
    assert json_table_text(header, columns) == oracle_json_table(header, columns)


def test_numpy_bools_are_written_as_csv_bools():
    assert csv_text("a", [np.array([True, False])]) == "a\ntrue\nfalse\n"


def test_empty_table_is_the_header_alone():
    assert csv_text("a,b", [np.array([]), ()]) == "a,b\n"


@pytest.mark.parametrize("write", [csv_text, json_table_text])
def test_table_width_or_length_mismatch_raises(write):
    with pytest.raises(ValueError):
        write("a,b", [np.array([1.0, 2.0])])
    with pytest.raises(ValueError):
        write("a", [np.array([1.0]), np.array([2.0])])
    with pytest.raises(ValueError):
        write("a,b", [np.array([1.0, 2.0]), [1]])


# ------------------------------------------------- scan CSV ingest round trip

@st.composite
def scan_columns(draw):
    """Strictly increasing detunings and intensities, any finite float64."""
    deltas = sorted(draw(st.lists(finite_floats, min_size=2, max_size=40, unique=True)))
    intensities = draw(st.lists(finite_floats, min_size=len(deltas), max_size=len(deltas)))
    return np.array(deltas), np.array(intensities)


@given(scan_columns())
@example((np.array([-1e308, -5e-324, 0.0, 1e-308, 1e308]),
          np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-300])))
@example((np.array([-0.0, 1.0]), np.array([1e16, -0.0001])))
def test_scan_csv_round_trips_exactly(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    path.write_text(csv_text(RAMSEY_CSV_HEADER, columns), encoding="utf-8")
    for got, want in zip(_read_scan_csv(path), columns):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------- CLI format round trip

def _cell(text: str):
    return int(text) if re.fullmatch(r"-?\d+", text) else float(text)


def _reemit(fmt: str, text: str) -> str:
    """Parse an emitted table (or payload) and write it with the oracle."""
    if fmt == "json":
        return oracle_json(json.loads(text))
    header, *rows = csv.reader(text.splitlines())
    return oracle_csv(",".join(header), [[_cell(v) for v in row] for row in rows])


SCAN = "scan.points = 41\n"
CLI_TABLES = {
    "ramsey-analytic": (SCAN, ["ramsey-scan", "--backend", "analytic"]),
    "ramsey-unitary": (SCAN, ["ramsey-scan", "--backend", "unitary"]),
    "ramsey-lindblad": (
        SCAN + "dissipation.gamma_decay_2 = 0.2MHz\n", ["ramsey-scan", "--backend", "lindblad"]
    ),
    "ramsey-mixture": (
        SCAN + "interaction.p2 = 0.3\ninteraction.v_int = 0.1MHz\n",
        ["ramsey-scan", "--backend", "unitary"],
    ),
    "rabi": ("rabi.points = 41\nrabi.detuning2 = 1MHz\n", ["rabi-scan"]),
    "readout": ("", ["readout", "--seq", str(CANONICAL)]),
    "g2": ("shots.n_trials = 20000\n", ["g2", "--seed", "7"]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CLI_TABLES))
def test_cli_tables_are_in_the_reference_format(tmp_path, name, fmt):
    config, argv = CLI_TABLES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("\n") > 1
    assert _reemit(fmt, text) == text
