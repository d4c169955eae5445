"""Deterministic CSV/JSON emission.

Tables are written column by column: one 1-d sequence per header field.
A column of finite floats (a float64 array, or a sequence of Python
floats) is written as each value's shortest round-trip decimal, its
``float.__repr__``; any other column is written cell by cell, through
``format_value`` in CSV and through the ``json`` module in JSON, so
non-finite floats read ``nan``/``inf`` in CSV and ``NaN``/``Infinity``
in JSON.  JSON takes Python values only (numbers, bools, strings and
lists of them), no numpy scalars.  JSON tables are lists of flat
records keyed by the header names, laid out as ``json.dumps(...,
indent=2)`` lays them out, and hold at least one row; other JSON
payloads go through ``json_text``.  Lines end in LF, and file
writes go through a temp file plus os.replace so a crashed run never
leaves a half-written artifact.  Identical data gives byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

__all__ = ["format_value", "csv_text", "json_table_text", "json_text", "write_text", "emit"]


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _cells(column, encode) -> list[str]:
    """The cell strings of one column, in row order."""
    float64 = isinstance(column, np.ndarray) and column.dtype == np.float64
    values = column.tolist() if float64 else column
    if (float64 or {*map(type, values)} <= {float}) and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    return [encode(v) for v in column]


def _table(header: str, columns, encode) -> tuple[list[str], list[list[str]]]:
    names = header.split(",")
    if len(columns) != len(names):
        raise ValueError(f"table width {len(columns)} != header width {len(names)}")
    cells = [_cells(column, encode) for column in columns]
    lengths = {len(c) for c in cells}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return names, cells


def csv_text(header: str, columns) -> str:
    """CSV of a table given as columns, one 1-d sequence per header field.

    The header line comes first, then one line per row; ValueError when
    the number of columns is not the header's width or the columns
    differ in length.
    """
    _, cells = _table(header, columns, format_value)
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def json_table_text(header: str, columns) -> str:
    """JSON list of records keyed by the header names, from columns.

    Takes the columns as ``csv_text`` does and gives the bytes of
    ``json_text`` over the list of records.
    """
    names, cells = _table(header, columns, json.dumps)
    fields = ",\n".join(
        f"    {json.dumps(name).replace('%', '%%')}: %s" for name in names
    )
    record = "  {\n" + fields + "\n  }"
    return "[\n" + ",\n".join(map(record.__mod__, zip(*cells))) + "\n]\n"


def json_text(obj) -> str:
    """Indented JSON of any payload, such as a dict of results."""
    # json emits floats via repr already (shortest round-trip)
    return json.dumps(obj, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Atomic write: temp file in the target directory, then os.replace."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit(text: str, out_path=None) -> None:
    """Write to out_path, or stdout when no path is given."""
    if out_path is None:
        print(text, end="")
    else:
        write_text(out_path, text)
