"""`seqlab` command line: experiment commands over the library.

Subcommands: ramsey-scan, rabi-scan, readout, g2, fit.  A flag that
sets a config key is written onto the config, and each handler returns
its result, a table (header, columns) or a record dict; ``main`` alone
formats it, writes it and maps failures to exit codes: 0 success, 2
validation/usage error, 3 numeric failure (a floating-point overflow,
invalid operation or division by zero included).  Diagnostics go to
stderr; data goes to stdout or to --out, checked before the command
runs and written atomically.

``main(argv)`` may be called repeatedly in one process, as the example
scripts do: it builds its parser on the first call and reuses it, so a
fresh ``seqlab`` process pays the same start-up as before.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys

import numpy as np

from .config import RunConfig, convert, load_config, words
from .dsl import load_sequence
from .io import csv_text, emit, json_table_text, json_text
from .pairwise import mixture_fringe_scan
from .photostats import (
    estimate_g2,
    fit_sinusoid,
    readout_from_sequence,
    sample_coherent_shots,
    sample_shots,
)
from .qcore import SEQUENCE_BUDGET_S, NumericError, total_duration
from .ramsey import rabi_scan, symmetric_detuning_grid
from .units import PLAIN, BadValue, read_value

RAMSEY_CSV_HEADER = "delta_rad_s,intensity"
RABI_CSV_HEADER = "t_mu2_s,P1,P2,P3"
READOUT_CSV_HEADER = "bin,probability"

# the characters of the shared decimal grammar's cells and their commas
_DECIMAL_CELLS = re.compile(r"[0-9eE.+\-,]*")


def _text(result, fmt: str) -> str:
    """A command's result in fmt: a table (header, columns), or a record
    dict as a one-row table headed by its keys in CSV and an object in
    JSON.  A tuple value (a list of words) is ';'-joined in CSV."""
    if not isinstance(result, dict):
        return (csv_text if fmt == "csv" else json_table_text)(*result)
    if fmt == "json":
        return json_text(result)
    cells = [[";".join(v) if isinstance(v, tuple) else v] for v in result.values()]
    return csv_text(",".join(result), cells)


def _check_out(path: str) -> None:
    """Refuse, naming it as typed, an --out that no write can reach: a
    directory, an empty path or a path in a missing directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _cmd_ramsey_scan(args, cfg: RunConfig):
    s = cfg.scan
    deltas = symmetric_detuning_grid(s.span, s.points)
    return RAMSEY_CSV_HEADER, (deltas, mixture_fringe_scan(s, cfg.dissipation, cfg.interaction))


def _cmd_rabi_scan(args, cfg: RunConfig):
    r = cfg.rabi
    times = np.linspace(0.0, r.t_max, r.points)
    table = rabi_scan(times, r.omega_mu2, t_mu1=r.t_mu1, detuning2=r.detuning2)
    return RABI_CSV_HEADER, table.T


def _cmd_readout(args, cfg: RunConfig):
    if not args.seq:
        raise ValueError("readout requires --seq <sequence file>")
    seq = load_sequence(args.seq)
    total = total_duration(seq)
    print(
        f"sequence {os.path.basename(args.seq)}: total duration {total!r} s "
        f"(budget {SEQUENCE_BUDGET_S!r} s, "
        f"{'within' if total < SEQUENCE_BUDGET_S else 'EXCEEDS'} budget)",
        file=sys.stderr,
    )
    return READOUT_CSV_HEADER, ((1, 2, 3), readout_from_sequence(seq, cfg.readout))


def _seed(raw: str) -> int:
    """--seed, parsed and bounded as the config's seed key."""
    try:
        return convert("seed", raw)
    except ValueError as exc:  # argparse names the flag
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_g2(args, cfg: RunConfig):
    sh = cfg.shots
    mode = cfg.g2.mode
    if mode == "coherent":
        hist = sample_coherent_shots(sh.mean_photons, sh.n_trials, cfg.seed, dark_rate=sh.dark_rate)
    else:
        p2 = cfg.interaction.p2 if mode == "mixture" else 0.0
        hist = sample_shots(
            sh.n_trials, cfg.seed, bin=cfg.g2.bin, dark_rate=sh.dark_rate, p2=p2
        )
    value, stderr = estimate_g2(hist, bin=cfg.g2.bin)
    return {"g2": value, "stderr": stderr, "n_trials": sh.n_trials}


def _read_scan_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in map(str.strip, fh) if ln]
    if not lines or lines[0] != RAMSEY_CSV_HEADER:
        raise ValueError(f"{path}: expected header {RAMSEY_CSV_HEADER!r}")
    body = lines[1:]
    joined = ",".join(body)
    cells = joined.split(",")
    table = None
    # as many commas as rows and one in every row: two cells a row; over
    # the grammar's characters float() reads exactly the grammar
    if len(cells) == 2 * len(body) and all("," in ln for ln in body) \
            and _DECIMAL_CELLS.fullmatch(joined):
        try:  # (2, n): one contiguous row per column
            table = np.array(cells, dtype=float).reshape(-1, 2).T.copy()
        except ValueError:  # a cell that is not a number, reported below
            pass
    if table is None or not np.isfinite(table).all():
        # the error path: report the first faulty row, in file order
        for row, ln in enumerate(body, start=1):
            parts = ln.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: malformed row {ln!r}")
            for cell in parts:
                try:
                    read_value(cell, PLAIN)
                except BadValue as exc:
                    what = "finite" if exc.kind == "range" else "a number"
                    raise ValueError(f"{path}: data row {row} is not {what}: {ln!r}") from None
    if len(body) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return table[0], table[1]


def _cmd_fit(args, cfg: RunConfig):
    if not args.in_path:
        raise ValueError("fit requires --in <scan csv>")
    deltas, intensities = _read_scan_csv(args.in_path)
    hint = cfg.fit.t_total_hint
    if hint == 0.0:
        s = cfg.scan
        hint = s.t_mu1 + s.t_mu2 + 2.0 * s.gap
        if not math.isfinite(hint):
            raise ValueError(
                "fit.t_total_hint = 0 takes the hint scan.t_mu1 + scan.t_mu2 "
                "+ 2*scan.gap, which overflows; set fit.t_total_hint"
            )
    return fit_sinusoid(deltas, intensities, hint)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="run configuration file")
    sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sub.add_argument(
        "--format", choices=words("output.format"), default=None,
        help="output format (default: output.format; json for fit)",
    )


@functools.cache  # holds no per-call state: built on the first main call only
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="Qutrit pulse-sequence simulation and photon statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ramsey-scan", help="detuning scan of the Ramsey fringe")
    _add_common(p)
    p.add_argument(
        "--backend", choices=words("scan.backend"), default=None,
        help="override scan.backend from the config",
    )
    p.set_defaults(handler=_cmd_ramsey_scan)

    p = sub.add_parser("rabi-scan", help="mu2 Rabi oscillation vs drive time")
    _add_common(p)
    p.set_defaults(handler=_cmd_rabi_scan)

    p = sub.add_parser("readout", help="three-bin read-out of a sequence file")
    _add_common(p)
    p.add_argument("--seq", metavar="PATH", help="pulse sequence file")
    p.set_defaults(handler=_cmd_readout)

    p = sub.add_parser("g2", help="sample HBT shots and estimate g2(0)")
    _add_common(p)
    p.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p.set_defaults(handler=_cmd_g2)

    p = sub.add_parser("fit", help="fit a fringe scan CSV")
    _add_common(p)
    p.add_argument(
        "--in", dest="in_path", metavar="PATH", help="input scan CSV"
    )
    p.set_defaults(handler=_cmd_fit, format="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if args.config is not None else RunConfig()
        # a flag given sets its config key; fit's --format defaults to json
        for section, key in ((cfg.scan, "backend"), (cfg, "seed"), (cfg.output, "format")):
            if vars(args).get(key) is not None:
                setattr(section, key, vars(args)[key])
        if args.out is not None:
            _check_out(args.out)
        # overflow and invalid operations are coded failures, not warnings
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            emit(_text(args.handler(args, cfg), cfg.output.format), args.out)
        return 0
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
