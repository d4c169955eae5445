"""`seqlab` command line: experiment commands over the library.

Subcommands: ramsey-scan, rabi-scan, readout, g2, fit.  Exit codes:
0 success, 2 validation/usage error, 3 numeric failure (a floating-point
overflow, invalid operation or division by zero included).  Diagnostics
go to stderr; data goes to --out (atomically) or stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .dissipative import DissipationParams, NumericError
from .dsl import ParseError, load_sequence
from .io import csv_text, emit, json_table_text, json_text
from .pairwise import InteractionParams, mixture_fringe_scan
from .photostats import (
    estimate_g2,
    fit_sinusoid,
    readout_from_sequence,
    sample_coherent_shots,
    sample_shots,
)
from .qcore import SEQUENCE_BUDGET_S
from .ramsey import (
    Backend,
    RamseyScanConfig,
    rabi_scan,
    symmetric_detuning_grid,
)

RAMSEY_CSV_HEADER = "delta_rad_s,intensity"
RABI_CSV_HEADER = "t_mu2_s,P1,P2,P3"
READOUT_CSV_HEADER = "bin,probability"
G2_CSV_HEADER = "g2,stderr,n_trials"
FIT_CSV_HEADER = "offset,amplitude,frequency,phase,visibility,residual_rms,converged,flags"


def _resolve_format(args, cfg: RunConfig, default: str | None = None) -> str:
    if args.format is not None:
        return args.format
    if default is not None:
        return default
    return cfg.output.format


def _table_text(args, cfg: RunConfig, header: str, columns) -> str:
    if _resolve_format(args, cfg) == "csv":
        return csv_text(header, columns)
    return json_table_text(header, columns)


def _record_text(args, cfg: RunConfig, header: str, values, default=None) -> str:
    """One record: a one-row CSV table, or a JSON object keyed by the
    header names.  A tuple value (a list of words) is ';'-joined in CSV
    and a list in JSON."""
    if _resolve_format(args, cfg, default) == "csv":
        return csv_text(
            header,
            [[";".join(v) if isinstance(v, tuple) else v] for v in values],
        )
    return json_text(dict(zip(header.split(","), values)))


def _dissipation_from(cfg: RunConfig) -> DissipationParams:
    d = cfg.dissipation
    return DissipationParams(
        gamma_decay=(d.gamma_decay_1, d.gamma_decay_2, d.gamma_decay_3),
        gamma_deph=(d.gamma_deph_1, d.gamma_deph_2, d.gamma_deph_3),
    )


def _cmd_ramsey_scan(args, cfg: RunConfig) -> int:
    s = cfg.scan
    backend = Backend(args.backend if args.backend else s.backend)
    scan_cfg = RamseyScanConfig(
        t_mu1=s.t_mu1,
        deltas=symmetric_detuning_grid(s.span, s.points),
        omega_mu2=s.omega_mu2,
        t_mu2=s.t_mu2,
        backend=backend,
        I0=s.i0,
        inter_pulse_gap=s.gap,
        dissipation=_dissipation_from(cfg),
    )
    inter = cfg.interaction
    intensities = mixture_fringe_scan(scan_cfg, InteractionParams(inter.v_int, inter.p2))
    text = _table_text(args, cfg, RAMSEY_CSV_HEADER, (scan_cfg.deltas, intensities))
    emit(text, args.out)
    return 0


def _cmd_rabi_scan(args, cfg: RunConfig) -> int:
    r = cfg.rabi
    times = np.linspace(0.0, r.t_max, r.points)
    table = rabi_scan(times, r.omega_mu2, t_mu1=r.t_mu1, detuning2=r.detuning2)
    emit(_table_text(args, cfg, RABI_CSV_HEADER, table.T), args.out)
    return 0


def _cmd_readout(args, cfg: RunConfig) -> int:
    if not args.seq:
        print("error: readout requires --seq <sequence file>", file=sys.stderr)
        return 2
    seq = load_sequence(args.seq)
    total = seq.total_duration()
    print(
        f"sequence {os.path.basename(args.seq)}: total duration {total!r} s "
        f"(budget {SEQUENCE_BUDGET_S!r} s, "
        f"{'within' if seq.fits_budget() else 'EXCEEDS'} budget)",
        file=sys.stderr,
    )
    ro = cfg.readout
    pops = readout_from_sequence(
        seq,
        eta=(ro.eta_1, ro.eta_2, ro.eta_3),
        deph_between_bins=ro.deph,
    )
    text = _table_text(
        args, cfg, READOUT_CSV_HEADER, ((1, 2, 3), (pops.p1, pops.p2, pops.p3))
    )
    emit(text, args.out)
    return 0


def _cmd_g2(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.seed
    sh = cfg.shots
    mode = cfg.g2.mode
    if mode == "coherent":
        counts = sample_coherent_shots(
            sh.mean_photons, sh.n_trials, seed,
            bin=cfg.g2.bin, dark_rate=sh.dark_rate,
        )
    else:
        p2 = cfg.interaction.p2 if mode == "mixture" else 0.0
        counts = sample_shots(
            (1.0, 0.0, 0.0), sh.n_trials, seed,
            bin=cfg.g2.bin, dark_rate=sh.dark_rate, p2=p2,
        )
    value, stderr = estimate_g2(counts, bin=cfg.g2.bin)
    values = (value, stderr, len(counts))
    emit(_record_text(args, cfg, G2_CSV_HEADER, values), args.out)
    return 0


def _read_scan_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in map(str.strip, fh) if ln]
    if not lines or lines[0] != RAMSEY_CSV_HEADER:
        raise ValueError(f"{path}: expected header {RAMSEY_CSV_HEADER!r}")
    body = lines[1:]
    cells = ",".join(body).split(",")
    table = None
    # as many commas as rows and one in every row: two cells a row
    if len(cells) == 2 * len(body) and all("," in ln for ln in body):
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
            if not all(map(math.isfinite, [float(p) for p in parts])):
                raise ValueError(f"{path}: data row {row} is not finite: {ln!r}")
    if len(body) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return table[0], table[1]


def _cmd_fit(args, cfg: RunConfig) -> int:
    if not getattr(args, "in_path", None):
        print("error: fit requires --in <scan csv>", file=sys.stderr)
        return 2
    deltas, intensities = _read_scan_csv(args.in_path)
    hint = cfg.fit.t_total_hint
    if hint == 0.0:
        s = cfg.scan
        hint = 2.0 * s.t_mu1 + s.t_mu2 + 2.0 * s.gap
        if not math.isfinite(hint):
            raise ValueError(
                "fit.t_total_hint = 0 takes the hint 2*scan.t_mu1 + scan.t_mu2 "
                "+ 2*scan.gap, which overflows; set fit.t_total_hint"
            )
    result = fit_sinusoid(deltas, intensities, hint)
    values = [getattr(result, name) for name in FIT_CSV_HEADER.split(",")]
    emit(_record_text(args, cfg, FIT_CSV_HEADER, values, default="json"), args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="run configuration file")
    sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default from config)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="Qutrit pulse-sequence simulation and photon statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ramsey-scan", help="detuning scan of the Ramsey fringe")
    _add_common(p)
    p.add_argument(
        "--backend", choices=[b.value for b in Backend], default=None,
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
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(handler=_cmd_g2)

    p = sub.add_parser("fit", help="fit a fringe scan CSV")
    _add_common(p)
    p.add_argument(
        "--in", dest="in_path", metavar="PATH", help="input scan CSV"
    )
    p.set_defaults(handler=_cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        # overflow and invalid operations are coded failures, not warnings
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args, cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
