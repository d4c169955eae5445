"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each workload turns a seed into config text and a list of ``seqlab``
command lines.  The seed reaches the program only through those inputs
(config values and ``g2 --seed``), and it varies values, never the amount
of work: grid sizes, trial counts and the set of non-zero rates are fixed
per workload, so timings from different seeds are comparable.

The checks hold for any correct version of the program, not only for
today's bytes: they compare backends where the physics says they agree,
bound results by conservation laws, and compare g2 with its closed form
within the estimator's own error bar.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# MHz -> rad/s, the config's convention for drive frequencies and detunings.
MHZ = 2.0 * math.pi * 1e6

# Ramsey sequence of every scan: two 100 ns pi/2 pulses around a 250 ns,
# 12.5 MHz mu2 pulse, written into each scan config and used by the checks.
SCAN_T_MU1 = 100e-9
SCAN_T_MU2 = 250e-9
SCAN_OMEGA_MU2 = 12.5 * MHZ
SCAN_SEQUENCE = "scan.t_mu1 = 100ns\nscan.t_mu2 = 250ns\nscan.omega_mu2 = 12.5MHz\n"


@dataclass
class Command:
    name: str
    argv: list[str]
    out: Path
    # check(outputs) -> None when the output is right, else the reason.
    check: Callable[[dict], str | None]


@dataclass
class Plan:
    workload: str
    work: Path  # directory of the config and output files
    size: dict
    configs: dict[str, str]
    commands: list[Command] = field(default_factory=list)


def read_output(path: Path):
    """Parse a CSV (header row, numeric cells) or JSON output file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return {"header": header, "rows": [[_cell(v) for v in r] for r in body]}


def _cell(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def _grid(span: float, points: int) -> list[float]:
    half = (points - 1) // 2
    return [span / half * k for k in range(-half, half + 1)]


def _resonant_intensity(i0: float) -> float:
    """Ramsey intensity at zero detuning: I0 (1 - K)^2 / 4, K = cos(theta/2)."""
    k = math.cos(0.5 * SCAN_OMEGA_MU2 * SCAN_T_MU2)
    return i0 * (1.0 - k) ** 2 / 4.0


def _finite(values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _scan_columns(out, span: float, points: int):
    """(deltas, intensities) of a ramsey-scan output after shape checks."""
    if isinstance(out, list):  # JSON form
        deltas = [float(r["delta_rad_s"]) for r in out]
        vals = [float(r["intensity"]) for r in out]
    else:
        if out["header"] != ["delta_rad_s", "intensity"]:
            raise ValueError(f"header {out['header']}")
        deltas = [r[0] for r in out["rows"]]
        vals = [r[1] for r in out["rows"]]
    if len(vals) != points:
        raise ValueError(f"{len(vals)} rows, expected {points}")
    if not _finite(deltas) or not _finite(vals):
        raise ValueError("non-finite value")
    grid = _grid(span, points)
    if max(abs(a - b) for a, b in zip(deltas, grid)) > 1e-9 * span:
        raise ValueError("detuning grid differs from the configured span")
    return deltas, vals


def _checked(fn):
    """Turn a check that raises on bad output into one returning the reason."""
    def check(outputs):
        try:
            return fn(outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return check


def _in_range(vals, lo: float, hi: float, what: str) -> None:
    bad = [v for v in vals if not lo <= v <= hi]
    if bad:
        raise ValueError(f"{what}: {len(bad)} values outside [{lo}, {hi}], e.g. {bad[0]!r}")


# ---------------------------------------------------------------------------
# scan-closed: per-point Python loop and small propagators, no master
# equation and no shots.


def scan_closed(seed: int, work: Path, root: Path, tiny: bool) -> Plan:
    rng = random.Random(seed)
    points = 51 if tiny else 2001
    span_mhz = rng.uniform(8.0, 12.0)
    span = span_mhz * MHZ
    # The fitted mixture scan keeps seqlab's default 10 MHz span: on this
    # scan the sinusoid fit stops converging for spans near 10.3-11.2 MHz.
    mix_span = 10.0 * MHZ
    i0 = rng.uniform(0.5, 2.0)
    p2 = 0.3
    t_max_ns = rng.uniform(120.0, 200.0)
    omega_mhz = rng.uniform(10.0, 15.0)
    etas = [rng.uniform(0.5, 1.0) for _ in range(3)]
    scan = SCAN_SEQUENCE + f"scan.points = {points}\nscan.i0 = {i0!r}\n"
    configs = {
        "mixture.cfg": scan + f"scan.span = 10MHz\ninteraction.p2 = {p2}\ninteraction.v_int = 0.1MHz\n",
        "rabi.cfg": (
            f"rabi.points = {points}\nrabi.t_max = {t_max_ns!r}ns\n"
            f"rabi.omega_mu2 = {omega_mhz!r}MHz\n"
        ),
        "analytic.cfg": scan + f"scan.span = {span_mhz!r}MHz\n",
        "readout.cfg": "".join(f"readout.eta_{i} = {e!r}\n" for i, e in enumerate(etas, 1)),
    }
    cfg = {k: str(work / k) for k in configs}
    mix_csv, fit_json = work / "mixture.csv", work / "fit.json"
    rabi_csv, ana_json = work / "rabi.csv", work / "analytic.json"
    ro_csv = work / "readout.csv"

    @_checked
    def check_mixture(o):
        _, vals = _scan_columns(o["mixture"], mix_span, points)
        # singles are bounded by I0, the double branch by 2 I0
        _in_range(vals, -1e-9, (1.0 + p2) * i0 * (1 + 1e-9), "mixture intensity")

    @_checked
    def check_fit(o):
        fit = o["fit"]
        if fit.get("converged") is not True:
            raise ValueError(f"fit did not converge: {fit.get('flags')}")
        keys = ("offset", "amplitude", "frequency", "phase", "visibility", "residual_rms")
        if not _finite([float(fit[k]) for k in keys]):
            raise ValueError("non-finite fit field")
        if not 0.0 <= fit["visibility"] <= 1.0:
            raise ValueError(f"visibility {fit['visibility']!r}")

    @_checked
    def check_rabi(o):
        out = o["rabi"]
        if out["header"] != ["t_mu2_s", "P1", "P2", "P3"] or len(out["rows"]) != points:
            raise ValueError("rabi table shape")
        omega = omega_mhz * MHZ
        worst = 0.0
        for t, p1, p2_, p3 in out["rows"]:
            # after the mu1 pi/2 pulse, the resonant mu2 drive swaps R2 <-> R3
            # and leaves R1 alone
            want = (0.5, 0.5 * math.cos(0.5 * omega * t) ** 2, 0.5 * math.sin(0.5 * omega * t) ** 2)
            worst = max(worst, *(abs(a - b) for a, b in zip((p1, p2_, p3), want)))
        if not worst <= 1e-9:
            raise ValueError(f"populations off the Rabi law by {worst:.3e}")

    @_checked
    def check_analytic(o):
        deltas, vals = _scan_columns(o["analytic"], span, points)
        _in_range(vals, -1e-9, i0 * (1 + 1e-9), "analytic intensity")
        got = vals[deltas.index(0.0)]
        if abs(got - _resonant_intensity(i0)) > 1e-9 * i0:
            raise ValueError(f"I(0) = {got!r}, closed form {_resonant_intensity(i0)!r}")

    @_checked
    def check_readout(o):
        out = o["readout"]
        if out["header"] != ["bin", "probability"] or [r[0] for r in out["rows"]] != [1.0, 2.0, 3.0]:
            raise ValueError("readout table shape")
        probs = [r[1] for r in out["rows"]]
        if not _finite(probs):
            raise ValueError("non-finite probability")
        for p, eta in zip(probs, etas):
            _in_range([p], -1e-12, eta + 1e-12, "bin probability")
        # ideal pi pulses and no dephasing: every excitation is read out once
        total = sum(p / eta for p, eta in zip(probs, etas))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"efficiency-corrected bins sum to {total!r}")

    plan = Plan("scan-closed", work, {"scan_points": points, "rabi_points": points}, configs)
    plan.commands = [
        Command("mixture", ["ramsey-scan", "--config", cfg["mixture.cfg"], "--backend", "unitary",
                            "--out", str(mix_csv)], mix_csv, check_mixture),
        Command("fit", ["fit", "--config", cfg["mixture.cfg"], "--in", str(mix_csv),
                        "--out", str(fit_json)], fit_json, check_fit),
        Command("rabi", ["rabi-scan", "--config", cfg["rabi.cfg"], "--out", str(rabi_csv)],
                rabi_csv, check_rabi),
        Command("analytic", ["ramsey-scan", "--config", cfg["analytic.cfg"], "--backend", "analytic",
                             "--format", "json", "--out", str(ana_json)], ana_json, check_analytic),
        Command("readout", ["readout", "--config", cfg["readout.cfg"], "--seq",
                            str(root / "sequences" / "ramsey_readout.seq"), "--out", str(ro_csv)], ro_csv, check_readout),
    ]
    return plan


# ---------------------------------------------------------------------------
# scan-open: master-equation integration, with and without collapse
# operators, against the unitary backend on the same grid.


def scan_open(seed: int, work: Path, root: Path, tiny: bool) -> Plan:
    rng = random.Random(seed)
    # Three points keep a pass near 2.5 s, so a run holds a dozen passes and
    # its median is steady; the tiny self-test size is the same.
    points = 3
    # |detuning| stays below the mu2 Rabi frequency, so the integrator's
    # step, and with it the work per point, does not depend on the seed.
    span_mhz = rng.uniform(6.0, 10.0)
    span = span_mhz * MHZ
    i0 = rng.uniform(0.5, 2.0)
    g_decay_mhz = rng.uniform(0.08, 0.12)
    g_deph_mhz = rng.uniform(0.08, 0.12)
    scan = SCAN_SEQUENCE + (
        f"scan.points = {points}\nscan.span = {span_mhz!r}MHz\nscan.i0 = {i0!r}\n"
    )
    configs = {
        "dissipative.cfg": scan + (
            f"dissipation.gamma_decay_2 = {g_decay_mhz!r}MHz\n"
            f"dissipation.gamma_deph_2 = {g_deph_mhz!r}MHz\n"
        ),
        "closed.cfg": scan,
    }
    cfg = {k: str(work / k) for k in configs}
    diss_csv, zero_csv, uni_csv = work / "dissipative.csv", work / "zero_rate.csv", work / "unitary.csv"
    t_total = 2.0 * SCAN_T_MU1 + SCAN_T_MU2
    rate_sum = (g_decay_mhz + g_deph_mhz) * 1e6

    @_checked
    def check_unitary(o):
        deltas, vals = _scan_columns(o["unitary"], span, points)
        _in_range(vals, -1e-9, i0 * (1 + 1e-9), "unitary intensity")
        got = vals[deltas.index(0.0)]
        # the analytic backend is pinned to the same value in scan-closed
        if abs(got - _resonant_intensity(i0)) > 1e-9 * i0:
            raise ValueError(f"I(0) = {got!r}, closed form {_resonant_intensity(i0)!r}")

    @_checked
    def check_zero_rate(o):
        _, vals = _scan_columns(o["zero_rate"], span, points)
        _, ref = _scan_columns(o["unitary"], span, points)
        worst = max(abs(a - b) for a, b in zip(vals, ref))
        if not worst <= 1e-6 * i0:
            raise ValueError(f"zero-rate Lindblad differs from unitary by {worst:.3e}")

    @_checked
    def check_dissipative(o):
        _, vals = _scan_columns(o["dissipative"], span, points)
        _, ref = _scan_columns(o["unitary"], span, points)
        _in_range(vals, -1e-9, i0 * (1 + 1e-9), "dissipative intensity")
        worst = max(abs(a - b) for a, b in zip(vals, ref))
        bound = 2.0 * rate_sum * t_total * i0
        if not worst <= bound:
            raise ValueError(f"dissipative scan off unitary by {worst:.3e} > {bound:.3e}")

    plan = Plan("scan-open", work, {"scan_points": points}, configs)
    plan.commands = [
        Command("dissipative", ["ramsey-scan", "--config", cfg["dissipative.cfg"], "--backend",
                                "lindblad", "--out", str(diss_csv)], diss_csv, check_dissipative),
        Command("zero_rate", ["ramsey-scan", "--config", cfg["closed.cfg"], "--backend", "lindblad",
                              "--out", str(zero_csv)], zero_csv, check_zero_rate),
        Command("unitary", ["ramsey-scan", "--config", cfg["closed.cfg"], "--backend", "unitary",
                            "--out", str(uni_csv)], uni_csv, check_unitary),
    ]
    return plan


# ---------------------------------------------------------------------------
# g2-shots: shot sampling and the g2 bootstrap, no propagation.


def _mixture_g2(p2: float, dark: float) -> float:
    """Closed-form g2(0) of the singles/doubles mixture with dark counts.

    Signal per arm: mean (1 + p2)/2; a double splits binomially, giving
    E[sA sB] = p2/2.  Dark clicks are independent Bernoulli(dark) per arm.
    """
    mean = 0.5 * (1.0 + p2) + dark
    return (0.5 * p2 + dark * (1.0 + p2) + dark * dark) / (mean * mean)


def g2_shots(seed: int, work: Path, root: Path, tiny: bool) -> Plan:
    rng = random.Random(seed)
    trials = 20_000 if tiny else 500_000
    p2, dark, mean_photons = 0.05, 0.001, 2.0
    configs = {
        "mixture.cfg": (
            f"g2.mode = mixture\ninteraction.p2 = {p2}\nshots.dark_rate = {dark}\n"
            f"shots.n_trials = {trials}\n"
        ),
        "coherent.cfg": (
            f"g2.mode = coherent\nshots.mean_photons = {mean_photons}\n"
            f"shots.n_trials = {trials}\n"
        ),
    }
    cfg = {k: str(work / k) for k in configs}
    mix_csv, coh_csv = work / "g2_mixture.csv", work / "g2_coherent.csv"

    def check_g2(name: str, expected: float):
        @_checked
        def check(o):
            out = o[name]
            if out["header"] != ["g2", "stderr", "n_trials"] or len(out["rows"]) != 1:
                raise ValueError("g2 table shape")
            g2, stderr, n = out["rows"][0]
            if n != trials:
                raise ValueError(f"n_trials {n!r} != {trials}")
            if not (_finite([g2, stderr]) and stderr > 0.0):
                raise ValueError(f"g2 {g2!r} +- {stderr!r}")
            if abs(g2 - expected) > 5.0 * stderr:
                raise ValueError(f"g2 {g2!r} +- {stderr!r} vs closed form {expected!r}")
        return check

    plan = Plan("g2-shots", work, {"shot_trials": trials, "g2_runs": 2}, configs)
    plan.commands = [
        Command("g2_mixture", ["g2", "--config", cfg["mixture.cfg"], "--seed",
                               str(rng.randrange(2**31)), "--out", str(mix_csv)],
                mix_csv, check_g2("g2_mixture", _mixture_g2(p2, dark))),
        Command("g2_coherent", ["g2", "--config", cfg["coherent.cfg"], "--seed",
                                str(rng.randrange(2**31)), "--out", str(coh_csv)],
                coh_csv, check_g2("g2_coherent", 1.0)),
    ]
    return plan


WORKLOADS = {"scan-closed": scan_closed, "scan-open": scan_open, "g2-shots": g2_shots}

# Spans each workload must produce.  Only entry points the CLI calls are
# listed, plus one function per layer the workload exists to exercise, so
# that a tracer which misses a call site fails instead of reading zero.
REQUIRED_SPANS = {
    "scan-closed": (
        "cli.main", "config.load_config", "io.emit", "io.csv_text", "io.json_text",
        "pairwise.mixture_fringe_scan", "ramsey.fringe_scan", "ramsey.rabi_scan",
        "photostats.fit_sinusoid", "photostats.readout_from_sequence", "dsl.load_sequence",
    ),
    "scan-open": (
        "cli.main", "config.load_config", "io.emit", "io.csv_text",
        "ramsey.fringe_scan", "dissipative.evolve_master",
    ),
    "g2-shots": (
        "cli.main", "config.load_config", "io.emit", "io.csv_text",
        "photostats.sample_shots", "photostats.sample_coherent_shots", "photostats.estimate_g2",
    ),
}
