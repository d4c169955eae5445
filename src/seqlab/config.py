"""Run configuration: a flat key-value text format with dotted sections.

    # comment
    scan.t_mu1 = 100ns
    scan.span = 10MHz
    dissipation.gamma_deph_2 = 0.1MHz
    seed = 12345

Schema-driven: every key has a declared kind that fixes both validation
and unit handling.  Drive frequencies and interaction shifts are angular
internally (MHz value times 2*pi*1e6); decay and dephasing rates are
plain 1/e rates (MHz value times 1e6 s^-1).  Unknown keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .units import mhz

__all__ = ["RunConfig", "parse_config", "load_config"]


# value kinds
_TIME = "time"            # 20ns / 1.5us / 2e-6s  -> seconds
_FREQ = "freq"            # 12.5MHz -> rad/s (angular)
_RATE = "rate"            # 0.1MHz  -> 1e5 s^-1 (plain rate)
_FLOAT = "float"
_INT = "int"
_CHOICE = "choice"

_TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


@dataclass
class ScanSection:
    """Ramsey detuning scan: pi/2 - drive - pi/2 with a symmetric grid."""

    t_mu1: float = 100e-9
    t_mu2: float = 250e-9
    omega_mu2: float = mhz(12.5)
    span: float = mhz(10.0)
    points: int = 201
    i0: float = 1.0
    gap: float = 0.0
    backend: str = "analytic"


@dataclass
class RabiSection:
    """mu2 Rabi scan after a mu1 pi/2 preparation pulse."""

    t_mu1: float = 20e-9
    omega_mu2: float = mhz(12.5)
    t_max: float = 160e-9
    points: int = 81
    detuning2: float = 0.0


@dataclass
class DissipationSection:
    gamma_decay_1: float = 0.0
    gamma_decay_2: float = 0.0
    gamma_decay_3: float = 0.0
    gamma_deph_1: float = 0.0
    gamma_deph_2: float = 0.0
    gamma_deph_3: float = 0.0


@dataclass
class ReadoutSection:
    """Read-out efficiencies and dephasing between bins; the read-out
    pulses come from the sequence file."""

    eta_1: float = 1.0
    eta_2: float = 1.0
    eta_3: float = 1.0
    deph: float = 0.0


@dataclass
class InteractionSection:
    v_int: float = 0.0
    p2: float = 0.0


@dataclass
class ShotsSection:
    n_trials: int = 100_000
    dark_rate: float = 0.0
    mean_photons: float = 0.1


@dataclass
class G2Section:
    mode: str = "antibunched"
    bin: int = 1


@dataclass
class FitSection:
    t_total_hint: float = 0.0  # 0 -> derive from the scan section


@dataclass
class OutputSection:
    format: str = "csv"


@dataclass
class RunConfig:
    scan: ScanSection = field(default_factory=ScanSection)
    rabi: RabiSection = field(default_factory=RabiSection)
    dissipation: DissipationSection = field(default_factory=DissipationSection)
    readout: ReadoutSection = field(default_factory=ReadoutSection)
    interaction: InteractionSection = field(default_factory=InteractionSection)
    shots: ShotsSection = field(default_factory=ShotsSection)
    g2: G2Section = field(default_factory=G2Section)
    fit: FitSection = field(default_factory=FitSection)
    output: OutputSection = field(default_factory=OutputSection)
    seed: int = 12345

# dotted key -> (section attr or None for top level, field name, kind, extra)
_SCHEMA: dict[str, tuple[str | None, str, str, tuple]] = {}


def _register(section: str | None, name: str, kind: str, extra: tuple = ()):
    key = f"{section}.{name}" if section else name
    _SCHEMA[key] = (section, name, kind, extra)


_register("scan", "t_mu1", _TIME)
_register("scan", "t_mu2", _TIME)
_register("scan", "omega_mu2", _FREQ)
_register("scan", "span", _FREQ)
_register("scan", "points", _INT)
_register("scan", "i0", _FLOAT)
_register("scan", "gap", _TIME)
_register("scan", "backend", _CHOICE, ("analytic", "unitary", "lindblad"))
_register("rabi", "t_mu1", _TIME)
_register("rabi", "omega_mu2", _FREQ)
_register("rabi", "t_max", _TIME)
_register("rabi", "points", _INT)
_register("rabi", "detuning2", _FREQ)
for _i in (1, 2, 3):
    _register("dissipation", f"gamma_decay_{_i}", _RATE)
    _register("dissipation", f"gamma_deph_{_i}", _RATE)
for _i in (1, 2, 3):
    _register("readout", f"eta_{_i}", _FLOAT)
_register("readout", "deph", _RATE)
_register("interaction", "v_int", _FREQ)
_register("interaction", "p2", _FLOAT)
_register("shots", "n_trials", _INT)
_register("shots", "dark_rate", _FLOAT)
_register("shots", "mean_photons", _FLOAT)
_register("g2", "mode", _CHOICE, ("antibunched", "coherent", "mixture"))
_register("g2", "bin", _INT)
_register("fit", "t_total_hint", _TIME)
_register("output", "format", _CHOICE, ("csv", "json"))
_register(None, "seed", _INT)


def _parse_scaled(raw: str, units: dict[str, float], what: str) -> float:
    for suffix, factor in sorted(units.items(), key=lambda kv: -len(kv[0])):
        if raw.endswith(suffix):
            num = raw[: -len(suffix)]
            try:
                return float(num) * factor
            except ValueError:
                raise ValueError(f"{what}: bad number {num!r}") from None
    raise ValueError(
        f"{what}: expected one of {sorted(units)} as unit suffix, got {raw!r}"
    )


def _convert(raw: str, kind: str, extra: tuple, key: str):
    if kind == _TIME:
        value = _parse_scaled(raw, _TIME_UNITS, key)
    elif kind == _FREQ:
        value = _parse_scaled(raw, {"MHz": 1.0}, key) * mhz(1.0)
    elif kind == _RATE:
        # decay/dephasing rates: plain 1/e rates, not angular
        value = _parse_scaled(raw, {"MHz": 1.0}, key) * 1e6
    elif kind == _FLOAT:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{key}: bad number {raw!r}") from None
    elif kind == _INT:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{key}: bad integer {raw!r}") from None
    elif kind == _CHOICE:
        if raw not in extra:
            raise ValueError(f"{key}: expected one of {extra}, got {raw!r}")
        return raw
    else:  # pragma: no cover - schema bug
        raise AssertionError(kind)
    if kind != _INT and not math.isfinite(value):
        raise ValueError(f"{key}: value must be finite")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse config text; raises ValueError naming the offending line."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in _SCHEMA:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        section, name, kind, extra = _SCHEMA[key]
        try:
            converted = _convert(value, kind, extra, key)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, name, converted)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.scan.points < 3 or cfg.scan.points % 2 == 0:
        raise ValueError("scan.points must be an odd integer >= 3")
    if cfg.rabi.points < 2:
        raise ValueError("rabi.points must be >= 2")
    if cfg.scan.t_mu1 <= 0 or cfg.scan.t_mu2 < 0:
        raise ValueError("scan pulse times must be positive (t_mu2 may be 0)")
    if cfg.rabi.t_mu1 <= 0 or cfg.rabi.t_max <= 0:
        raise ValueError("rabi.t_mu1 and rabi.t_max must be positive")
    for f in fields(DissipationSection):
        if getattr(cfg.dissipation, f.name) < 0:
            raise ValueError(f"dissipation.{f.name} must be non-negative")
    for i in (1, 2, 3):
        eta = getattr(cfg.readout, f"eta_{i}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"readout.eta_{i} must lie in [0, 1]")
    if cfg.readout.deph < 0:
        raise ValueError("readout.deph must be non-negative")
    if not 0.0 <= cfg.interaction.p2 < 1.0:
        raise ValueError("interaction.p2 must lie in [0, 1)")
    if cfg.shots.n_trials <= 0:
        raise ValueError("shots.n_trials must be positive")
    if not 0.0 <= cfg.shots.dark_rate < 1.0:
        raise ValueError("shots.dark_rate must lie in [0, 1)")
    if cfg.shots.mean_photons < 0:
        raise ValueError("shots.mean_photons must be non-negative")
    if cfg.g2.bin not in (1, 2, 3):
        raise ValueError("g2.bin must be 1, 2 or 3")
    if cfg.fit.t_total_hint < 0:
        raise ValueError("fit.t_total_hint must be non-negative (0 = derive)")
    if cfg.seed < 0:
        raise ValueError("seed must be non-negative")


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
