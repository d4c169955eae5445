"""Run configuration: a flat key-value text format with dotted sections.

    # comment
    scan.t_mu1 = 100ns
    scan.span = 10MHz
    dissipation.gamma_deph_2 = 0.1MHz
    seed = 12345

Each key is declared once, as a field of its section dataclass that
carries the default, the parser of its written form and the bound on
its value; the dotted-key schema is derived from ``RunConfig``'s fields.
Drive frequencies and interaction shifts are angular internally (MHz
value times 2*pi*1e6); decay and dephasing rates are plain 1/e rates
(MHz value times 1e6 s^-1).  A line is parsed and bounds-checked as it
is read, so an unknown key, a malformed value and an out-of-range value
all name their line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .units import mhz

__all__ = ["RunConfig", "parse_config", "load_config"]


def _number(raw: str, factor: float = 1.0) -> float:
    try:
        value = float(raw) * factor
    except ValueError:
        raise ValueError(f"bad number {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _scaled(raw: str, units: dict[str, float]) -> float:
    for suffix, factor in units.items():  # longest suffix first
        if raw.endswith(suffix):
            return _number(raw[: -len(suffix)], factor)
    raise ValueError(
        f"expected one of {sorted(units)} as unit suffix, got {raw!r}"
    )


def _time(raw: str) -> float:
    """20ns / 1.5us / 2e-6s -> seconds."""
    return _scaled(raw, {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0})


def _angular(raw: str) -> float:
    """12.5MHz -> rad/s."""
    return _scaled(raw, {"MHz": mhz(1.0)})


def _rate(raw: str) -> float:
    """0.1MHz -> 1e5 s^-1: decay and dephasing rates are not angular."""
    return _scaled(raw, {"MHz": 1e6})


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad integer {raw!r}") from None


# bounds: (predicate on the parsed value, rule named in the diagnostic)
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_UNIT_OPEN = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")


def _key(default, parse, bound=None):
    """A config key: its default, its parser (or tuple of allowed words)
    and its optional bound."""
    return field(default=default, metadata={"parse": parse, "bound": bound})


@dataclass
class ScanSection:
    """Ramsey detuning scan: pi/2 - drive - pi/2 with a symmetric grid."""

    t_mu1: float = _key(100e-9, _time, _POSITIVE)
    t_mu2: float = _key(250e-9, _time, _NON_NEGATIVE)  # 0: no middle drive
    omega_mu2: float = _key(mhz(12.5), _angular, _NON_NEGATIVE)
    span: float = _key(mhz(10.0), _angular, _POSITIVE)
    points: int = _key(
        201, _int, (lambda v: v >= 3 and v % 2 == 1, "must be an odd integer >= 3")
    )
    i0: float = _key(1.0, _number, _POSITIVE)
    gap: float = _key(0.0, _time, _NON_NEGATIVE)
    backend: str = _key("analytic", ("analytic", "unitary", "lindblad"))


@dataclass
class RabiSection:
    """mu2 Rabi scan after a mu1 pi/2 preparation pulse."""

    t_mu1: float = _key(20e-9, _time, _POSITIVE)
    omega_mu2: float = _key(mhz(12.5), _angular, _NON_NEGATIVE)
    t_max: float = _key(160e-9, _time, _POSITIVE)
    points: int = _key(81, _int, (lambda v: v >= 2, "must be >= 2"))
    detuning2: float = _key(0.0, _angular)


@dataclass
class DissipationSection:
    gamma_decay_1: float = _key(0.0, _rate, _NON_NEGATIVE)
    gamma_decay_2: float = _key(0.0, _rate, _NON_NEGATIVE)
    gamma_decay_3: float = _key(0.0, _rate, _NON_NEGATIVE)
    gamma_deph_1: float = _key(0.0, _rate, _NON_NEGATIVE)
    gamma_deph_2: float = _key(0.0, _rate, _NON_NEGATIVE)
    gamma_deph_3: float = _key(0.0, _rate, _NON_NEGATIVE)


@dataclass
class ReadoutSection:
    """Read-out efficiencies and dephasing between bins; the read-out
    pulses come from the sequence file."""

    eta_1: float = _key(1.0, _number, _UNIT)
    eta_2: float = _key(1.0, _number, _UNIT)
    eta_3: float = _key(1.0, _number, _UNIT)
    deph: float = _key(0.0, _rate, _NON_NEGATIVE)


@dataclass
class InteractionSection:
    v_int: float = _key(0.0, _angular)
    p2: float = _key(0.0, _number, _UNIT_OPEN)


@dataclass
class ShotsSection:
    n_trials: int = _key(100_000, _int, _POSITIVE)
    dark_rate: float = _key(0.0, _number, _UNIT_OPEN)
    mean_photons: float = _key(0.1, _number, _NON_NEGATIVE)


@dataclass
class G2Section:
    mode: str = _key("antibunched", ("antibunched", "coherent", "mixture"))
    bin: int = _key(1, _int, (lambda v: v in (1, 2, 3), "must be 1, 2 or 3"))


@dataclass
class FitSection:
    # 0 -> derive from the scan section
    t_total_hint: float = _key(0.0, _time, _NON_NEGATIVE)


@dataclass
class OutputSection:
    format: str = _key("csv", ("csv", "json"))


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
    seed: int = _key(12345, _int, _NON_NEGATIVE)


def _schema() -> dict[str, tuple[str | None, object]]:
    """Dotted key -> (section attribute or None at top level, field)."""
    schema = {}
    for top in fields(RunConfig):
        if "parse" in top.metadata:
            schema[top.name] = (None, top)
        else:
            for f in fields(top.default_factory):
                schema[f"{top.name}.{f.name}"] = (top.name, f)
    return schema


_SCHEMA = _schema()


def _convert(raw: str, f):
    parse, bound = f.metadata["parse"], f.metadata["bound"]
    if isinstance(parse, tuple):
        if raw not in parse:
            raise ValueError(f"expected one of {parse}, got {raw!r}")
        return raw
    value = parse(raw)
    if bound is not None and not bound[0](value):
        raise ValueError(bound[1])
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
        section, f = _SCHEMA[key]
        try:
            converted = _convert(value, f)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, f.name, converted)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
