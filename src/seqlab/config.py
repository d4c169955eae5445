"""Run configuration: a flat key-value text format with dotted sections.

    # comment
    scan.t_mu1 = 100ns
    scan.span = 10MHz
    dissipation.gamma_deph_2 = 0.1MHz
    seed = 12345

Each key is declared once, as a field of its section dataclass that
carries the default, the parser of its written form and the bound on
its value; the dotted-key schema is derived from ``RunConfig``'s fields.
A real value is read by :func:`seqlab.units.read_value`, the reader the
sequence DSL shares: a time in ns/us/ms/s and a 1/e rate in MHz (times
1e6 s^-1) shift the written exponent before the one rounding, so
``scan.t_mu1 = 100ns`` gives the default 1e-07; drive frequencies and
interaction shifts are angular (MHz value times ``units.MHZ``), and an
integer is read by :func:`seqlab.units.read_int`.  A line
is parsed and bounds-checked as it is read, so an unknown key, a
malformed value and an out-of-range value all name their line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .units import ANGULAR, PLAIN, RATE, TIME, mhz, read_int, read_value

__all__ = ["RunConfig", "convert", "words", "parse_config", "load_config"]


# bounds: (predicate on the parsed value, rule named in the diagnostic)
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_UNIT_OPEN = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
# a pi/2 pulse of this duration drives at rabi pi/(2 t), which must be finite
_PI_HALF_TIME = (
    lambda v: v > 0 and math.isfinite(math.pi / (2.0 * v)),
    "must be positive, with pi/(2 t_mu1) finite",
)


def _key(default, parse, bound=None):
    """A config key: its default, its parser (a unit table of
    :mod:`seqlab.units`, a function or a tuple of allowed words) and its
    optional bound."""
    return field(default=default, metadata={"parse": parse, "bound": bound})


@dataclass
class ScanSection:
    """Ramsey detuning scan: pi/2 - drive - pi/2 with a symmetric grid."""

    t_mu1: float = _key(100e-9, TIME, _PI_HALF_TIME)
    t_mu2: float = _key(250e-9, TIME, _NON_NEGATIVE)  # 0: no middle drive
    omega_mu2: float = _key(mhz(12.5), ANGULAR, _NON_NEGATIVE)
    span: float = _key(mhz(10.0), ANGULAR, _POSITIVE)
    points: int = _key(
        201, read_int, (lambda v: v >= 3 and v % 2 == 1, "must be an odd integer >= 3")
    )
    i0: float = _key(1.0, PLAIN, _POSITIVE)
    gap: float = _key(0.0, TIME, _NON_NEGATIVE)  # a wait each side of the mu2 pulse
    backend: str = _key("analytic", ("analytic", "unitary", "lindblad"))


@dataclass
class RabiSection:
    """mu2 Rabi scan after a mu1 pi/2 preparation pulse."""

    t_mu1: float = _key(20e-9, TIME, _PI_HALF_TIME)
    omega_mu2: float = _key(mhz(12.5), ANGULAR, _NON_NEGATIVE)
    t_max: float = _key(160e-9, TIME, _POSITIVE)
    points: int = _key(81, read_int, (lambda v: v >= 2, "must be >= 2"))
    detuning2: float = _key(0.0, ANGULAR)


@dataclass
class DissipationSection:
    """1/e rates in 1/s of R1, R2 and R3 (suffix 1, 2, 3); decay takes
    population to the loss level, dephasing damps the level's coherences."""

    gamma_decay_1: float = _key(0.0, RATE, _NON_NEGATIVE)
    gamma_decay_2: float = _key(0.0, RATE, _NON_NEGATIVE)
    gamma_decay_3: float = _key(0.0, RATE, _NON_NEGATIVE)
    gamma_deph_1: float = _key(0.0, RATE, _NON_NEGATIVE)
    gamma_deph_2: float = _key(0.0, RATE, _NON_NEGATIVE)
    gamma_deph_3: float = _key(0.0, RATE, _NON_NEGATIVE)


@dataclass
class ReadoutSection:
    """Read-out efficiencies and dephasing between bins; the read-out
    pulses come from the sequence file."""

    eta_1: float = _key(1.0, PLAIN, _UNIT)
    eta_2: float = _key(1.0, PLAIN, _UNIT)
    eta_3: float = _key(1.0, PLAIN, _UNIT)
    deph: float = _key(0.0, RATE, _NON_NEGATIVE)


@dataclass
class InteractionSection:
    """v_int (rad/s) shifts every pair configuration but the stored pair
    (11); p2 is the probability that a shot holds two excitations."""

    v_int: float = _key(0.0, ANGULAR)
    p2: float = _key(0.0, PLAIN, _UNIT_OPEN)


@dataclass
class ShotsSection:
    """HBT shots: n_trials goes to numpy's int64 multinomial draws; a
    coherent source's outcomes span about sqrt(mean_photons) counts per
    arm, so mean_photons bounds the work of a g2 run at any n_trials."""

    n_trials: int = _key(
        100_000, read_int, (lambda v: 0 < v < 2**63, "must be positive and below 2**63")
    )
    dark_rate: float = _key(0.0, PLAIN, _UNIT_OPEN)
    mean_photons: float = _key(
        0.1, PLAIN, (lambda v: 0 <= v <= 32767, "must be non-negative and at most 32767")
    )


@dataclass
class G2Section:
    mode: str = _key("antibunched", ("antibunched", "coherent", "mixture"))
    bin: int = _key(1, read_int, (lambda v: v in (1, 2, 3), "must be 1, 2 or 3"))


@dataclass
class FitSection:
    # 0 -> derive from the scan section
    t_total_hint: float = _key(0.0, TIME, _NON_NEGATIVE)


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
    seed: int = _key(12345, read_int, _NON_NEGATIVE)


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


def convert(key: str, raw: str):
    """raw parsed and bounded as the dotted key's value, else ValueError."""
    meta = _SCHEMA[key][1].metadata
    parse, bound = meta["parse"], meta["bound"]
    if isinstance(parse, tuple):
        if raw not in parse:
            raise ValueError(f"expected one of {parse}, got {raw!r}")
        return raw
    value = read_value(raw, parse) if isinstance(parse, dict) else parse(raw)
    if bound is not None and not bound[0](value):
        raise ValueError(bound[1])
    return value


def words(key: str) -> tuple[str, ...]:
    """The words that the dotted key, a key of words, accepts."""
    return _SCHEMA[key][1].metadata["parse"]


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
            converted = convert(key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
        target = cfg if section is None else getattr(cfg, section)
        setattr(target, f.name, converted)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
