"""Unit helpers, the one reader of a written number with a unit and the
one reader of a written integer.

All internal quantities are SI: angular frequencies in rad/s, times in
seconds.  Ordinary frequencies (MHz) appear only at I/O boundaries (the
sequence DSL, config files, CLI output), so conversions live here.  A
written value is a decimal and a unit; a power-of-ten unit shifts the
written exponent before the one rounding, so ``100ns`` is the double
nearest 1e-7, and angular MHz and a phase's pi keep their one factor.
"""

import math
import re

TWO_PI = 2.0 * math.pi

# single conversion factor shared by every boundary (config, DSL, CLI) so
# the same written value always maps to the same float
MHZ = TWO_PI * 1e6

# unit tables: written unit -> (power-of-ten shift, exact factor)
NS = {"ns": (-9, 1.0)}
TIME = {**NS, "us": (-6, 1.0), "ms": (-3, 1.0), "s": (0, 1.0)}
ANGULAR = {"MHz": (0, MHZ)}
RATE = {"MHz": (6, 1.0)}  # decay and dephasing 1/e rates are not angular
PHASE = {"pi": (0, math.pi)}
AREA = {"pi": (0, 1.0)}  # a pulse area in units of pi
PLAIN = {"": (0, 1.0)}

# ASCII digits; the exponent's leading zeros stay out of its last group
_DECIMAL = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?)0*(\d+))?", re.ASCII)


def mhz(f: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/s."""
    return f * MHZ


class BadValue(ValueError):
    """A written value refused: kind is "number", "unit" or "range", and
    the refused part of the text starts at offset at."""

    def __init__(self, message: str, kind: str, at: int):
        super().__init__(message)
        self.kind, self.at = kind, at


def read_value(text: str, units: dict) -> float:
    """The finite float that text, a decimal and a unit of units, writes."""
    m = _DECIMAL.match(text)
    unit = text[m.end():] if m else None
    if m is None or (unit not in units and "" in units):  # a unitless value is all number
        raise BadValue(f"bad number {text!r}", "number", 0)
    if unit not in units:
        raise BadValue(f"expected one of {sorted(units)} as unit suffix, got {text!r}", "unit", m.end())
    shift, factor = units[unit]
    mantissa, sign, digits = m.group(1), m.group(2) or "", m.group(3) or "0"
    # an exponent of 19 digits or more over- or underflows any mantissa that
    # fits in memory, shifted or not; int() refuses past 4300 digits
    exponent = int(sign + digits) + shift if len(digits) < 19 else sign + digits
    value = float(f"{mantissa}e{exponent}") * factor
    if not math.isfinite(value):
        raise BadValue("value must be finite", "range", 0)
    return value


def read_int(text: str) -> int:
    """The integer that text writes in ASCII digits after an optional sign;
    int() alone would also take '1_0', other scripts' digits and spaces."""
    try:
        if re.fullmatch(r"[+-]?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"bad integer {text!r}")
