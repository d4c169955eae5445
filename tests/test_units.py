"""The one reader of a written number with a unit, through the config and
the sequence DSL: a power-of-ten unit gives the double nearest the
written decimal, rounded once; and the one reader of a written integer."""

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqlab.config import _SCHEMA, parse_config
from seqlab.dsl import E_BAD_BIN, E_BAD_NUMBER, E_NONPOSITIVE_DURATION, ParseError, parse_sequence
from seqlab.units import read_int

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# (config key, unit, power of ten of the unit)
_POWER_OF_TEN = [
    ("rabi.t_max", "ns", -9),
    ("rabi.t_max", "us", -6),
    ("rabi.t_max", "ms", -3),
    ("rabi.t_max", "s", 0),
    ("dissipation.gamma_deph_1", "MHz", 6),
]

_DECIMALS = st.one_of(
    st.from_regex(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["30", "100", "250", "0.1", "1e-320", "1e400", "-0", ".5", "5."]),
)

_HUGE = "1e" + "9" * 5000
_TINY = "1e-" + "9" * 5000


def _nearest(text: str, shift: int) -> float:
    """The double nearest text times 10**shift: Decimal shifts exactly and
    float() rounds once.  An exponent past Decimal's range is past every
    double too, shifted or not, so float() of the text alone rounds it."""
    try:
        return float(Decimal(text).scaleb(shift, _EXACT))
    except InvalidOperation:
        return float(text)


def _same(a: float, b: float) -> bool:
    return a.hex() == b.hex()


@given(st.sampled_from(_POWER_OF_TEN), _DECIMALS)
@example(_POWER_OF_TEN[0], "30")
@example(_POWER_OF_TEN[0], "100")
@example(_POWER_OF_TEN[4], "0.1")
@example(_POWER_OF_TEN[0], _HUGE)
@example(_POWER_OF_TEN[0], _TINY)
@example(_POWER_OF_TEN[0], "-" + _TINY)
@example(_POWER_OF_TEN[4], _HUGE)
def test_config_value_is_the_nearest_double(case, text):
    key, unit, shift = case
    expected = _nearest(text, shift)
    holds, rule = _SCHEMA[key][1].metadata["bound"]
    line = f"{key} = {text}{unit}\n"
    if not math.isfinite(expected):
        with pytest.raises(ValueError, match=f"^config line 1: {key}: value must be finite$"):
            parse_config(line)
    elif not holds(expected):
        with pytest.raises(ValueError, match=f"^config line 1: {key}: {rule}$"):
            parse_config(line)
    else:
        section, _, name = key.partition(".")
        assert _same(getattr(getattr(parse_config(line), section), name), expected)


@given(_DECIMALS)
@example("30")
@example("20")
@example(_HUGE)
@example(_TINY)
@example("-" + _HUGE)
def test_sequence_duration_is_the_nearest_double(text):
    expected = _nearest(text, -9)
    for line, column in ((f"wait {text}ns", 6), (f"pulse mu1 rabi=1MHz duration={text}ns", 30)):
        if math.isfinite(expected) and expected > 0:
            (seg,) = parse_sequence(line)
            assert _same(seg.duration, expected)
            continue
        with pytest.raises(ParseError) as info:
            parse_sequence(line)
        code = E_BAD_NUMBER if not math.isfinite(expected) else E_NONPOSITIVE_DURATION
        assert (info.value.code, info.value.line, info.value.column) == (code, 1, column)


@pytest.mark.parametrize(
    "text, value",
    [
        ("2", 2),
        # a sign and leading zeros, refused by the DSL until it shared the reader
        ("+1", 1), ("01", 1), ("+02", 2), ("003", 3),
        ("0", 0), ("-1", -1), ("+0", 0), ("04", 4),  # integers, but no bins
        ("1_0", None), ("1.0", None), ("\u0661", None), ("", None),
        pytest.param("0" * 5000 + "1", None, id="past-int-digit-limit"),
    ],
)
def test_a_bin_reads_alike_in_the_config_and_the_sequence(text, value):
    if value is None:
        with pytest.raises(ValueError, match=f"^bad integer {text!r}$"):
            read_int(text)
    else:
        assert read_int(text) == value
    config = f"g2.bin = {text}\n"
    if value in (1, 2, 3):
        (segment,) = parse_sequence(f"readout bin={text}")
        assert segment.bin == parse_config(config).g2.bin == value
        return
    with pytest.raises(ParseError) as info:
        parse_sequence(f"readout bin={text}")
    assert info.value.code == E_BAD_BIN
    with pytest.raises(ValueError, match="^config line 1: g2.bin: "):
        parse_config(config)
