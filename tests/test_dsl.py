import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqlab import dsl
from seqlab.dsl import ParseError, load_sequence, parse_sequence
from seqlab.qcore import (
    DriveField,
    DriveSegment,
    Readout,
    Wait,
)
from seqlab.units import mhz
from test_qcore import same_segments

CANONICAL = "sequences/ramsey_readout.seq"


# ---------------------------------------------------------------------------
# grammar


def test_area_form_derives_rabi():
    seq = parse_sequence("pulse mu1 area=0.5pi duration=20ns")
    (seg,) = seq.segments
    assert isinstance(seg, DriveSegment)
    assert seg.field is DriveField.MU1
    assert seg.rabi == 0.5 * math.pi / 20e-9
    assert seg.detuning == 0.0
    assert seg.phase == 0.0
    assert seg.duration == 20e-9
    # the area form leaves no trace: the pulse equals its rabi form
    same = DriveSegment(DriveField.MU1, rabi=0.5 * math.pi / 20e-9, duration=20e-9)
    assert same_segments((seg,), (same,))


def test_full_pulse_statement():
    seq = parse_sequence(
        "pulse mu2 rabi=12.5MHz detuning=-0.4MHz phase=0.25pi duration=250ns"
    )
    (seg,) = seq.segments
    assert seg.field is DriveField.MU2
    assert seg.rabi == mhz(12.5)
    assert seg.detuning == mhz(-0.4)
    assert seg.phase == 0.25 * math.pi
    assert seg.duration == 250.0 * 1e-9


def test_wait_and_readout_statements():
    seq = parse_sequence("wait 50ns\nreadout bin=2")
    w, r = seq.segments
    assert isinstance(w, Wait) and w.duration == 50.0 * 1e-9
    assert isinstance(r, Readout) and r.bin == 2


def test_comments_and_blank_lines_are_ignored():
    seq = parse_sequence(
        "# heading\n\npulse mu1 rabi=5MHz duration=10ns  # trailing\n\n"
    )
    assert len(seq.segments) == 1


def test_canonical_file_loads():
    seq = load_sequence(CANONICAL)
    assert len(seq.segments) == 9
    kinds = [type(s).__name__ for s in seq.segments]
    assert kinds == [
        "DriveSegment", "DriveSegment", "DriveSegment", "Readout",
        "DriveSegment", "Readout", "DriveSegment", "DriveSegment", "Readout",
    ]
    assert [s.bin for s in seq.segments if isinstance(s, Readout)] == [1, 2, 3]
    assert seq.total_duration() < 1.8e-6


# ---------------------------------------------------------------------------
# coded parse errors


def _err(text: str) -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse_sequence(text)
    return exc.value


def test_unknown_field_with_position():
    err = _err("pulse mu3 rabi=5MHz duration=20ns")
    assert err.code == dsl.E_UNKNOWN_FIELD
    assert err.line == 1
    assert err.column == 7
    assert "mu3" in err.message
    assert str(err) == f"line 1, column 7: {err.message} [E_UNKNOWN_FIELD]"


def test_error_positions_on_later_lines():
    err = _err("# comment\npulse mu1 rabi=5MHz duration=20ns\nreadout bin=9")
    assert err.code == dsl.E_BAD_BIN
    assert err.line == 3
    assert err.column == 13  # the bin value


def test_unknown_command():
    err = _err("pluse mu1 rabi=5MHz duration=20ns")
    assert err.code == dsl.E_SYNTAX
    assert err.line == 1 and err.column == 1


def test_unknown_key():
    err = _err("pulse mu1 rabi=5MHz width=3ns duration=20ns")
    assert err.code == dsl.E_UNKNOWN_KEY


def test_duplicate_key():
    err = _err("pulse mu1 rabi=5MHz rabi=6MHz duration=20ns")
    assert err.code == dsl.E_DUPLICATE_KEY


def test_bad_number():
    err = _err("pulse mu1 rabi=fastMHz duration=20ns")
    assert err.code == dsl.E_BAD_NUMBER
    # numbers that are not finite as written or after unit conversion are
    # reported at their value's position
    for text, column in (
        ("pulse mu1 rabi=1e400MHz duration=20ns", 16),
        ("pulse mu1 rabi=1e308MHz duration=20ns", 16),
        ("pulse mu1 rabi=5MHz detuning=1e308MHz duration=20ns", 30),
        ("pulse mu1 rabi=5MHz phase=1e400pi duration=20ns", 27),
        ("pulse mu1 rabi=5MHz duration=1e400ns", 30),
        ("pulse mu1 area=1e300pi duration=1e-300ns", 11),
    ):
        err = _err(text)
        assert (err.code, err.line, err.column) == (dsl.E_BAD_NUMBER, 1, column), text


def test_negative_amplitude_rejected():
    assert _err("pulse mu1 rabi=-5MHz duration=20ns").code == dsl.E_BAD_NUMBER
    assert _err("pulse mu1 area=-1pi duration=20ns").code == dsl.E_BAD_NUMBER


def test_bad_unit():
    err = _err("pulse mu1 rabi=5kHz duration=20ns")
    assert err.code == dsl.E_BAD_UNIT
    assert _err("wait 5us").code == dsl.E_BAD_UNIT


def test_missing_amplitude():
    err = _err("pulse mu1 duration=20ns")
    assert err.code == dsl.E_MISSING_AMPLITUDE


def test_conflicting_amplitude():
    err = _err("pulse mu1 rabi=5MHz area=1pi duration=20ns")
    assert err.code == dsl.E_CONFLICTING_AMPLITUDE
    assert err.column == 21  # the area token


def test_missing_duration():
    err = _err("pulse mu1 rabi=5MHz")
    assert err.code == dsl.E_MISSING_DURATION


def test_area_without_duration():
    err = _err("pulse mu1 area=1pi")
    assert err.code == dsl.E_AREA_WITHOUT_DURATION


def test_nonpositive_duration():
    assert _err("pulse mu1 rabi=5MHz duration=0ns").code == dsl.E_NONPOSITIVE_DURATION
    assert _err("wait 0ns").code == dsl.E_NONPOSITIVE_DURATION
    assert _err("wait -3ns").code == dsl.E_NONPOSITIVE_DURATION
    # positive in ns but 0 once converted to seconds
    err = _err("pulse mu1 area=1pi duration=1e-320ns")
    assert (err.code, err.column) == (dsl.E_NONPOSITIVE_DURATION, 29)
    err = _err("wait 1e-320ns")
    assert (err.code, err.column) == (dsl.E_NONPOSITIVE_DURATION, 6)


def test_bad_bin():
    assert _err("readout bin=4").code == dsl.E_BAD_BIN
    assert _err("readout bin=0").code == dsl.E_BAD_BIN
    assert _err("readout bin=x").code == dsl.E_BAD_BIN


def test_duplicate_bin():
    err = _err("readout bin=1\nwait 10ns\nreadout bin=1")
    assert err.code == dsl.E_DUPLICATE_BIN
    assert err.line == 3


def test_bin_order():
    err = _err("readout bin=2\nreadout bin=1")
    assert err.code == dsl.E_BIN_ORDER
    assert err.line == 2


def test_empty_input():
    assert _err("").code == dsl.E_EMPTY
    assert _err("# only a comment\n").code == dsl.E_EMPTY


def test_malformed_statements():
    assert _err("pulse").code == dsl.E_SYNTAX
    assert _err("pulse mu1 rabi duration=20ns").code == dsl.E_SYNTAX
    assert _err("wait").code == dsl.E_SYNTAX
    assert _err("wait 10ns 20ns").code == dsl.E_SYNTAX
    assert _err("readout").code == dsl.E_SYNTAX
    assert _err("readout slot=1").code == dsl.E_UNKNOWN_KEY


# ---------------------------------------------------------------------------
# parsed values


@given(
    st.floats(0.01, 100.0),
    st.floats(-10.0, 10.0),
    st.floats(-2.0, 2.0),
    st.floats(0.1, 10000.0),
)
@example(12.5, -0.4, 0.25, 250.0)
def test_parsed_values_equal_the_unit_helpers_bit_for_bit(f_mhz, d_mhz, ph_pi, t_ns):
    (seg,) = parse_sequence(
        f"pulse mu2 rabi={f_mhz!r}MHz detuning={d_mhz!r}MHz "
        f"phase={ph_pi!r}pi duration={t_ns!r}ns"
    ).segments
    assert seg.rabi == mhz(f_mhz)
    assert seg.detuning == mhz(d_mhz)
    assert seg.phase == ph_pi * math.pi
    assert seg.duration == t_ns * 1e-9


def _decimal(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def _drive_or_wait(draw):
    """(statement, the segment it stands for)."""
    text = draw(_decimal(1e-3, 1e5))
    duration = float(text) * 1e-9
    if draw(st.booleans()):
        return f"wait {text}ns", Wait(duration)
    field = draw(st.sampled_from(["mu1", "mu2"]))
    parts = ["pulse", field]
    if draw(st.booleans()):
        area = draw(_decimal(0.0, 10.0))
        parts.append(f"area={area}pi")
        rabi = float(area) * math.pi / duration
    else:
        rabi = draw(_decimal(0.0, 1e3))
        parts.append(f"rabi={rabi}MHz")
        rabi = mhz(float(rabi))
    detuning = phase = 0.0
    if draw(st.booleans()):
        detuning = draw(_decimal(-1e3, 1e3))
        parts.append(f"detuning={detuning}MHz")
        detuning = mhz(float(detuning))
    if draw(st.booleans()):
        phase = draw(_decimal(-4.0, 4.0))
        parts.append(f"phase={phase}pi")
        phase = float(phase) * math.pi
    parts.append(f"duration={text}ns")
    seg = DriveSegment(field, rabi=rabi, duration=duration, detuning=detuning, phase=phase)
    return " ".join(parts), seg


@st.composite
def _sequence_text(draw):
    """(sequence text, the segments it stands for)."""
    lines, segments = [], []
    for b in sorted(draw(st.sets(st.integers(1, 3)))):
        for line, seg in draw(st.lists(_drive_or_wait(), max_size=3)):
            lines.append(line)
            segments.append(seg)
        lines.append(f"readout bin={b}")
        segments.append(Readout(b))
    for line, seg in draw(st.lists(_drive_or_wait(), min_size=1, max_size=3)):
        lines.append(line)
        segments.append(seg)
    return "\n".join(lines), tuple(segments)


@given(_sequence_text())
def test_parsed_text_gives_the_written_values(case):
    text, segments = case
    assert same_segments(parse_sequence(text).segments, segments)


_NUMBERS = st.one_of(
    st.sampled_from(
        ["0", "-0", "5", ".5", "1e400", "-1e400", "1e308", "-1e308",
         "1e-320", "4.9e-324", "1e-400", "1.7976931348623157e308"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def _statement(draw):
    kind = draw(st.sampled_from(["pulse", "wait", "readout"]))
    if kind == "wait":
        return f"wait {draw(_NUMBERS)}ns"
    if kind == "readout":
        return f"readout bin={draw(st.sampled_from('01234'))}"
    options = [
        f"rabi={draw(_NUMBERS)}MHz", f"area={draw(_NUMBERS)}pi",
        f"detuning={draw(_NUMBERS)}MHz", f"phase={draw(_NUMBERS)}pi",
        f"duration={draw(_NUMBERS)}ns",
    ]
    keys = draw(st.lists(st.sampled_from(options), unique=True))
    return " ".join([kind, draw(st.sampled_from(["mu1", "mu2"])), *keys])


@given(st.one_of(st.text(), st.lists(_statement(), min_size=1, max_size=6).map("\n".join)))
@example("pulse mu1 area=1pi duration=1e-320ns\nreadout bin=1")
@example("pulse mu2 rabi=1e400MHz detuning=1e308MHz phase=1e400pi duration=5ns")
def test_parser_raises_only_parse_error(text):
    try:
        seq = parse_sequence(text)
    except ParseError:
        return
    for seg in seq.segments:
        if isinstance(seg, DriveSegment):
            assert math.isfinite(seg.rabi) and seg.rabi >= 0
        if not isinstance(seg, Readout):
            assert seg.duration > 0
