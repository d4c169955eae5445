"""Plain-text pulse sequence format.

Grammar, one statement per line, '#' starts a comment:

    pulse <mu1|mu2> (rabi=<f>MHz | area=<x>pi) [detuning=<f>MHz]
                    [phase=<x>pi] duration=<t>ns
    wait <t>ns
    readout bin=<1|2|3>

Parse errors carry a 1-based line/column and a stable machine-readable
code.  A value is read by :func:`seqlab.units.read_value`, the reader
the config shares: ``ns`` shifts the written exponent before the one
rounding, so ``duration=100ns`` is the double nearest 1e-7, and MHz and
a phase's pi keep their one factor, so ``rabi=12.5MHz`` is
``units.mhz(12.5)`` bit for bit; the area form gives
rabi = area * pi / duration.  A bin is read by
:func:`seqlab.units.read_int`, as the config's integers are.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, NamedTuple

from .qcore import FIELDS, DriveSegment, Readout, Segment, Wait
from .units import ANGULAR, AREA, NS, PHASE, BadValue, read_int, read_value

__all__ = ["ParseError", "parse_sequence", "load_sequence"]

# error codes
E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_FIELD = "E_UNKNOWN_FIELD"
E_UNKNOWN_KEY = "E_UNKNOWN_KEY"
E_DUPLICATE_KEY = "E_DUPLICATE_KEY"
E_BAD_NUMBER = "E_BAD_NUMBER"
E_BAD_UNIT = "E_BAD_UNIT"
E_MISSING_AMPLITUDE = "E_MISSING_AMPLITUDE"
E_CONFLICTING_AMPLITUDE = "E_CONFLICTING_AMPLITUDE"
E_MISSING_DURATION = "E_MISSING_DURATION"
E_AREA_WITHOUT_DURATION = "E_AREA_WITHOUT_DURATION"
E_NONPOSITIVE_DURATION = "E_NONPOSITIVE_DURATION"
E_BAD_BIN = "E_BAD_BIN"
E_DUPLICATE_BIN = "E_DUPLICATE_BIN"
E_BIN_ORDER = "E_BIN_ORDER"
E_EMPTY = "E_EMPTY"


class ParseError(ValueError):
    """Sequence text rejected; line and column are 1-based."""

    def __init__(self, message: str, line: int, column: int, code: str):
        super().__init__(f"line {line}, column {column}: {message} [{code}]")
        self.message = message
        self.line = line
        self.column = column
        self.code = code


class _Token(NamedTuple):
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[list[_Token]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", body)
        ]
        if tokens:
            yield tokens


def _fault(tok: _Token, message: str, code: str) -> ParseError:
    """A ParseError at the start of tok."""
    return ParseError(message, tok.line, tok.column, code)


def _value(tok: _Token, units: dict, what: str) -> float:
    """The token's value in units, else a ParseError at its refused part."""
    try:
        return read_value(tok.text, units)
    except BadValue as exc:
        message, code = {
            "number": ("expected a number", E_BAD_NUMBER),
            "unit": (f"expected unit {[*units][0]!r}, got {tok.text[exc.at:]!r}", E_BAD_UNIT),
            "range": (f"{tok.text!r} is out of range", E_BAD_NUMBER),
        }[exc.kind]
        raise ParseError(f"{what}: {message}", tok.line, tok.column + exc.at, code) from None


def _duration(value: float, tok: _Token) -> float:
    """value, the duration written at tok, if it is strictly positive."""
    if value <= 0:  # also a positive ns value that underflows in seconds
        raise _fault(tok, "duration must be strictly positive", E_NONPOSITIVE_DURATION)
    return value


def _split_kv(tok: _Token) -> tuple[str, _Token]:
    if "=" not in tok.text:
        raise _fault(tok, f"expected key=value, got {tok.text!r}", E_SYNTAX)
    key, _, value = tok.text.partition("=")
    return key, _Token(value, tok.line, tok.column + len(key) + 1)


# pulse key -> the unit table its value is written in
_PULSE_KEYS = {"rabi": ANGULAR, "area": AREA, "detuning": ANGULAR, "phase": PHASE, "duration": NS}


def _parse_pulse(tokens: list[_Token]) -> DriveSegment:
    cmd = tokens[0]
    if len(tokens) < 2:
        raise ParseError(
            "pulse needs a field tag (mu1 or mu2)",
            cmd.line, cmd.column + len(cmd.text), E_SYNTAX,
        )
    fld = tokens[1].text
    if fld not in FIELDS:
        raise _fault(
            tokens[1], f"unknown drive field {fld!r} (expected mu1 or mu2)", E_UNKNOWN_FIELD
        )

    values: dict[str, float] = {}
    written: dict[str, _Token] = {}  # key -> its key=value token
    for tok in tokens[2:]:
        key, val = _split_kv(tok)
        if key in written:
            raise _fault(tok, f"duplicate key {key!r}", E_DUPLICATE_KEY)
        if key not in _PULSE_KEYS:
            raise _fault(tok, f"unknown key {key!r}", E_UNKNOWN_KEY)
        written[key] = tok
        values[key] = _value(val, _PULSE_KEYS[key], key)

    if "rabi" in values and "area" in values:
        raise _fault(written["area"], "give rabi or area, not both", E_CONFLICTING_AMPLITUDE)
    amplitude = "area" if "area" in values else "rabi"
    if amplitude not in values:
        raise _fault(cmd, "pulse needs rabi=...MHz or area=...pi", E_MISSING_AMPLITUDE)
    if "duration" not in values:
        if amplitude == "area":
            raise _fault(
                written["area"], "area form needs an explicit duration", E_AREA_WITHOUT_DURATION
            )
        raise _fault(cmd, "pulse needs duration=...ns", E_MISSING_DURATION)
    duration = _duration(values["duration"], _split_kv(written["duration"])[1])
    value = values[amplitude]
    if value < 0:
        raise _fault(written[amplitude], f"{amplitude} must be non-negative", E_BAD_NUMBER)
    rabi = value if amplitude == "rabi" else value * math.pi / duration
    if not math.isfinite(rabi):  # only an area's rabi can overflow; a rabi is read finite
        raise _fault(
            written[amplitude], f"area {value!r}pi over {duration!r} s is out of range",
            E_BAD_NUMBER,
        )
    return DriveSegment(
        field=fld, rabi=rabi, duration=duration,
        detuning=values.get("detuning", 0.0), phase=values.get("phase", 0.0),
    )


def _parse_wait(tokens: list[_Token]) -> Wait:
    if len(tokens) != 2:
        raise _fault(tokens[0], "wait takes exactly one duration", E_SYNTAX)
    return Wait(_duration(_value(tokens[1], NS, "wait duration"), tokens[1]))


def _parse_readout(tokens: list[_Token]) -> Readout:
    if len(tokens) != 2:
        raise _fault(tokens[0], "readout takes exactly bin=<1|2|3>", E_SYNTAX)
    key, val = _split_kv(tokens[1])
    if key != "bin":
        raise _fault(tokens[1], f"unknown key {key!r}", E_UNKNOWN_KEY)
    try:
        bin = read_int(val.text)
    except ValueError:
        bin = None
    if bin not in (1, 2, 3):
        raise _fault(val, f"bin must be 1, 2 or 3, got {val.text!r}", E_BAD_BIN)
    return Readout(bin)


_PARSERS = {"pulse": _parse_pulse, "wait": _parse_wait, "readout": _parse_readout}


def parse_sequence(text: str) -> tuple[Segment, ...]:
    """Parse sequence text into its tuple of segments, or raise ParseError;
    readout bins appear at most once each, in strictly increasing order."""
    segments = []
    read: dict[int, int] = {}  # bin -> the line that read it out, in order
    for tokens in _tokenize(text):
        cmd = tokens[0]
        if cmd.text not in _PARSERS:
            raise _fault(cmd, f"unknown command {cmd.text!r}", E_SYNTAX)
        segment = _PARSERS[cmd.text](tokens)
        if isinstance(segment, Readout):
            last = max(read, default=0)
            if segment.bin in read:
                raise _fault(
                    cmd, f"bin {segment.bin} already read out on line {read[segment.bin]}",
                    E_DUPLICATE_BIN,
                )
            if segment.bin < last:
                raise _fault(
                    cmd, f"readout bins must be ascending (bin {segment.bin} after bin {last})",
                    E_BIN_ORDER,
                )
            read[segment.bin] = cmd.line
        segments.append(segment)
    if not segments:
        raise ParseError("sequence has no segments", 1, 1, E_EMPTY)
    return tuple(segments)


def load_sequence(path) -> tuple[Segment, ...]:
    """Parse the sequence file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence(fh.read())
