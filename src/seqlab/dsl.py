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
rabi = area * pi / duration.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, NamedTuple

from .qcore import (
    DriveField,
    DriveSegment,
    Readout,
    Segment,
    Wait,
)
from .units import ANGULAR, AREA, NS, PHASE, BadValue, read_value

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


def _split_kv(tok: _Token) -> tuple[str, _Token]:
    if "=" not in tok.text:
        raise ParseError(
            f"expected key=value, got {tok.text!r}", tok.line, tok.column, E_SYNTAX
        )
    key, _, value = tok.text.partition("=")
    return key, _Token(value, tok.line, tok.column + len(key) + 1)


def _parse_pulse(tokens: list[_Token]) -> DriveSegment:
    cmd = tokens[0]
    if len(tokens) < 2:
        raise ParseError(
            "pulse needs a field tag (mu1 or mu2)",
            cmd.line, cmd.column + len(cmd.text), E_SYNTAX,
        )
    field_tok = tokens[1]
    try:
        fld = DriveField(field_tok.text)
    except ValueError:
        raise ParseError(
            f"unknown drive field {field_tok.text!r} (expected mu1 or mu2)",
            field_tok.line, field_tok.column, E_UNKNOWN_FIELD,
        ) from None

    seen: dict[str, _Token] = {}
    rabi = area = detuning = phase = duration = None
    duration_tok = None
    for tok in tokens[2:]:
        key, val = _split_kv(tok)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", tok.line, tok.column, E_DUPLICATE_KEY)
        seen[key] = tok
        if key == "rabi":
            rabi = _value(val, ANGULAR, "rabi")
        elif key == "area":
            area = _value(val, AREA, "area")
        elif key == "detuning":
            detuning = _value(val, ANGULAR, "detuning")
        elif key == "phase":
            phase = _value(val, PHASE, "phase")
        elif key == "duration":
            duration = _value(val, NS, "duration")
            duration_tok = val
        else:
            raise ParseError(f"unknown key {key!r}", tok.line, tok.column, E_UNKNOWN_KEY)

    if rabi is not None and area is not None:
        tok = seen["area"]
        raise ParseError(
            "give rabi or area, not both", tok.line, tok.column, E_CONFLICTING_AMPLITUDE
        )
    if rabi is None and area is None:
        raise ParseError(
            "pulse needs rabi=...MHz or area=...pi",
            cmd.line, cmd.column, E_MISSING_AMPLITUDE,
        )
    if duration is None:
        if area is not None:
            tok = seen["area"]
            raise ParseError(
                "area form needs an explicit duration",
                tok.line, tok.column, E_AREA_WITHOUT_DURATION,
            )
        raise ParseError("pulse needs duration=...ns", cmd.line, cmd.column, E_MISSING_DURATION)
    if duration <= 0:  # also a positive ns value that underflows in seconds
        raise ParseError(
            "duration must be strictly positive",
            duration_tok.line, duration_tok.column, E_NONPOSITIVE_DURATION,
        )
    if area is not None:
        tok = seen["area"]
        if area < 0:
            raise ParseError("area must be non-negative", tok.line, tok.column, E_BAD_NUMBER)
        rabi = area * math.pi / duration
        if not math.isfinite(rabi):
            raise ParseError(
                f"area {area!r}pi over {duration!r} s is out of range",
                tok.line, tok.column, E_BAD_NUMBER,
            )
    elif rabi < 0:
        tok = seen["rabi"]
        raise ParseError("rabi must be non-negative", tok.line, tok.column, E_BAD_NUMBER)
    return DriveSegment(
        field=fld,
        rabi=rabi,
        duration=duration,
        detuning=0.0 if detuning is None else detuning,
        phase=0.0 if phase is None else phase,
    )


def _parse_wait(tokens: list[_Token]) -> Wait:
    cmd = tokens[0]
    if len(tokens) != 2:
        raise ParseError("wait takes exactly one duration", cmd.line, cmd.column, E_SYNTAX)
    duration = _value(tokens[1], NS, "wait duration")
    if duration <= 0:  # also a positive ns value that underflows in seconds
        raise ParseError(
            "duration must be strictly positive",
            tokens[1].line, tokens[1].column, E_NONPOSITIVE_DURATION,
        )
    return Wait(duration)


def _parse_readout(tokens: list[_Token]) -> Readout:
    cmd = tokens[0]
    if len(tokens) != 2:
        raise ParseError("readout takes exactly bin=<1|2|3>", cmd.line, cmd.column, E_SYNTAX)
    key, val = _split_kv(tokens[1])
    if key != "bin":
        raise ParseError(f"unknown key {key!r}", tokens[1].line, tokens[1].column, E_UNKNOWN_KEY)
    if val.text not in ("1", "2", "3"):
        raise ParseError(
            f"bin must be 1, 2 or 3, got {val.text!r}", val.line, val.column, E_BAD_BIN
        )
    return Readout(int(val.text))


def parse_sequence(text: str) -> tuple[Segment, ...]:
    """Parse sequence text into its tuple of segments, or raise ParseError;
    readout bins appear at most once each, in strictly increasing order."""
    segments = []
    seen_bins: dict[int, int] = {}
    last_bin = 0
    for tokens in _tokenize(text):
        cmd = tokens[0]
        if cmd.text == "pulse":
            segments.append(_parse_pulse(tokens))
        elif cmd.text == "wait":
            segments.append(_parse_wait(tokens))
        elif cmd.text == "readout":
            ro = _parse_readout(tokens)
            if ro.bin in seen_bins:
                raise ParseError(
                    f"bin {ro.bin} already read out on line {seen_bins[ro.bin]}",
                    cmd.line, cmd.column, E_DUPLICATE_BIN,
                )
            if ro.bin < last_bin:
                raise ParseError(
                    f"readout bins must be ascending (bin {ro.bin} after bin {last_bin})",
                    cmd.line, cmd.column, E_BIN_ORDER,
                )
            seen_bins[ro.bin] = cmd.line
            last_bin = ro.bin
            segments.append(ro)
        else:
            raise ParseError(
                f"unknown command {cmd.text!r}", cmd.line, cmd.column, E_SYNTAX
            )
    if not segments:
        raise ParseError("sequence has no segments", 1, 1, E_EMPTY)
    return tuple(segments)


def load_sequence(path) -> tuple[Segment, ...]:
    """Parse the sequence file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence(fh.read())
