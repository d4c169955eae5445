"""What the example scripts share: running a seqlab command on config text
and reading its CSV table, and the on-resonance visibility of a scan
beside the closed-form law."""

import contextlib
import io
import math
import os
import sys
import tempfile

from seqlab import cli

# rad/s per MHz: the factor by which the config reads an angular frequency
MHZ = 2 * math.pi * 1e6


def run(command, config_text, *args):
    """The stdout of ``seqlab <command> --config <file> <args>``, the file
    holding config_text.  The command's stderr is kept unless it fails;
    then it is printed and the script exits with the command's code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path, *args])
    if code:
        sys.stderr.write(err.getvalue())
        sys.exit(code)
    return out.getvalue()


def rows(csv_text):
    """The data rows of a CSV table, as tuples of floats."""
    return [tuple(map(float, line.split(","))) for line in csv_text.splitlines()[1:]]


def centre_visibility(scan_rows):
    """On-resonance fringe visibility of ``ramsey-scan`` rows at I0 = 1.

    The intensity is even in the detuning, so the row at exactly 0.0 (the
    centre of the symmetric grid) sits on a fringe extremum where both
    path envelopes equal 1/2.  Reading I(0) = (1 - K)^2 / 4 off it fixes
    the intermediate-pulse factor K, and the opposing extremum is
    (1 + K)^2 / 4; the visibility is (max - min) / (max + min) of the
    pair.  This stays exact where a sinusoid fit is biased by the
    envelope curvature away from resonance.
    """
    centre = dict(scan_rows)[0.0]
    r = math.sqrt(min(max(centre, 0.0), 1.0))
    K = 1.0 - 2.0 * r
    opposite = 0.25 * (1.0 + K) ** 2
    return abs(opposite - centre) / (centre + opposite)


def visibility_law(omega_mu2, t_mu2):
    """Closed-form visibility |2c / (1 + c^2)|, c = cos(omega_mu2 t_mu2 / 2)."""
    c = math.cos(0.5 * omega_mu2 * t_mu2)
    return abs(2.0 * c / (1.0 + c * c))
