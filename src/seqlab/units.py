"""Unit helpers.

All internal quantities are SI: angular frequencies in rad/s, times in
seconds.  Ordinary frequencies (MHz) appear only at I/O boundaries (the
sequence DSL, config files, CLI output), so conversions live here.
"""

import math

TWO_PI = 2.0 * math.pi

# single conversion factor shared by every boundary (config, DSL, CLI) so
# the same written value always maps to the same float
MHZ = TWO_PI * 1e6


def mhz(f: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/s."""
    return f * MHZ
