#!/usr/bin/env python3
"""Three-bin read-out populations versus inter-bin dephasing rate.

Prepares the even R1/R2 split (pi/2 on mu1, then a 2pi mu2 pulse), runs
the canonical read-out chain, and shows how the later bins lose signal
as the dephasing rate grows while bin 1 stays put.
"""

import argparse
import math

from seqlab.photostats import readout_populations
from seqlab.qcore import DriveField, DriveSegment, sequence_unitary
from seqlab.units import mhz


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates-mhz", type=float, nargs="+",
                    default=[0.0, 1.0, 2.0, 4.0, 6.5, 10.0],
                    help="inter-bin dephasing rates (plain 1/e rates, MHz)")
    args = ap.parse_args()

    omega = mhz(12.5)
    prep = (
        DriveSegment(DriveField.MU1, rabi=math.pi / (2 * 20e-9), duration=20e-9),
        DriveSegment(DriveField.MU2, rabi=omega, duration=2 * math.pi / omega),
    )
    populations = tuple(abs(c) ** 2 for c in sequence_unitary(prep)[:, 0].tolist())
    print(f"prepared populations: {populations}")
    print(f"{'rate (MHz)':>10}  {'P1':>10}  {'P2':>10}  {'P3':>10}  {'sum':>10}")
    for rate_mhz in args.rates_mhz:
        pops = readout_populations(prep, deph_between_bins=rate_mhz * 1e6)
        total = pops.p1 + pops.p2 + pops.p3
        print(f"{rate_mhz:10.2f}  {pops.p1:10.6f}  {pops.p2:10.6f}  "
              f"{pops.p3:10.6f}  {total:10.6f}")


if __name__ == "__main__":
    main()
