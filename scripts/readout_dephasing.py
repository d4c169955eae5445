#!/usr/bin/env python3
"""Three-bin read-out populations versus inter-bin dephasing rate.

Runs `seqlab readout` on sequences/readout_dephasing.seq, which prepares
the even R1/R2 split (pi/2 on mu1, then a 2pi mu2 pulse) and runs the
canonical read-out chain, once per rate; it shows how the later bins
lose signal as the dephasing rate grows while bin 1 stays put.
"""

import argparse
from pathlib import Path

from _commands import rows, run

SEQUENCE = Path(__file__).resolve().parent.parent / "sequences" / "readout_dephasing.seq"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates-mhz", type=float, nargs="+",
                    default=[0.0, 1.0, 2.0, 4.0, 6.5, 10.0],
                    help="inter-bin dephasing rates (plain 1/e rates, MHz)")
    args = ap.parse_args()

    print(f"{'rate (MHz)':>10}  {'P1':>10}  {'P2':>10}  {'P3':>10}  {'sum':>10}")
    for rate_mhz in args.rates_mhz:
        table = run("readout", f"readout.deph = {rate_mhz!r}MHz\n", "--seq", str(SEQUENCE))
        p1, p2, p3 = (p for _, p in rows(table))
        total = p1 + p2 + p3
        print(f"{rate_mhz:10.2f}  {p1:10.6f}  {p2:10.6f}  "
              f"{p3:10.6f}  {total:10.6f}")


if __name__ == "__main__":
    main()
