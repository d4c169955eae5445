#!/usr/bin/env python3
"""Visibility versus intermediate-pulse area, scan-extracted vs the law.

Each area is one `seqlab ramsey-scan`, whose centre row gives the
visibility.  The backend defaults to analytic; --backend lindblad runs
the master equation (zero rates unless --gamma-deph-2-mhz is given) and
shows the exact propagation staying on the closed-form curve.
"""

import argparse
import math

from _commands import MHZ, centre_visibility, rows, run, visibility_law


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", choices=["analytic", "unitary", "lindblad"],
                    default="analytic")
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--max-area-pi", type=float, default=3.0)
    ap.add_argument("--gamma-deph-2-mhz", type=float, default=0.0,
                    help="R2 dephasing rate (lindblad backend only)")
    args = ap.parse_args()

    omega = 12.5 * MHZ  # the float that scan.omega_mu2 = 12.5MHz reads as
    config = (
        "scan.t_mu1 = 20ns\n"
        "scan.omega_mu2 = 12.5MHz\n"
        "scan.span = 4.0MHz\n"
        "scan.points = 5\n"
        f"scan.backend = {args.backend}\n"
        f"dissipation.gamma_deph_2 = {args.gamma_deph_2_mhz!r}MHz\n"
    )

    print(f"{'area/pi':>8}  {'extracted':>14}  {'law':>14}  {'err':>10}")
    for k in range(args.points):
        theta = args.max_area_pi * math.pi * k / (args.points - 1)
        t2 = theta / omega
        scan = rows(run("ramsey-scan", config + f"scan.t_mu2 = {t2!r}s\n"))
        v = centre_visibility(scan)
        law = visibility_law(omega, t2)
        print(f"{theta / math.pi:8.3f}  {v:14.10f}  {law:14.10f}  "
              f"{v - law:+10.2e}")


if __name__ == "__main__":
    main()
