#!/usr/bin/env python3
"""Print a Ramsey fringe scan and its extracted visibility.

Runs `seqlab ramsey-scan` on the analytic and unitary backends over the
same detuning grid and compares the visibility read off each scan's
centre row against the closed-form law.
"""

import argparse
import math

from _commands import MHZ, centre_visibility, rows, run, visibility_law


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-mu1-ns", type=float, default=100.0)
    ap.add_argument("--t-mu2-ns", type=float, default=250.0)
    ap.add_argument("--area-pi", type=float, default=1.0,
                    help="intermediate mu2 pulse area in units of pi")
    ap.add_argument("--span-mhz", type=float, default=10.0)
    ap.add_argument("--points", type=int, default=41)
    args = ap.parse_args()

    t2 = float(f"{args.t_mu2_ns!r}e-9")  # the seconds the config reads "<t>ns" as
    omega_mhz = args.area_pi * math.pi / t2 / MHZ if t2 > 0 else 0.0
    config = (
        f"scan.t_mu1 = {args.t_mu1_ns!r}ns\n"
        f"scan.t_mu2 = {args.t_mu2_ns!r}ns\n"
        f"scan.omega_mu2 = {omega_mhz!r}MHz\n"
        f"scan.span = {args.span_mhz!r}MHz\n"
        f"scan.points = {args.points}\n"
    )
    scans = {
        backend: rows(run("ramsey-scan", config, "--backend", backend))
        for backend in ("analytic", "unitary")
    }

    print(f"# t_mu1={args.t_mu1_ns} ns  t_mu2={args.t_mu2_ns} ns  "
          f"area={args.area_pi} pi")
    print(f"{'delta/2pi (MHz)':>16}  {'analytic':>12}  {'unitary':>12}")
    for (d, analytic), (_, unitary) in zip(scans["analytic"], scans["unitary"]):
        print(f"{d / MHZ:16.4f}  {analytic:12.8f}  {unitary:12.8f}")

    law = visibility_law(omega_mhz * MHZ, t2)
    for backend, scan in scans.items():
        v = centre_visibility(scan)
        print(f"# visibility[{backend}] = {v:.12f}  "
              f"(law {law:.12f}, err {v - law:+.2e})")


if __name__ == "__main__":
    main()
