#!/usr/bin/env python3
"""Print a Ramsey fringe scan and its extracted visibility.

Runs the analytic and unitary backends over the same detuning grid and
compares the extracted visibility against the closed-form law.
"""

import argparse
import math

from seqlab.ramsey import (
    Backend,
    RamseyScanConfig,
    extract_visibility,
    fringe_scan,
    ramsey_visibility,
    symmetric_detuning_grid,
)
from seqlab.units import mhz, to_mhz


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-mu1-ns", type=float, default=100.0)
    ap.add_argument("--t-mu2-ns", type=float, default=250.0)
    ap.add_argument("--area-pi", type=float, default=1.0,
                    help="intermediate mu2 pulse area in units of pi")
    ap.add_argument("--span-mhz", type=float, default=10.0)
    ap.add_argument("--points", type=int, default=41)
    args = ap.parse_args()

    t1 = args.t_mu1_ns * 1e-9
    t2 = args.t_mu2_ns * 1e-9
    omega = args.area_pi * math.pi / t2 if t2 > 0 else 0.0
    grid = symmetric_detuning_grid(mhz(args.span_mhz), args.points)

    print(f"# t_mu1={args.t_mu1_ns} ns  t_mu2={args.t_mu2_ns} ns  "
          f"area={args.area_pi} pi")
    print(f"{'delta/2pi (MHz)':>16}  {'analytic':>12}  {'unitary':>12}")
    configs, scans = {}, {}
    for backend in (Backend.ANALYTIC, Backend.UNITARY):
        configs[backend] = RamseyScanConfig(
            t_mu1=t1, deltas=grid, omega_mu2=omega, t_mu2=t2, backend=backend
        )
        scans[backend] = fringe_scan(configs[backend])
    for i, d in enumerate(grid):
        print(f"{to_mhz(d):16.4f}  {scans[Backend.ANALYTIC][i]:12.8f}"
              f"  {scans[Backend.UNITARY][i]:12.8f}")

    law = ramsey_visibility(omega, t2)
    for backend, scan in scans.items():
        v = extract_visibility(configs[backend], scan)
        print(f"# visibility[{backend.value}] = {v:.12f}  "
              f"(law {law:.12f}, err {v - law:+.2e})")


if __name__ == "__main__":
    main()
