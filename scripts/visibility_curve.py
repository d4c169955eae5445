#!/usr/bin/env python3
"""Visibility versus intermediate-pulse area, scan-extracted vs the law.

The backend defaults to analytic; --backend lindblad runs the master
equation (zero rates unless --gamma-deph-2-mhz is given) and shows the
exact propagation staying on the closed-form curve.
"""

import argparse
import math

from seqlab.dissipative import DissipationParams
from seqlab.ramsey import (
    Backend,
    RamseyScanConfig,
    extract_visibility,
    fringe_scan,
    ramsey_visibility,
    symmetric_detuning_grid,
)
from seqlab.units import mhz


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", choices=[b.value for b in Backend],
                    default="analytic")
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--max-area-pi", type=float, default=3.0)
    ap.add_argument("--gamma-deph-2-mhz", type=float, default=0.0,
                    help="R2 dephasing rate (lindblad backend only)")
    args = ap.parse_args()

    t1 = 20e-9
    omega = mhz(12.5)
    grid = symmetric_detuning_grid(mhz(4.0), 5)
    backend = Backend(args.backend)
    dissipation = DissipationParams(
        gamma_deph=(0.0, args.gamma_deph_2_mhz * 1e6, 0.0)
    )

    print(f"{'area/pi':>8}  {'extracted':>14}  {'law':>14}  {'err':>10}")
    for k in range(args.points):
        theta = args.max_area_pi * math.pi * k / (args.points - 1)
        t2 = theta / omega
        cfg = RamseyScanConfig(
            t_mu1=t1, deltas=grid, omega_mu2=omega, t_mu2=t2,
            backend=backend, dissipation=dissipation,
        )
        v = extract_visibility(cfg, fringe_scan(cfg))
        law = ramsey_visibility(omega, t2)
        print(f"{theta / math.pi:8.3f}  {v:14.10f}  {law:14.10f}  "
              f"{v - law:+10.2e}")


if __name__ == "__main__":
    main()
