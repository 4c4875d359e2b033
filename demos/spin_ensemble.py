#!/usr/bin/env python3
"""Spin-1/2 ensemble walk-through.

An ensemble prepared with proportion p1 spin-up and p2 = 1 - p1 spin-down
is the diagonal mixed state diag(p1, p2).  For p1 = 0.75 and 0.5 this
script runs ``phasegeo demo spin``, which builds the lift, evaluates the
Hamiltonian fields of the spin components, classifies them as horizontal
or vertical, reports the geometric uncertainty bound for (Sx, Sy) beside
the Robertson-Schrodinger baseline, and checks every value against its
closed form.  It exits non-zero when that check fails.  It then tabulates
the two bounds as p1 varies.
"""

import sys

import numpy as np

from phasegeo import DensityOperator, analyze_pair, spin_half
from phasegeo.cli import main as phasegeo

HBAR = 1.0


def section(title):
    print()
    print("=" * 64)
    print(f"  {title}")
    print("=" * 64)


def bound_table():
    section("geometric bound for (Sx, Sy) as the mixture varies")
    sx, sy, _ = spin_half(HBAR)
    print(f"{'p1':>6} {'product':>10} {'geometric':>11} {'rs':>10} {'slack':>10}")
    for p1 in (0.5, 0.55, 0.65, 0.75, 0.9, 0.99, 0.999):
        rho = DensityOperator(np.diag([p1, 1.0 - p1]).astype(complex))
        rep = analyze_pair(sx, sy, rho, HBAR)
        print(
            f"{p1:>6.3f} {rep.product:>10.6f} {rep.geometric_bound:>11.6f} "
            f"{rep.rs_bound:>10.6f} {rep.slack_geometric:>10.6f}"
        )
    print("\nThe bound (hbar^2/4)(p1 - p2) vanishes at the maximally mixed point,")
    print("where both spin fields turn vertical, and approaches the pure-state")
    print("value hbar^2/4 as the ensemble polarizes.")


def main():
    for p1 in ("0.75", "0.5"):
        section(f"ensemble with p1 = {p1}")
        code = phasegeo(["demo", "spin", "--p1", p1, "--hbar", repr(HBAR)])
        if code:
            return code
    bound_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
