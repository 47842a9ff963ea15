#!/usr/bin/env python3
"""Tabulate cone-deformation energies across the modulus families.

Columns: 1-D reference integral E[phi], conformal energy of the forward
map, inner-distortion integral (equals the inverse map's energy), their
doubled sum (the energy of the glued pair over the double cone), and a
Monte-Carlo cross-check of the inverse energy with its standard error.

Usage:
    python scripts/energy_table.py [--n 2] [--tol 1e-7]
                                   [--samples 200000] [--seed 42]
"""

import argparse
import sys

from bicone.deformations import ConeMap
from bicone.energy import (conformal_energy_H, energy_F_monte_carlo,
                           inner_distortion_integral)
from bicone.moduli import EnergyDivergenceError, ModulusFunction, modulus_energy


def families(n):
    yield ModulusFunction.identity(n=n)
    yield ModulusFunction.power(0.5, n=n)
    for depth in (1, 2, 3):
        yield ModulusFunction.iterlog(depth=depth, alpha=1.0, n=n)
    yield ModulusFunction.iterlog(depth=1, alpha=0.4, n=n)   # divergent row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--tol", type=float, default=1e-7)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    print(f"n={args.n}  quad tol={args.tol:g}  mc samples={args.samples}  "
          f"seed={args.seed}")
    print(f"{'family':>24} {'E[phi]':>12} {'E_forward':>12} "
          f"{'K integral':>12} {'glued total':>12} {'mc inverse':>22}")
    for phi in families(args.n):
        # E[F] is finite for every family, so the inverse columns always print
        m = ConeMap(phi)
        ek = inner_distortion_integral(m, tol=args.tol).value
        mc = energy_F_monte_carlo(m, samples=args.samples, seed=args.seed)
        try:
            e1 = modulus_energy(phi)
            eh = conformal_energy_H(m, tol=args.tol).value
            cols = (f"{e1:12.6f}", f"{eh:12.6f}", f"{ek:12.6f}",
                    f"{2 * (eh + ek):12.6f}")
        except EnergyDivergenceError:
            cols = (f"{'divergent':>12}", f"{'divergent':>12}", f"{ek:12.6f}",
                    f"{'divergent':>12}")
        print(f"{phi.describe():>24} {' '.join(cols)} {mc.value:12.6f} "
              f"+-{mc.error_estimate:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
