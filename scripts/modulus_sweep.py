#!/usr/bin/env python3
"""Sweep sampled moduli of continuity for the glued cone deformations.

For each iterated-log family the script tabulates, over a log radius grid,
the sampled optimal modulus at the origin (one ``modulus_profile`` sweep,
so one map call for all radii), the predicted value phi(r), the
composed two-way ratio phi(phi(r))/r, and the sampled linear dilatation.
The last two columns are the quasiconformality story in miniature: the
composed ratio grows without bound while each single map stays as tame as
phi allows.

Usage:
    python scripts/modulus_sweep.py [--n 2] [--count 512] [--seed 0]
                                    [--radii log:1e-10..0.5:12]
"""

import argparse
import sys

import numpy as np

from bicone.cli import parse_radii
from bicone.continuity import linear_dilatation, modulus_profile
from bicone.deformations import GluedMap
from bicone.moduli import ModulusFunction


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--count", type=int, default=512)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--radii", default="log:1e-10..0.5:12")
    args = ap.parse_args(argv)

    radii = parse_radii(args.radii)
    for depth in (1, 2, 3):
        phi = ModulusFunction.iterlog(depth=depth, alpha=1.0, n=args.n)
        g = GluedMap(phi)
        dil = linear_dilatation(g, 0, radii, count=args.count, seed=args.seed)
        sampled = modulus_profile(g, 0, radii, norm="cone", count=args.count,
                                  seed=args.seed)
        print(f"\n== {phi.describe()}  (n={args.n}, count={args.count}, "
              f"seed={args.seed}, dilatation verdict: {dil.verdict})")
        print(f"{'radius':>12} {'sampled':>12} {'phi(r)':>12} "
              f"{'phi(phi(r))/r':>14} {'dilatation':>12}")
        for r, w, ratio in zip(sampled.radii, sampled.values, dil.ratios):
            composed = float(phi(phi(r)) / r)
            print(f"{r:12.4e} {w:12.6e} {float(phi(r)):12.6e} "
                  f"{composed:14.6e} {ratio:12.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
