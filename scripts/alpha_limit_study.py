#!/usr/bin/env python3
"""Second-order limit study: sweep alpha -> 2 for every kernel family.

For the Gaussian reference bump, runs the alpha-sweep of each scaled
operator family and tabulates the operator values, the Richardson
extrapolation, and the second-order reference it should converge to.
Also prints the anisotropic constants C_{n,p} with their norm-equivalence
brackets.  Writes one plot-ready CSV per family under --output.
"""

import argparse
from pathlib import Path

import numpy as np

from jumpkernel import alpha_limit as al
from jumpkernel.fields import gaussian_bump
from jumpkernel.kernels import ANISOTROPIC_P, EXPONENTIAL, MATRIX_TRANSFORMED, KernelSpec

# The sweep replaces each spec's alpha along the ladder.
FAMILIES = [
    ("exp-n1", KernelSpec(EXPONENTIAL, 1, 1.9)),
    ("exp-n2", KernelSpec(EXPONENTIAL, 2, 1.9)),
    ("aniso-p2-n2", KernelSpec(ANISOTROPIC_P, 2, 1.9, p_norm=2.0)),
    ("aniso-p4-n2", KernelSpec(ANISOTROPIC_P, 2, 1.9, p_norm=4.0)),
    ("matrix-diag12-n2", KernelSpec(MATRIX_TRANSFORMED, 2, 1.9, lambda_diag=(1.0, 2.0))),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="out/alpha_study")
    parser.add_argument(
        "--alphas", type=float, nargs="+",
        default=[1.5, 1.7, 1.8, 1.9, 1.95, 1.99],
    )
    args = parser.parse_args()
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'family':<18} {'extrapolated':>14} {'reference':>12} {'rel err':>10}")
    for name, kernel in FAMILIES:
        u = gaussian_bump(kernel.dim)
        rep = al.sweep_alpha(u, kernel, np.zeros(kernel.dim), args.alphas)
        flag = "  [fit disagreement]" if rep.flagged else ""
        print(f"{name:<18} {rep.extrapolated_limit:>14.8f} "
              f"{rep.reference:>12.8f} {rep.rel_error:>10.2e}{flag}")
        with open(outdir / f"{name}.csv", "w") as fh:
            fh.write("alpha,value\n")
            for a, v in zip(rep.alpha_list, rep.values):
                fh.write("%.17g,%.17g\n" % (a, v))

    print("\nanisotropic constants")
    print(f"{'(n,p)':<10} {'C_np':>12} {'bracket':>28}")
    for n, p in [(1, 2.0), (2, 1.0), (2, 1.5), (2, 2.0), (2, 4.0)]:
        c = al.anisotropic_constant(n, p)
        lo, hi = al.norm_equivalence_bracket(n, p)
        inside = "ok" if lo - 1e-9 <= c <= hi + 1e-9 else "OUTSIDE"
        print(f"({n},{p:<4}) {c:>14.8f}   [{lo:.6f}, {hi:.6f}]  {inside}")

    print("\nomega_n calibration (Gaussian-damped prefactor 4n/omega_n)")
    for n in (1, 2):
        print(f"  n={n}: omega_n = {al.calibrate_omega_n(n):.10f}")


if __name__ == "__main__":
    main()
