#!/usr/bin/env python3
"""Grid-refinement study for the Dirichlet ball solve.

Solves L_K u = 1 on the unit interval ball for a ladder of grids and
reports the sup-norm disagreement of each level against the finest level
(nodal comparison on the coarse lattice).  The error is dominated by the
boundary layer where the solution is only Hölder continuous, so expect
first-order-ish decay, not the interior second-order rate.

It then solves the 2-D nonlinear problem F_{G,K} u = 1 in the unit disc
(PowerLaw alpha, G(t) = |t|^0.5 t) on grid_n 17, 33 and 65 and prints the
peak of each solution, its Newton steps and its time.  Every step is one
pass of F_{G,K} over the interior nodes by the cell rule; grid_n=65 takes
about three minutes and 0.4 GB.
"""

import argparse
import time

import numpy as np

from jumpkernel.kernels import KernelSpec, POWER_LAW
from jumpkernel.nonlinearity import NonlinearitySpec, F_CONSTANT, G_POWER
from jumpkernel.solver import DomainSpec, solve_dirichlet, solve_dirichlet_nonlinear

NONLINEAR_2D_GRIDS = (17, 33, 65)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--grids", type=int, nargs="+",
                        default=[33, 65, 129, 257])
    parser.add_argument("--reference", type=int, default=1025)
    args = parser.parse_args()

    spec = KernelSpec(kind=POWER_LAW, dim=1, alpha=args.alpha)
    source = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=1.0)

    t0 = time.time()
    ref_dom = DomainSpec(dim=1, grid_n=args.reference)
    u_ref, rep = solve_dirichlet(spec, source, ref_dom, solve_tol=1e-12)
    print(f"reference grid_n={args.reference}: "
          f"residual {rep.final_residual_sup:.2e}, {time.time() - t0:.1f}s")

    print(f"{'grid_n':>7} {'h':>10} {'sup diff':>12} {'rel sup':>10} {'secs':>7}")
    ref_sup = float(np.max(np.abs(u_ref.grid.values)))
    for n in args.grids:
        t0 = time.time()
        dom = DomainSpec(dim=1, grid_n=n)
        u, rep = solve_dirichlet(spec, source, dom, solve_tol=1e-12)
        xs = dom.lattice_axes()[0].reshape(-1, 1)
        diff = float(np.max(np.abs(u.value(xs) - u_ref.value(xs))))
        print(f"{n:>7} {dom.h:>10.5f} {diff:>12.3e} "
              f"{diff / ref_sup:>10.2%} {time.time() - t0:>7.1f}")

    print(f"\n2-D F_(G,K) u = 1, gamma = 0.5, alpha = {args.alpha}")
    print(f"{'grid_n':>7} {'max u':>10} {'steps':>6} {'secs':>7}")
    spec2 = KernelSpec(kind=POWER_LAW, dim=2, alpha=args.alpha)
    g = NonlinearitySpec(g_kind=G_POWER, gamma=0.5, f_kind=F_CONSTANT, f_offset=1.0)
    for n in NONLINEAR_2D_GRIDS:
        t0 = time.time()
        u, rep = solve_dirichlet_nonlinear(g, spec2, DomainSpec(dim=2, grid_n=n), solve_tol=1e-6)
        print(f"{n:>7} {float(np.max(u.grid.values)):>10.6f} {rep.iterations:>6} "
              f"{time.time() - t0:>7.1f}")


if __name__ == "__main__":
    main()
