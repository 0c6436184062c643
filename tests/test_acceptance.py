"""Headline verification suite.

One test per criterion, numbered, so ``pytest -v`` prints a single
pass/fail line for each.  Expensive ball solves are shared module-scoped
fixtures; everything else builds its fixtures inline from fixed seeds.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracles
from jumpkernel.alpha_limit import (
    anisotropic_constant,
    inner_ball_ratio,
    norm_equivalence_bracket,
    sweep_alpha,
)
from jumpkernel.fields import (
    compact_bump,
    gaussian_bump,
    grid_field,
    linear_combination,
)
from jumpkernel.kernels import (
    ANISOTROPIC_P,
    DIAG_QUADRATIC,
    EXPONENTIAL,
    MATRIX_TRANSFORMED,
    POWER_LAW,
    VARIABLE_ORDER,
    KernelSpec,
)
from jumpkernel.moving_planes import (
    PlaneReflection,
    decay_at_infinity_bound,
    narrow_region_bound,
    sweep_lambda,
    verify_radial_symmetry,
)
from jumpkernel.nonlinearity import (
    F_AFFINE_PLUS_POWER,
    F_CONSTANT,
    G_IDENTITY,
    G_POWER,
    NonlinearitySpec,
    mvt_min_ratio,
)
from jumpkernel.quadrature import QuadratureConfig, eval_FGK, eval_LK
from jumpkernel.solver import (
    DomainSpec,
    solve_dirichlet,
    solve_dirichlet_nonlinear,
)

F_ONE = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=1.0)


def interp_budget(u):
    """Radial variation a symmetric monotone grid field may legitimately
    show between nodes whose radii agree within half a cell.  A radius
    interval of length h/2 meets at most two of the length-h steps an axis
    ray takes through the profile, so the bound is twice the largest
    adjacent-node jump (the boundary layer makes this far larger than
    |grad| * h/2 in the interior)."""
    biggest = 0.0
    for ax in range(u.grid.values.ndim):
        biggest = max(biggest, float(np.max(np.abs(np.diff(u.grid.values, axis=ax)))))
    return 2.0 * biggest


def assert_ball_symmetry(u, dom, solve_tol):
    sweep_tol = max(1e-12, 5.0 * solve_tol)
    for axis in range(1, dom.dim + 1):
        mp = sweep_lambda(u, axis, tolerance=sweep_tol)
        assert abs(mp.lambda_o) <= dom.h, (axis, mp.lambda_o)
        assert mp.symmetric_verdict, axis
    budget = 5.0 * solve_tol + interp_budget(u)
    rad = verify_radial_symmetry(u, np.zeros(dom.dim), tolerance=budget)
    assert rad.max_deviation <= budget
    assert rad.monotone_violations == 0


@pytest.fixture(scope="module")
def linear_ball_1d():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=129)
    spec = KernelSpec(kind=POWER_LAW, dim=1, alpha=1.0)
    u, report = solve_dirichlet(spec, F_ONE, dom)
    return dom, u, report


@pytest.fixture(scope="module")
def linear_ball_2d():
    dom = DomainSpec(dim=2, radius=1.0, grid_n=65)
    spec = KernelSpec(kind=POWER_LAW, dim=2, alpha=1.0)
    u, report = solve_dirichlet(spec, F_ONE, dom)
    return dom, u, report


def test_criterion_01_alpha_sweep_reaches_laplacian():
    for n in (1, 2):
        start = time.monotonic()
        rep = sweep_alpha(gaussian_bump(n), KernelSpec(EXPONENTIAL, n, 1.9), np.zeros(n))
        elapsed = time.monotonic() - start
        assert rep.reference == pytest.approx(2.0 * n, rel=1e-12)
        assert rep.rel_error <= 0.02, (n, rep.rel_error)
        assert elapsed <= 60.0, (n, elapsed)


def test_criterion_02_anisotropic_constant_and_sweep():
    assert anisotropic_constant(2, 2.0) == pytest.approx(math.pi, rel=0.01)
    rep = sweep_alpha(gaussian_bump(2), KernelSpec(ANISOTROPIC_P, 2, 1.9, p_norm=4.0),
                      np.zeros(2))
    assert rep.rel_error <= 0.03, rep.rel_error
    lo, hi = norm_equivalence_bracket(2, 4.0)
    c24 = anisotropic_constant(2, 4.0)
    assert lo <= c24 <= hi


def test_criterion_03_inner_ball_ratio_bracket():
    for n in (1, 2):
        for eps in (0.25, 0.5):
            ratio, err = inner_ball_ratio(gaussian_bump(n), np.zeros(n), eps,
                                          alpha=1.99)
            lower = math.exp(-eps * eps)
            assert lower - err <= ratio <= 1.0 + err, (n, eps, ratio, err)


def _axis_minimum(w, d, width, n):
    """Interior minimum of an odd-pair field; it sits on the first axis."""
    def along(t):
        x = np.zeros(n)
        x[0] = t
        return float(w.value(x))

    res = minimize_scalar(along, bounds=(max(0.05, d - width), d + 2.0 * width),
                          method="bounded",
                          options={"xatol": 1e-10})
    x_min = np.zeros(n)
    x_min[0] = float(res.x)
    assert along(res.x) < 0.0
    return x_min


def test_criterion_04_deficit_negative_at_interior_minimum():
    kinds = [
        (POWER_LAW, 0.5, 2.0),
        (POWER_LAW, 1.0, 2.0),
        (POWER_LAW, 1.5, 2.0),
        (EXPONENTIAL, 1.0, 2.0),
        (ANISOTROPIC_P, 1.0, 4.0),
    ]
    rng = np.random.default_rng(42)
    start = time.monotonic()
    for i in range(20):
        n = 1 if i < 10 else 2
        kind, alpha, p = kinds[i % len(kinds)]
        spec = KernelSpec(kind=kind, dim=n, alpha=alpha, p_norm=p)
        d = rng.uniform(0.3, 1.0)
        width = rng.uniform(0.35, 1.2)
        amp = rng.uniform(0.5, 2.0)
        neg_center = np.zeros(n)
        neg_center[0] = d
        pos_center = -neg_center
        w = linear_combination(
            [gaussian_bump(n, center=pos_center, width=width, amplitude=amp),
             gaussian_bump(n, center=neg_center, width=width, amplitude=amp)],
            [1.0, -1.0],
        )
        x_min = _axis_minimum(w, d, width, n)
        res = eval_LK(w, spec, x_min)
        assert res.value < -res.err_estimate, (i, kind, alpha, res)
    assert time.monotonic() - start <= 300.0


def test_criterion_05_narrow_region_slope():
    plane = PlaneReflection(axis=1, lam=0.0)
    x0 = np.zeros(1)
    for alpha in (0.5, 1.0, 1.5):
        spec = KernelSpec(kind=POWER_LAW, dim=1, alpha=alpha)
        rows = narrow_region_bound(spec, x0, plane)
        slope = rows[0][2]
        assert abs(slope + alpha) <= 0.1 * alpha, (alpha, slope)
    spec = KernelSpec(kind=EXPONENTIAL, dim=1, alpha=1.0)
    fine = tuple(2.0 ** -k for k in range(6, 12))
    rows = narrow_region_bound(spec, x0, plane, fine)
    slope = rows[0][2]
    assert abs(slope + 1.0) <= 0.1, slope


def test_criterion_06_decay_at_infinity():
    plane = PlaneReflection(axis=1, lam=0.0)
    for alpha in (0.5, 1.0, 1.5):
        spec = KernelSpec(kind=POWER_LAW, dim=1, alpha=alpha)
        rows = decay_at_infinity_bound(spec, plane, (2.0, 4.0, 8.0, 16.0, 32.0))
        logr = np.log([r for r, _, _ in rows])
        logm = np.log([m for _, m, _ in rows])
        slope = float(np.polyfit(logr, logm, 1)[0])
        assert abs(slope + alpha) <= 0.1 * alpha, (alpha, slope)
    spec = KernelSpec(kind=EXPONENTIAL, dim=1, alpha=1.0)
    rows = decay_at_infinity_bound(spec, plane, (1.0, 1.5, 2.0, 2.5))
    for radius, mass, bound in rows:
        assert mass >= bound * (1.0 - 1e-9), (radius, mass, bound)
    # beyond the anchoring radius the true tail beats the reference clearly
    for radius, mass, bound in rows[1:]:
        assert mass > 2.0 * bound, (radius, mass, bound)


def test_criterion_07_linear_ball_solve_symmetry(linear_ball_1d, linear_ball_2d):
    for dom, u, report in (linear_ball_1d, linear_ball_2d):
        assert report.converged
        assert report.final_residual_sup <= 1e-6
        assert_ball_symmetry(u, dom, solve_tol=1e-10)


def test_criterion_08_nonlinear_ball_solve_symmetry():
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    spec = KernelSpec(kind=POWER_LAW, dim=1, alpha=1.0)
    # f(t) = 1 + |t| t: strictly positive source, increasing on the range
    # of the positive solution
    gspec = NonlinearitySpec(g_kind=G_POWER, gamma=1.0,
                             f_kind=F_AFFINE_PLUS_POWER, s=1.0,
                             f_scale=1.0, f_offset=1.0)
    u, report = solve_dirichlet_nonlinear(gspec, spec, dom,
                                          solve_tol=1e-6, max_iter=60)
    assert report.converged
    assert report.final_residual_sup <= 1e-6
    assert_ball_symmetry(u, dom, solve_tol=1e-6)


def test_criterion_09_fgk_negative_at_minimum():
    g_zoo = [
        NonlinearitySpec(g_kind=G_IDENTITY),
        NonlinearitySpec(g_kind=G_POWER, gamma=0.5),
        NonlinearitySpec(g_kind=G_POWER, gamma=1.0),
        NonlinearitySpec(g_kind=G_POWER, gamma=2.0),
    ]
    rng = np.random.default_rng(7)
    for i in range(20):
        n = 1 if i % 2 == 0 else 2
        spec = KernelSpec(kind=POWER_LAW, dim=n, alpha=1.0)
        c0 = rng.uniform(-0.3, 0.3, size=n)
        r0 = rng.uniform(0.3, 0.5)
        depth = rng.uniform(0.5, 2.0)
        rs = rng.uniform(0.2, 0.4)
        gap = r0 + rs + 0.2
        side = np.zeros(n)
        side[0] = gap
        parts = [
            compact_bump(n, center=c0, radius=r0, depth=-depth),
            compact_bump(n, center=c0 + side, radius=rs,
                         depth=rng.uniform(0.3, 1.0)),
            compact_bump(n, center=c0 - side, radius=rs,
                         depth=rng.uniform(0.3, 1.0)),
        ]
        u = linear_combination(parts, [1.0, 1.0, 1.0])
        assert u.value(c0) == pytest.approx(-depth)
        for gspec in g_zoo:
            # compact-bump edges put square-root kinks in the gamma = 0.5
            # integrand; a sign check does not need 1e-6 refinement
            res = eval_FGK(u, gspec, spec, c0, QuadratureConfig(rel_tol=1e-4))
            assert res.value < 0.0, (i, gspec.g_kind, gspec.gamma, res.value)


def test_criterion_10_mvt_ratio_positive_minimum():
    for gamma in (0.5, 1.0, 2.0):
        ratio = mvt_min_ratio(gamma, 10000, seed=0)
        assert ratio > 0.2, (gamma, ratio)


def test_criterion_11_oracle_agreement():
    # Every kernel kind appears.  The p = 1.5 and variable-order profiles
    # have axis kinks / a branch switch the oracle's trapezoid resolves
    # slowly, so those two run once with an earlier settling tolerance and
    # the oracle's own refinement change is budgeted into the allowance.
    fast = [
        KernelSpec(kind=POWER_LAW, dim=1, alpha=1.0),
        KernelSpec(kind=POWER_LAW, dim=2, alpha=1.5),
        KernelSpec(kind=POWER_LAW, dim=1, alpha=0.5, c_lower=2.0),
        KernelSpec(kind=EXPONENTIAL, dim=1, alpha=1.0),
        KernelSpec(kind=EXPONENTIAL, dim=2, alpha=1.2),
        KernelSpec(kind=ANISOTROPIC_P, dim=2, alpha=1.0, p_norm=4.0),
        KernelSpec(kind=MATRIX_TRANSFORMED, dim=2, alpha=1.2,
                   lambda_diag=(1.0, 2.0)),
        KernelSpec(kind=DIAG_QUADRATIC, dim=2, alpha=0.9,
                   lambda_diag=(0.5, 3.0)),
    ]
    plan = [(spec, 1e-9) for spec in fast] * 2 + [
        (KernelSpec(kind=MATRIX_TRANSFORMED, dim=2, alpha=0.6,
                    lambda_diag=(0.7, 2.0)), 1e-9),
        (KernelSpec(kind=EXPONENTIAL, dim=1, alpha=0.3), 1e-9),
        (KernelSpec(kind=ANISOTROPIC_P, dim=2, alpha=0.7, p_norm=1.5), 3e-7),
        (KernelSpec(kind=VARIABLE_ORDER, dim=2, alpha=0.8, beta_order=1.3),
         3e-7),
    ]
    assert len(plan) == 20
    rng = np.random.default_rng(123)
    for spec, oracle_rtol in plan:
        n = spec.dim
        center = rng.uniform(-0.3, 0.3, size=n)
        width = rng.uniform(0.6, 1.4)
        u = gaussian_bump(n, center=center, width=width,
                          amplitude=rng.uniform(0.5, 2.0))
        x = rng.uniform(-0.4, 0.4, size=n)
        res = eval_LK(u, spec, x)
        ref, ora_err = oracles.oracle_LK(u, spec, x, rel_tol=oracle_rtol)
        allowance = 3.0 * res.err_estimate + ora_err
        assert abs(res.value - ref) <= allowance, \
            (spec.kind, spec.alpha, res.value, ref, res.err_estimate, ora_err)


def test_criterion_12_sweep_recovers_center():
    grid_n = 257
    axis = np.linspace(-2.0, 2.0, grid_n)
    h = axis[1] - axis[0]
    rho = 0.8
    rng = np.random.default_rng(2024)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5)
        r2 = (axis - x0) ** 2
        cut = np.clip(1.0 - r2 / rho ** 2, 0.0, None) ** 3
        values = np.exp(-r2) * cut
        u = grid_field(values, origin=[-2.0], h=h)
        mp = sweep_lambda(u, 1)
        assert abs(mp.lambda_o - x0) <= h, (x0, mp.lambda_o)


def test_criterion_13_matrix_kernel_smoke():
    rep = sweep_alpha(gaussian_bump(2),
                      KernelSpec(MATRIX_TRANSFORMED, 2, 1.9, lambda_diag=(1.0, 2.0)),
                      np.zeros(2))
    assert rep.reference == pytest.approx(10.0, rel=1e-12)
    assert rep.rel_error <= 0.05, rep.rel_error
