import math

import numpy as np
import pytest

import oracles
from jumpkernel.errors import DomainError, NonConvergenceError, ValidationError
from jumpkernel.fields import (
    analytic_field,
    compact_bump,
    gaussian_bump,
    grid_field,
    linear_combination,
    sample_to_grid,
)
from jumpkernel.kernels import (
    ANISOTROPIC_P,
    EXPONENTIAL,
    POWER_LAW,
    KernelSpec,
    outer_mass,
)
from jumpkernel.nonlinearity import G_POWER, NonlinearitySpec
from jumpkernel.quadrature import (
    EvalResult,
    QuadratureConfig,
    default_config,
    eval_FGK,
    eval_LK,
    laplacian,
    tail_bound,
)
from jumpkernel.quadrules import tensor_gauss_cell

# L_K of the unit Gaussian at its peak, K = (2-a)|y|^(-n-a):
#   (2-a) sigma_{n-1} Gamma(1-a/2) / a
# These same numbers pin the brute-force oracle before it referees anything.
GAUSS_PEAK = {
    (1, 0.5): 7.352500214791068,
    (1, 1.0): 3.5449077018110318,   # 2 sqrt(pi)
    (1, 1.5): 2.417073272147939,
    (2, 1.0): 11.136655993663414,
    (2, 1.5): 7.593459634968208,
}


def test_config_validation():
    with pytest.raises(ValidationError):
        QuadratureConfig(eps_inner=0.0)
    with pytest.raises(ValidationError):
        QuadratureConfig(eps_inner=60.0, r_outer=50.0)
    with pytest.raises(ValidationError):
        QuadratureConfig(rel_tol=0.5)
    with pytest.raises(ValidationError):
        QuadratureConfig(max_depth=0)


def test_eval_result_validation():
    with pytest.raises(ValidationError):
        EvalResult(1.0, -1e-3, 0.0, 0.0)
    with pytest.raises(ValidationError):
        EvalResult(1.0, 0.0, -1.0, 0.0)


def test_default_config_scales_eps_with_grid():
    u = grid_field(np.zeros((9, 9)), origin=[-1.0, -1.0], h=0.25)
    assert default_config(u).eps_inner == pytest.approx(1.0)
    assert default_config(gaussian_bump(1)).eps_inner == pytest.approx(1e-3)


def test_gaussian_peak_closed_forms():
    for (n, a), exact in GAUSS_PEAK.items():
        sigma = 2.0 if n == 1 else 2.0 * math.pi
        assert exact == pytest.approx((2.0 - a) * sigma * math.gamma(1.0 - a / 2.0) / a, rel=1e-14)
        u = gaussian_bump(n)
        res = eval_LK(u, KernelSpec(POWER_LAW, n, a), np.zeros(n))
        assert abs(res.value - exact) <= 3.0 * res.err_estimate + 1e-9 * abs(exact)


def test_oracle_agrees_with_closed_forms():
    # the oracle must stand on its own two feet before acceptance uses it
    for (n, a), exact in GAUSS_PEAK.items():
        if a < 0.5:
            continue
        val, settle = oracles.oracle_LK(gaussian_bump(n), KernelSpec(POWER_LAW, n, a), np.zeros(n))
        assert abs(val - exact) <= 5e-8 * max(1.0, abs(exact)), (n, a)


def test_odd_bounded_field_evaluates_to_zero_at_origin():
    def odd(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return pts[..., 0] / (1.0 + r2 ** 2)

    u = analytic_field(1, odd, sup_bound=1.0, far_value=0.0,
                       tail_deviation=lambda R: 1.0 / (1.0 + R ** 4) * R)
    res = eval_LK(u, KernelSpec(POWER_LAW, 1, 1.0), np.array([0.0]))
    assert abs(res.value) <= max(res.err_estimate, 1e-9)


def test_positive_at_strict_interior_maximum():
    u = compact_bump(2, center=[0.1, 0.0], radius=0.6, depth=1.0)
    for spec in (KernelSpec(POWER_LAW, 2, 1.0), KernelSpec(EXPONENTIAL, 2, 0.7)):
        res = eval_LK(u, spec, np.array([0.1, 0.0]))
        assert res.value > res.err_estimate > 0.0


def test_sign_flips_with_field():
    u = gaussian_bump(1)
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    up = eval_LK(u, spec, np.zeros(1))
    down = eval_LK(linear_combination([u], [-1.0]), spec, np.zeros(1))
    assert down.value == pytest.approx(-up.value, rel=1e-12)


def test_linearity_in_the_field():
    a = gaussian_bump(1, center=[0.0], width=1.0)
    b = gaussian_bump(1, center=[0.5], width=0.8)
    w = linear_combination([a, b], [2.0, -3.0])
    spec = KernelSpec(POWER_LAW, 1, 1.2)
    x = np.array([0.2])
    va = eval_LK(a, spec, x)
    vb = eval_LK(b, spec, x)
    vw = eval_LK(w, spec, x)
    combo = 2.0 * va.value - 3.0 * vb.value
    assert vw.value == pytest.approx(combo, abs=3.0 * (va.err_estimate + vb.err_estimate) + 1e-10)


def test_tail_bound_helper():
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    assert tail_bound(2.0, spec, 3.0) == pytest.approx(4.0 * outer_mass(spec, 3.0)[0], rel=1e-12)


def test_tail_bound_shrinks_with_radius_in_result():
    u = gaussian_bump(1)
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    wide = eval_LK(u, spec, np.zeros(1), QuadratureConfig(r_outer=100.0))
    narrow = eval_LK(u, spec, np.zeros(1), QuadratureConfig(r_outer=10.0))
    assert wide.tail_bound < narrow.tail_bound
    assert wide.value == pytest.approx(narrow.value, abs=3.0 * (wide.err_estimate + narrow.err_estimate))


def test_laplacian_helper():
    u = gaussian_bump(2, width=1.0, amplitude=1.0)
    assert laplacian(u, np.zeros(2)) == pytest.approx(-4.0, rel=1e-12)
    g = sample_to_grid(u, origin=[-1.0, -1.0], h=0.125, shape=(17, 17))
    with pytest.raises(DomainError):
        laplacian(g, np.array([0.99, 0.0]))


def test_grid_eps_floor():
    u = grid_field(np.zeros((17,)), origin=[-1.0], h=0.125)
    with pytest.raises(ValidationError):
        eval_LK(u, KernelSpec(POWER_LAW, 1, 1.0), np.zeros(1), QuadratureConfig(eps_inner=0.1))


def test_grid_boundary_jump_guard():
    vals = np.full((17,), 1.0)  # jumps to the exterior 0 at both faces
    u = grid_field(vals, origin=[-1.0], h=0.125)
    with pytest.raises(DomainError):
        eval_LK(u, KernelSpec(POWER_LAW, 1, 1.0), np.array([0.9]),
                QuadratureConfig(eps_inner=0.25))


def test_dimension_mismatch():
    with pytest.raises(ValidationError):
        eval_LK(gaussian_bump(2), KernelSpec(POWER_LAW, 1, 1.0), np.zeros(1))
    with pytest.raises(ValidationError):
        eval_LK(gaussian_bump(1), KernelSpec(POWER_LAW, 1, 1.0), np.zeros(2))


def test_nonconvergence_at_tiny_depth():
    with pytest.raises(NonConvergenceError) as exc:
        eval_LK(gaussian_bump(1), KernelSpec(POWER_LAW, 1, 1.0), np.zeros(1),
                QuadratureConfig(max_depth=1, rel_tol=1e-9))
    assert exc.value.value == pytest.approx(GAUSS_PEAK[(1, 1.0)], rel=0.1)
    assert exc.value.err_estimate > 0.0


def test_fgk_identity_delegates_to_lk():
    u = gaussian_bump(1)
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    ident = NonlinearitySpec()
    assert eval_FGK(u, ident, spec, np.zeros(1)) == eval_LK(u, spec, np.zeros(1))


def test_fgk_sign_at_extrema():
    # at a strict max every G(u(x) - u(y)) is positive; at a strict min negative
    dip = compact_bump(1, center=[0.0], radius=0.5, depth=-1.0)
    peak = compact_bump(1, center=[0.0], radius=0.5, depth=1.0)
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    for gamma in (0.5, 1.0, 2.0):
        g = NonlinearitySpec(g_kind=G_POWER, gamma=gamma)
        lo = eval_FGK(dip, g, spec, np.zeros(1))
        hi = eval_FGK(peak, g, spec, np.zeros(1))
        assert lo.value < -lo.err_estimate
        assert hi.value > hi.err_estimate
        assert hi.value == pytest.approx(-lo.value, rel=1e-9)


def test_fgk_homogeneity():
    # G(t) = |t|^g t is (1+g)-homogeneous, so F(c u) = c^(1+g) F(u)
    u = gaussian_bump(1, width=0.9)
    u3 = linear_combination([u], [3.0])
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    g = NonlinearitySpec(g_kind=G_POWER, gamma=1.0)
    base = eval_FGK(u, g, spec, np.array([0.3]))
    scaled = eval_FGK(u3, g, spec, np.array([0.3]))
    assert scaled.value == pytest.approx(9.0 * base.value, rel=1e-7)


def test_fgk_gamma_integrability_guard():
    u = gaussian_bump(1)
    g = NonlinearitySpec(g_kind=G_POWER, gamma=0.0)
    # gamma = 0 delegates; a tiny positive gamma with alpha near 2 must refuse
    bad = NonlinearitySpec(g_kind=G_POWER, gamma=0.01)
    with pytest.raises(ValidationError):
        eval_FGK(u, bad, KernelSpec(POWER_LAW, 1, 1.99), np.zeros(1))


def test_err_and_tail_fields_nonnegative_across_random_cases():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        a = float(rng.uniform(0.3, 1.7))
        u = gaussian_bump(
            n,
            center=rng.uniform(-0.5, 0.5, size=n),
            width=float(rng.uniform(0.5, 1.5)),
            amplitude=float(rng.uniform(0.5, 2.0)),
        )
        res = eval_LK(u, KernelSpec(POWER_LAW, n, a), rng.uniform(-0.3, 0.3, size=n))
        assert math.isfinite(res.value)
        assert res.err_estimate >= 0.0
        assert res.tail_bound >= 0.0
        assert abs(res.inner_contribution) < abs(res.value) + res.err_estimate + res.tail_bound + 1.0


@pytest.mark.parametrize("lo,hi", [([-0.3], [0.2]), ([0.0, -0.125], [0.125, 0.0])])
@pytest.mark.parametrize("order", [4, 8, 12])
def test_tensor_gauss_cell_batch_rows_equal_scalar_calls(lo, hi, order):
    # a (2, 3) batch of integrands sharing the nodes: every row is the
    # scalar integral of that row's integrand, bit for bit
    shifts = np.array([[0.5, 1.25, 3.0], [-2.0, 7.5, 0.1]])

    def one(pts, s):
        r2 = np.sum((pts - s) ** 2, axis=-1)
        return np.exp(-r2) * (1.0 + r2) ** -0.75

    def batch(pts):
        return np.stack([np.stack([one(pts, s) for s in row]) for row in shifts])

    values, errs = tensor_gauss_cell(batch, lo, hi, order=order)
    assert values.shape == errs.shape == shifts.shape
    for idx in np.ndindex(shifts.shape):
        v, e = tensor_gauss_cell(lambda pts: one(pts, shifts[idx]), lo, hi, order=order)
        assert type(v) is float and type(e) is float
        assert values[idx] == v and errs[idx] == e
