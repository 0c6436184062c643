import math
from dataclasses import replace

import numpy as np
import oracles
import pytest

from jumpkernel.alpha_limit import (
    AlphaSweepReport,
    anisotropic,
    anisotropic_constant,
    calibrate_omega_n,
    exponential_scaled,
    gamma_prefactor,
    inner_ball_ratio,
    matrix_diag,
    norm_equivalence_bracket,
    sweep_alpha,
)
from jumpkernel.errors import NonConvergenceError, ValidationError
from jumpkernel.fields import analytic_field, gaussian_bump, grid_field
from jumpkernel.quadrature import QuadratureConfig
from jumpkernel.quadrules import sphere_surface


def test_gamma_prefactor_values():
    # 1/Gamma((2-a)/2)
    assert gamma_prefactor(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    assert gamma_prefactor(1.99) == pytest.approx(1.0 / math.gamma(0.005), rel=1e-14)
    # vanishes toward alpha = 2 (Gamma blows up), tends to 1 toward alpha = 0
    assert gamma_prefactor(1.999) < 1e-2
    assert gamma_prefactor(1e-6) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValidationError):
        gamma_prefactor(2.0)


def test_omega_calibration_matches_sphere_surface(monkeypatch):
    import jumpkernel.alpha_limit as mod

    assert calibrate_omega_n(1) == sphere_surface(1)
    assert calibrate_omega_n(2) == sphere_surface(2)
    # the sweep discriminates the surface 2 pi from the disk area pi: with
    # the area in the prefactor the limit would be twice -Laplacian = 4
    rep = sweep_alpha(gaussian_bump(2), exponential_scaled(), np.zeros(2))
    assert abs(rep.extrapolated_limit * 2.0 * math.pi / math.pi - 4.0) > 0.5 * 4.0
    with pytest.raises(ValidationError):
        calibrate_omega_n(3)

    # a prefactor that misses the limit by 10% is reported, not returned
    def off_by_ten_percent(u, family, x, *args, **kwargs):
        return replace(rep, extrapolated_limit=1.1 * 4.0)

    monkeypatch.setattr(mod, "sweep_alpha", off_by_ten_percent)
    with pytest.raises(NonConvergenceError) as info:
        calibrate_omega_n(2)
    assert info.value.value == pytest.approx(4.4)
    assert info.value.err_estimate == pytest.approx(0.4)


def test_anisotropic_constant_closed_forms():
    # C_{n,2} = sigma_{n-1}/n; the rest from the l^p-ball second moment
    assert anisotropic_constant(1, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert anisotropic_constant(2, 2.0) == pytest.approx(math.pi, rel=1e-12)
    assert anisotropic_constant(3, 2.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert anisotropic_constant(2, 4.0) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)
    assert anisotropic_constant(2, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert anisotropic_constant(2, 1.5) == pytest.approx(2.4, rel=1e-12)
    assert anisotropic_constant(2, 3.0) == pytest.approx(4.0, rel=1e-12)
    assert anisotropic_constant(3, 4.0) == pytest.approx(
        2.0 * math.sqrt(2.0) * math.pi, rel=1e-12
    )
    with pytest.raises(ValidationError):
        anisotropic_constant(2, 0.5)
    with pytest.raises(ValidationError):
        anisotropic_constant(1.5, 2.0)


def test_anisotropic_constant_matches_sphere_quadrature():
    # the defining sphere integral of ||theta||_p^-(n+2), over n
    for n, p in ((2, 1.2), (2, 7.3), (3, 7.3)):
        ref = oracles.sphere_pnorm_integral(n, p, n + 2) / n
        assert anisotropic_constant(n, p) == pytest.approx(ref, rel=1e-10), (n, p)


def test_anisotropic_constant_inside_equivalence_bracket():
    for n in (1, 2, 3):
        for p in (1.0, 1.5, 2.0, 4.0):
            lo, hi = norm_equivalence_bracket(n, p)
            c = anisotropic_constant(n, p)
            slack = 1e-12 * hi  # n=1 bracket collapses to a point
            assert lo - slack <= c <= hi + slack, (n, p, lo, c, hi)
            assert lo > 0.0


def test_sweep_exponential_reaches_laplacian():
    for n in (1, 2):
        rep = sweep_alpha(gaussian_bump(n), exponential_scaled(), np.zeros(n))
        assert rep.reference == pytest.approx(2.0 * n, rel=1e-12)
        assert rep.rel_error < 1e-4
        assert not rep.flagged
        # values increase toward the limit along the sweep
        assert all(a < b for a, b in zip(rep.values, rep.values[1:]))


def test_sweep_anisotropic_p2_reduces_to_isotropic():
    rep = sweep_alpha(gaussian_bump(2), anisotropic(2.0), np.zeros(2))
    # reference is -C_{2,2} * Laplacian = pi * 4
    assert rep.reference == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert rep.rel_error < 1e-4


def test_sweep_anisotropic_p4():
    rep = sweep_alpha(gaussian_bump(2), anisotropic(4.0), np.zeros(2))
    assert rep.rel_error < 1e-4
    assert not rep.flagged


def test_sweep_matrix_diag_weights_second_derivatives():
    rep = sweep_alpha(gaussian_bump(2), matrix_diag([1.0, 2.0]), np.zeros(2))
    # -(1 * u_11 + 4 * u_22)(0) = 2 + 8
    assert rep.reference == pytest.approx(10.0, rel=1e-12)
    assert rep.rel_error < 1e-4


def test_sweep_harmonic_direction_vanishes():
    # odd coordinate slice: all second derivatives vanish at the origin
    def tanh1(pts):
        pts = np.asarray(pts, dtype=float)
        return np.tanh(pts[..., 0])

    u = analytic_field(1, tanh1, sup_bound=1.0)
    rep = sweep_alpha(u, exponential_scaled(), np.zeros(1))
    assert abs(rep.extrapolated_limit) < 1e-6
    assert rep.reference == pytest.approx(0.0, abs=1e-9)
    assert rep.rel_error is None


def test_sweep_off_center_point():
    x = np.array([0.4])
    rep = sweep_alpha(gaussian_bump(1), exponential_scaled(), x)
    u = gaussian_bump(1)
    assert rep.reference == pytest.approx(-float(np.trace(u.hessian(x))), rel=1e-12)
    assert rep.rel_error < 1e-3


def test_sweep_flags_wide_alpha_ladders():
    # far from the limit the linear and quadratic extrapolants disagree for
    # the p = 4 family, and the extrapolation is visibly off
    rep = sweep_alpha(
        gaussian_bump(2), anisotropic(4.0), np.zeros(2),
        alpha_list=(0.5, 1.0, 1.5, 1.9),
    )
    assert rep.flagged
    assert rep.rel_error > 0.05


def test_sweep_validation():
    u = gaussian_bump(1)
    fam = exponential_scaled()
    with pytest.raises(ValidationError):
        sweep_alpha(u, fam, np.zeros(1), alpha_list=(1.95, 1.9))
    with pytest.raises(ValidationError):
        sweep_alpha(u, fam, np.zeros(1), alpha_list=(1.0, 1.5))  # never reaches 1.9
    with pytest.raises(ValidationError):
        sweep_alpha(u, fam, np.zeros(2))
    g = grid_field(np.zeros((17,)), origin=[-1.0], h=0.125)
    with pytest.raises(ValidationError):
        sweep_alpha(g, fam, np.zeros(1))


def test_report_validation():
    with pytest.raises(ValidationError):
        AlphaSweepReport(
            alpha_list=(1.9, 1.5), values=(1.0, 2.0), extrapolated_limit=2.0,
            reference=2.0, rel_error=0.0, flagged=False, family=exponential_scaled(),
        )


def test_inner_ball_ratio_bracket():
    for n in (1, 2):
        for eps in (0.25, 0.5):
            ratio, err = inner_ball_ratio(gaussian_bump(n), np.zeros(n), eps)
            assert math.exp(-eps * eps) - err <= ratio <= 1.0 + err, (n, eps)
    # frozen spots from the calibrated engine
    r, _ = inner_ball_ratio(gaussian_bump(1), np.zeros(1), 0.25)
    assert r == pytest.approx(0.988613, abs=1e-4)
    r, _ = inner_ball_ratio(gaussian_bump(1), np.zeros(1), 0.5)
    assert r == pytest.approx(0.994250, abs=1e-4)


def test_inner_ball_ratio_rejects_flat_point():
    def tanh1(pts):
        pts = np.asarray(pts, dtype=float)
        return np.tanh(pts[..., 0])

    u = analytic_field(1, tanh1, sup_bound=1.0)
    with pytest.raises(ValidationError):
        inner_ball_ratio(u, np.zeros(1), 0.25)
