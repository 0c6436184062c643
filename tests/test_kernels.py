import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from jumpkernel.errors import DomainError, ValidationError
from jumpkernel.kernels import (
    ANISOTROPIC_P,
    DIAG_QUADRATIC,
    EXPONENTIAL,
    MATRIX_TRANSFORMED,
    POWER_LAW,
    VARIABLE_ORDER,
    ConditionReport,
    KernelSpec,
    angular_mass,
    check_axis_monotonicity,
    check_K1,
    check_levy_khintchine,
    check_monotone_K2,
    eval_kernel,
    halfspace_mass,
    kernel_from_dict,
    kernel_to_dict,
    outer_mass,
    radial_profile,
    reflect_point,
    reflected_kernel_difference,
    singular_exponent,
)

ZOO = (
    KernelSpec(POWER_LAW, 2, 1.0),
    KernelSpec(POWER_LAW, 1, 0.5, c_lower=2.0),
    KernelSpec(EXPONENTIAL, 2, 1.5),
    KernelSpec(ANISOTROPIC_P, 2, 1.0, p_norm=4.0),
    KernelSpec(ANISOTROPIC_P, 2, 0.7, p_norm=1.0),
    KernelSpec(MATRIX_TRANSFORMED, 2, 1.2, lambda_diag=(1.0, 2.0)),
    KernelSpec(DIAG_QUADRATIC, 2, 0.9, lambda_diag=(0.5, 3.0)),
    KernelSpec(VARIABLE_ORDER, 2, 0.8, beta_order=1.3),
)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        KernelSpec(POWER_LAW, 1, 2.5)
    with pytest.raises(ValidationError):
        KernelSpec(POWER_LAW, 1, 0.0)
    with pytest.raises(ValidationError):
        KernelSpec("Cauchy", 1, 1.0)
    with pytest.raises(ValidationError):
        KernelSpec(POWER_LAW, 1, 1.0, c_lower=-1.0)
    with pytest.raises(ValidationError):
        KernelSpec(ANISOTROPIC_P, 2, 1.0, p_norm=0.5)
    with pytest.raises(ValidationError):
        KernelSpec(MATRIX_TRANSFORMED, 2, 1.0, lambda_diag=(1.0,))
    with pytest.raises(ValidationError):
        KernelSpec(MATRIX_TRANSFORMED, 2, 1.0, lambda_diag=(2.0, 1.0))
    with pytest.raises(ValidationError):
        KernelSpec(DIAG_QUADRATIC, 2, 1.0, lambda_diag=(0.0, 1.0))
    with pytest.raises(ValidationError):
        KernelSpec(VARIABLE_ORDER, 1, 1.0)
    with pytest.raises(ValidationError):
        KernelSpec(VARIABLE_ORDER, 1, 1.5, beta_order=1.2)
    with pytest.raises(ValidationError, match="dim must be 1 or 2"):
        KernelSpec(POWER_LAW, 3, 1.0)


def test_spec_is_frozen_and_hashable():
    spec = KernelSpec(POWER_LAW, 2, 1.0)
    assert hash(spec) == hash(KernelSpec(POWER_LAW, 2, 1.0))
    with pytest.raises(Exception):
        spec.alpha = 1.5


def test_singular_exponent():
    assert singular_exponent(KernelSpec(POWER_LAW, 1, 0.7)) == 0.7
    assert singular_exponent(KernelSpec(VARIABLE_ORDER, 1, 0.7, beta_order=1.4)) == 1.4


def test_power_law_pointwise_values():
    spec = KernelSpec(POWER_LAW, 1, 1.0, c_lower=1.0)
    # (2 - alpha) * c * |y|^(-1-alpha)
    np.testing.assert_allclose(eval_kernel(spec, [[2.0]]), [0.25])
    np.testing.assert_allclose(eval_kernel(spec, [[-2.0]]), [0.25])
    spec2 = KernelSpec(POWER_LAW, 2, 0.5, c_lower=3.0)
    r = 1.7
    expect = 1.5 * 3.0 * r ** (-2.5)
    np.testing.assert_allclose(eval_kernel(spec2, [[r, 0.0]]), [expect])


def test_matrix_transformed_probe_values():
    # K(y) = (2-a)/det(L) * |L^-1 y|^(-n-a) with L = diag(1, 2)
    spec = KernelSpec(MATRIX_TRANSFORMED, 2, 1.0, lambda_diag=(1.0, 2.0))
    np.testing.assert_allclose(eval_kernel(spec, [[1.0, 0.0]]), [0.5])
    np.testing.assert_allclose(eval_kernel(spec, [[0.0, 1.0]]), [4.0])


def test_diag_quadratic_probe_values():
    spec = KernelSpec(DIAG_QUADRATIC, 2, 1.0, lambda_diag=(1.0, 2.0))
    np.testing.assert_allclose(eval_kernel(spec, [[1.0, 0.0]]), [1.0])
    np.testing.assert_allclose(eval_kernel(spec, [[0.0, 1.0]]), [2.0])


def test_variable_order_switches_branch_at_one():
    spec = KernelSpec(VARIABLE_ORDER, 1, 0.5, beta_order=1.5)
    # inside: r^(-1-beta); outside: r^(-1-alpha)
    np.testing.assert_allclose(eval_kernel(spec, [[0.5]]), [0.5 ** -2.5])
    np.testing.assert_allclose(eval_kernel(spec, [[4.0]]), [4.0 ** -1.5])
    # continuous across r = 1
    lo = float(eval_kernel(spec, [[1.0 - 1e-9]])[0])
    hi = float(eval_kernel(spec, [[1.0 + 1e-9]])[0])
    np.testing.assert_allclose(lo, hi, rtol=1e-7)


def test_kernel_rejects_origin():
    with pytest.raises(DomainError):
        eval_kernel(KernelSpec(POWER_LAW, 2, 1.0), [[0.0, 0.0]])


def test_radial_profile_is_bounded_near_zero():
    for spec in ZOO:
        r = np.array([1e-12, 1e-6, 1e-3])
        theta = np.zeros((3, spec.dim))
        theta[:, 0] = 1.0
        kappa = radial_profile(spec, r, theta)
        assert np.all(np.isfinite(kappa))
        assert np.all(kappa > 0.0)


def test_evenness_and_positivity_at_many_random_points():
    rng = np.random.default_rng(7)
    for spec in ZOO:
        pts = rng.uniform(-3.0, 3.0, size=(10000, spec.dim))
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
        k_plus = eval_kernel(spec, pts)
        k_minus = eval_kernel(spec, -pts)
        assert np.array_equal(k_plus, k_minus), spec.kind
        assert np.all(k_plus > 0.0), spec.kind


@settings(max_examples=50, deadline=None)
@given(
    y1=st.floats(-5.0, 5.0),
    y2=st.floats(-5.0, 5.0),
    alpha=st.floats(0.1, 1.9),
)
def test_evenness_property(y1, y2, alpha):
    y = np.array([[y1, y2]])
    if np.linalg.norm(y) < 1e-6:
        return
    spec = KernelSpec(ANISOTROPIC_P, 2, alpha, p_norm=3.0)
    k = float(eval_kernel(spec, y)[0])
    assert k == float(eval_kernel(spec, -y)[0])
    assert k > 0.0


def test_angular_mass_power_law_closed_form():
    val, err = angular_mass(KernelSpec(POWER_LAW, 2, 1.0))
    np.testing.assert_allclose(val, 2.0 * math.pi, rtol=1e-12)
    assert err == 0.0
    val1, _ = angular_mass(KernelSpec(POWER_LAW, 1, 0.5, c_lower=2.0))
    np.testing.assert_allclose(val1, 1.5 * 2.0 * 2.0, rtol=1e-12)


def test_angular_mass_diag_quadratic_uses_sphere_average():
    spec = KernelSpec(DIAG_QUADRATIC, 2, 1.0, lambda_diag=(1.0, 3.0))
    val, _ = angular_mass(spec)
    np.testing.assert_allclose(val, (2.0 - 1.0) * 4.0 / 2.0 * 2.0 * math.pi, rtol=1e-12)


def test_angular_mass_rejects_exponential():
    with pytest.raises(ValidationError):
        angular_mass(KernelSpec(EXPONENTIAL, 2, 1.0))


def test_outer_mass_power_law_closed_form():
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    val, err = outer_mass(spec, 2.0)
    # 2 * integral_2^inf (2-a) r^-2 dr = 2 * 1/2 = 1
    np.testing.assert_allclose(val, 1.0, rtol=1e-12)
    assert err == 0.0


def test_outer_mass_decreases_with_radius():
    for spec in ZOO:
        vals = [outer_mass(spec, R)[0] for R in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:])), spec.kind


def test_outer_mass_exponential_against_quadrature():
    spec = KernelSpec(EXPONENTIAL, 1, 1.0)
    val, _ = outer_mass(spec, 0.7)
    rr = np.linspace(0.7, 12.0, 400001)
    integrand = 2.0 * np.exp(-rr ** 2) / math.gamma(0.5) * rr ** -2.0
    np.testing.assert_allclose(val, np.trapezoid(integrand, rr), rtol=1e-6)


def test_outer_mass_variable_order_against_quadrature():
    # 2 * integral_R^inf K(r) dr, with the kink of the radial law at r = 1
    for alpha, beta in ((0.5, 1.5), (1.0, 1.0)):
        spec = KernelSpec(VARIABLE_ORDER, 1, alpha, beta_order=beta)

        def k(r):
            return float(eval_kernel(spec, np.array([[r]]))[0])

        for radius in (0.3, 0.999, 2.0):
            ref = 2.0 * sum(
                quad(k, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
                for lo, hi in ((radius, max(radius, 1.0)), (max(radius, 1.0), np.inf))
            )
            np.testing.assert_allclose(outer_mass(spec, radius)[0], ref, rtol=1e-9)
            np.testing.assert_allclose(
                halfspace_mass(spec, radius)[0], 0.5 * ref, rtol=1e-9
            )


def test_halfspace_mass_is_half_outer_mass_in_1d():
    spec = KernelSpec(POWER_LAW, 1, 0.5)
    np.testing.assert_allclose(
        halfspace_mass(spec, 1.3)[0], 0.5 * outer_mass(spec, 1.3)[0], rtol=1e-14
    )


def test_halfspace_mass_power_scaling():
    spec = KernelSpec(POWER_LAW, 2, 1.2)
    m1 = halfspace_mass(spec, 0.4)[0]
    m2 = halfspace_mass(spec, 0.8)[0]
    np.testing.assert_allclose(m1 / m2, 2.0 ** 1.2, rtol=1e-9)


def test_halfspace_mass_smaller_than_outer_mass():
    for spec in ZOO:
        m, _ = halfspace_mass(spec, 0.9)
        o, _ = outer_mass(spec, 0.9)
        assert 0.0 < m < o, spec.kind


def test_halfspace_mass_axis_symmetry_for_isotropic():
    spec = KernelSpec(POWER_LAW, 2, 1.0)
    np.testing.assert_allclose(
        halfspace_mass(spec, 0.6, axis=1)[0],
        halfspace_mass(spec, 0.6, axis=2)[0],
        rtol=1e-9,
    )


def test_reflect_point_involution():
    x = np.array([0.3, -0.7])
    y = reflect_point(x, 0.25, axis=2)
    np.testing.assert_allclose(y, [0.3, 1.2])
    np.testing.assert_allclose(reflect_point(y, 0.25, axis=2), x)


def test_reflected_kernel_difference_sign():
    # x, y on the same side of the plane: reflecting y moves it farther away
    # in the axis coordinate, so monotone kernels see a positive difference.
    lam = 0.0
    rng = np.random.default_rng(3)
    for spec in ZOO:
        for _ in range(50):
            x = rng.uniform(-2.0, -0.01, size=spec.dim)
            y = rng.uniform(-2.0, -0.01, size=spec.dim)
            if np.allclose(x, y):
                continue
            d = reflected_kernel_difference(spec, x, y, lam, axis=1)
            assert d > 0.0, (spec.kind, x, y)


def test_levy_khintchine_holds_for_zoo():
    for spec in ZOO:
        rep = check_levy_khintchine(spec)
        assert rep.holds, spec.kind
        assert rep.witness is None
        assert rep.estimate > 0.0


def test_K1_recovers_power_law_constant():
    rep = check_K1(KernelSpec(POWER_LAW, 1, 1.0, c_lower=2.5))
    assert rep.holds
    np.testing.assert_allclose(rep.estimate, 2.5, rtol=1e-12)


def test_K1_fails_for_exponential_with_large_radius_witness():
    rep = check_K1(KernelSpec(EXPONENTIAL, 1, 1.0))
    assert not rep.holds
    assert rep.witness is not None
    assert abs(rep.witness[0]) > 10.0


def test_monotone_K2_holds_where_expected():
    for spec in ZOO:
        if spec.kind == DIAG_QUADRATIC:
            continue
        for axis in range(1, spec.dim + 1):
            rep = check_monotone_K2(spec, axis=axis)
            assert rep.holds, (spec.kind, axis)


def test_monotone_K2_diag_quadratic_fails_on_heavy_axis():
    # K = (lam1 y1^2 + lam2 y2^2) |y|^(-n-a-2) grows along the heavy axis
    # close to the light one: the angular gain beats the radial decay.
    spec = KernelSpec(DIAG_QUADRATIC, 2, 0.9, lambda_diag=(0.5, 3.0))
    assert check_monotone_K2(spec, axis=1).holds
    rep = check_monotone_K2(spec, axis=2)
    assert not rep.holds
    assert rep.witness is not None


def test_axis_monotonicity_detects_oscillating_kernel():
    def bad(pts):
        r = np.linalg.norm(np.atleast_2d(pts), axis=-1)
        return (2.0 + np.sin(6.0 * r)) * r ** -2.0

    rep = check_axis_monotonicity(bad, dim=1, axis=1)
    assert not rep.holds
    assert rep.witness is not None


def test_condition_report_rejects_witness_on_success():
    with pytest.raises(ValidationError):
        ConditionReport("K1", holds=True, witness=(1.0,))


def test_serialization_round_trip():
    for spec in ZOO:
        d = kernel_to_dict(spec)
        assert kernel_from_dict(d) == spec
    with pytest.raises(ValidationError):
        kernel_from_dict({"kind": POWER_LAW, "dim": 1, "alpha": 1.0, "rate": 3.0})
