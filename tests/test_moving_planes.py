import numpy as np
import pytest

import oracles
from jumpkernel import moving_planes
from jumpkernel.errors import ValidationError
from jumpkernel.fields import gaussian_bump, grid_field, linear_combination, sample_to_grid
from jumpkernel.kernels import EXPONENTIAL, POWER_LAW, KernelSpec
from jumpkernel.moving_planes import (
    PlaneReflection,
    check_antisym_max_principle,
    decay_at_infinity_bound,
    narrow_region_bound,
    reflect,
    sweep_lambda,
    verify_radial_symmetry,
    w_lambda,
)

PL1 = KernelSpec(POWER_LAW, 1, 1.0)


def _sampled(src, box=2.0, n=65):
    h = 2.0 * box / (n - 1)
    return sample_to_grid(src, origin=[-box], h=h, shape=(n,))


def test_reflect_involution():
    plane = PlaneReflection(axis=2, lam=0.3)
    x = np.array([0.1, -0.5])
    y = reflect(x, plane)
    np.testing.assert_allclose(y, [0.1, 1.1])
    np.testing.assert_allclose(reflect(y, plane), x)


def test_w_lambda_closed_values():
    # u = e^{-x^2}: w_0.1 at x = 0.3 is u(-0.1) - u(0.3)
    u = gaussian_bump(1)
    w = w_lambda(u, PlaneReflection(axis=1, lam=0.1))
    expect = np.exp(-0.01) - np.exp(-0.09)
    assert float(w.value(np.array([0.3]))) == pytest.approx(expect, rel=1e-12)


def test_w_lambda_antisymmetry_on_lattice():
    src = gaussian_bump(1, center=[0.4], width=0.8)
    u = _sampled(src)
    plane = PlaneReflection(axis=1, lam=0.25)  # half-grid for h = 0.0625
    w = w_lambda(u, plane)
    assert w.grid is not None
    xs = np.linspace(-1.0, 1.0, 33)
    for x in xs:
        a = float(w.value(np.array([x])))
        b = float(w.value(np.array([0.5 - x])))
        assert a == pytest.approx(-b, abs=1e-13)


def test_w_lambda_vanishes_for_even_field():
    u = _sampled(gaussian_bump(1))
    w = w_lambda(u, PlaneReflection(axis=1, lam=0.0))
    assert np.max(np.abs(w.grid.values)) <= 1e-15


def test_w_lambda_axis_out_of_range():
    with pytest.raises(ValidationError):
        w_lambda(gaussian_bump(1), PlaneReflection(axis=2, lam=0.0))


def test_sweep_even_field_stops_at_center():
    u = _sampled(gaussian_bump(1))
    rep = sweep_lambda(u, axis=1)
    assert rep.lambda_o == pytest.approx(0.0, abs=1e-12)
    assert rep.symmetric_verdict


def test_sweep_recovers_offset_center():
    for c in (-0.375, 0.25, 0.5):
        u = _sampled(gaussian_bump(1, center=[c], width=0.6))
        rep = sweep_lambda(u, axis=1)
        assert rep.lambda_o == pytest.approx(c, abs=u.grid.h), c
        assert rep.symmetric_verdict


def test_sweep_flags_genuinely_asymmetric_field():
    a = gaussian_bump(1, center=[-0.5], width=0.5, amplitude=1.0)
    b = gaussian_bump(1, center=[0.5], width=0.5, amplitude=0.4)
    u = _sampled(linear_combination([a, b], [1.0, 1.0]))
    rep = sweep_lambda(u, axis=1)
    assert not rep.symmetric_verdict


def test_sweep_monotone_field_truncation_rule():
    # strictly increasing nodal data with a jump at the right face: pairs
    # whose mirror falls outside are dropped, the sweep runs to the far end
    vals = np.linspace(0.0, 1.0, 33)
    u = grid_field(vals, origin=[-1.0], h=0.0625, exterior_value=0.0)
    rep = sweep_lambda(u, axis=1)
    assert rep.lambda_o == pytest.approx(1.0 - 0.03125, abs=1e-12)
    # decreasing data stops immediately at the left face
    d = grid_field(vals[::-1].copy(), origin=[-1.0], h=0.0625, exterior_value=0.0)
    rep2 = sweep_lambda(d, axis=1)
    assert rep2.lambda_o == pytest.approx(-1.0, abs=1e-12)
    assert not rep2.symmetric_verdict


def test_sweep_against_dense_oracle():
    rng = np.random.default_rng(5)
    src = linear_combination(
        [gaussian_bump(1, center=[float(c)], width=float(w), amplitude=float(a))
         for c, w, a in zip(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.4, 0.9, 3),
                            rng.uniform(0.3, 1.2, 3))],
        [1.0, 1.0, 1.0],
    )
    u = sample_to_grid(src, origin=[-3.0], h=6.0 / 64, shape=(65,), exterior_value=0.0)
    rep = sweep_lambda(u, axis=1)
    lams, mins = oracles.dense_plane_sweep(u.grid.values, -3.0, 6.0 / 64, exterior=0.0)
    np.testing.assert_allclose(rep.lambda_grid, lams, atol=1e-12)
    # boundary jump of the sampled field is ~1e-7 > the continuity cutoff, so
    # compare only planes whose mirrors stay inside the lattice
    n = u.grid.values.size
    inside = np.arange(1, 2 * (n - 1)) <= n - 1
    np.testing.assert_allclose(
        np.asarray(rep.min_w)[inside], mins[inside], atol=1e-13
    )


def _scan_referee_fields():
    rng = np.random.default_rng(20)
    fields = [
        # integer values: many exact ties among the slab minima
        grid_field(rng.integers(-2, 3, 33).astype(float), [-1.0], 0.0625),
        grid_field(rng.integers(0, 2, (17, 23)).astype(float), [-1.0, -1.5], 0.125),
        grid_field(rng.integers(-1, 2, (19, 19)).astype(float), [-1.0, -1.0], 0.125,
                   exterior_value=1.0),
        # a rising step: the first slab minima exceed the whole field's range
        grid_field(np.repeat([-3.0, 3.0], [8, 9]), [-1.0], 0.125),
    ]
    for shape, h in (((41,), 0.0625), ((25, 25), 0.125), ((17, 29), 0.125)):
        axes = [-(n - 1) / 2 * h + h * np.arange(n) for n in shape]
        r2 = sum(x * x for x in np.meshgrid(*axes, indexing="ij"))
        # symmetric (1 - |x|^2)_+^(1/2), continuous at the box face ...
        sym = np.sqrt(np.maximum(1.0 - r2, 0.0))
        origin = [a[0] for a in axes]
        fields.append(grid_field(sym, origin, h))
        # ... shifted by 0.3: a jump at the face against exterior 0, and
        # continuous again against exterior 0.3
        fields.append(grid_field(sym + 0.3, origin, h))
        fields.append(grid_field(sym + 0.3, origin, h, exterior_value=0.3))
    return fields


def test_blocked_scan_matches_the_per_plane_referee(monkeypatch):
    fields = _scan_referee_fields()
    batched = [repr(sweep_lambda(u, axis)) for u in fields for axis in range(1, u.dim + 1)]
    monkeypatch.setattr(moving_planes, "_scan_axis", oracles.scan_axis_per_plane)
    referee = [repr(sweep_lambda(u, axis)) for u in fields for axis in range(1, u.dim + 1)]
    assert batched == referee


def test_2d_sweep_axes_are_independent():
    src = gaussian_bump(2, center=[0.25, -0.5], width=0.7)
    u = sample_to_grid(src, origin=[-2.0, -2.0], h=0.125, shape=(33, 33))
    rep1 = sweep_lambda(u, axis=1)
    rep2 = sweep_lambda(u, axis=2)
    assert rep1.lambda_o == pytest.approx(0.25, abs=0.125)
    assert rep2.lambda_o == pytest.approx(-0.5, abs=0.125)


def test_antisym_certificate_negative_minimum():
    # anti-symmetric pair with the positive bump left of the plane: the
    # deficit has a negative interior minimum on the left, and the operator
    # witnesses the maximum principle there
    pair = linear_combination(
        [gaussian_bump(1, center=[-0.6], width=0.7),
         gaussian_bump(1, center=[0.6], width=0.7)],
        [1.0, -1.0],
    )
    u = sample_to_grid(pair, origin=[-4.0], h=8.0 / 128, shape=(129,))
    cert = check_antisym_max_principle(u, PL1, PlaneReflection(axis=1, lam=0.0))
    assert cert.claim == "negative-certified"
    assert cert.w_min < 0.0
    assert cert.LK_w_at_min < -cert.err_estimate
    assert cert.x_min[0] < 0.0
    rec = cert.to_record()
    assert rec["claim"] == "negative-certified"
    assert rec["kernel_kind"] == POWER_LAW


def test_antisym_certificate_no_claim_for_nonnegative_deficit():
    # positive bump right of the plane: the deficit is >= 0 on the left
    u = sample_to_grid(
        gaussian_bump(1, center=[0.6], width=0.7), origin=[-4.0], h=8.0 / 128, shape=(129,)
    )
    cert = check_antisym_max_principle(u, PL1, PlaneReflection(axis=1, lam=0.0))
    assert cert.claim == "no-claim"
    assert cert.LK_w_at_min is None


def test_antisym_certificate_requires_lattice():
    with pytest.raises(ValidationError):
        check_antisym_max_principle(
            gaussian_bump(1), PL1, PlaneReflection(axis=1, lam=0.0)
        )


def test_narrow_region_power_scaling():
    for a in (0.5, 1.0, 1.5):
        spec = KernelSpec(POWER_LAW, 1, a)
        rows = narrow_region_bound(spec, [0.0], PlaneReflection(axis=1, lam=0.0))
        slope = rows[0][2]
        assert slope == pytest.approx(-a, abs=1e-9)
        masses = [m for _, m, _ in rows]
        assert all(x < y for x, y in zip(masses, masses[1:]))  # grows as delta shrinks


def test_narrow_region_needs_two_widths():
    with pytest.raises(ValidationError):
        narrow_region_bound(PL1, [0.0], PlaneReflection(axis=1, lam=0.0), delta_list=[0.1])


def test_decay_power_scaling_and_bound():
    spec = KernelSpec(POWER_LAW, 2, 1.0)
    rows = decay_at_infinity_bound(spec, PlaneReflection(axis=1, lam=0.0), [2.0, 4.0, 8.0])
    radii = [r for r, _, _ in rows]
    masses = [m for _, m, _ in rows]
    bounds = [b for _, _, b in rows]
    slope = np.polyfit(np.log(radii), np.log(masses), 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-6)
    # constant fitted at the first radius, so the bound is tight there
    assert masses[0] == pytest.approx(bounds[0], rel=1e-12)
    for m, b in zip(masses[1:], bounds[1:]):
        assert m >= b * (1.0 - 1e-9)


def test_decay_exponential_exceeds_reference():
    spec = KernelSpec(EXPONENTIAL, 1, 1.0)
    rows = decay_at_infinity_bound(spec, PlaneReflection(axis=1, lam=0.0), [1.0, 1.5, 2.0])
    for i, (r, m, b) in enumerate(rows):
        assert m >= b * (1.0 - 1e-9)
    # strictly exceeds away from the anchor: the real tail decays like
    # e^{-r^2}, far slower than the proof's e^{-16 r^2}
    assert rows[1][1] > 10.0 * rows[1][2]
    assert rows[2][1] > 100.0 * rows[2][2]


def test_decay_rejects_unsorted_radii():
    with pytest.raises(ValidationError):
        decay_at_infinity_bound(PL1, PlaneReflection(axis=1, lam=0.0), [4.0, 2.0])


def test_radial_symmetry_report_on_symmetric_field():
    src = gaussian_bump(2, width=0.8)
    u = sample_to_grid(src, origin=[-1.0, -1.0], h=0.0625, shape=(33, 33))
    rep = verify_radial_symmetry(u, center=[0.0, 0.0], tolerance=1e-9)
    assert rep.monotone_violations == 0
    assert rep.ray_count == 8
    # the half-cell radius window admits genuine radial variation ~ |grad| h/2
    assert rep.max_deviation < 0.06


def test_radial_symmetry_catches_perturbation():
    src = gaussian_bump(2, width=0.8)
    u = sample_to_grid(src, origin=[-1.0, -1.0], h=0.0625, shape=(33, 33))
    vals = u.grid.values.copy()
    vals[24, 16] += 0.2  # push one node up along the +x ray
    bad = grid_field(vals, origin=[-1.0, -1.0], h=0.0625)
    rep = verify_radial_symmetry(bad, center=[0.0, 0.0], tolerance=1e-9)
    assert rep.monotone_violations >= 1
    assert rep.max_deviation >= 0.1
