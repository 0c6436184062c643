import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpkernel.errors import ValidationError
from jumpkernel.fields import (
    analytic_field,
    compact_bump,
    gaussian_bump,
    grid_field,
    linear_combination,
    load_grid_field,
    reflect_field,
    sample_to_grid,
    save_grid_field,
)


def test_gaussian_values_and_derivatives():
    u = gaussian_bump(2, center=[0.5, -0.5], width=2.0, amplitude=3.0)
    x = np.array([1.0, 0.0])
    d2 = 0.25 + 0.25
    np.testing.assert_allclose(float(u.value(x)), 3.0 * np.exp(-d2 / 4.0))
    # gradient of A exp(-|x-c|^2/w^2)
    expect_grad = -2.0 * (x - [0.5, -0.5]) / 4.0 * float(u.value(x))
    np.testing.assert_allclose(u.gradient(x), expect_grad, rtol=1e-12)
    # Hessian trace at the center is -2 dim A / w^2
    np.testing.assert_allclose(
        np.trace(u.hessian(np.array([0.5, -0.5]))), -2.0 * 2 * 3.0 / 4.0, rtol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(x1=st.floats(-2.0, 2.0), x2=st.floats(-2.0, 2.0))
def test_gaussian_hessian_matches_finite_differences(x1, x2):
    u = gaussian_bump(2, center=[0.2, 0.1], width=1.3, amplitude=1.0)
    x = np.array([x1, x2])
    # 1e-4 balances truncation against roundoff: at 1e-5 the second
    # difference's cancellation error alone exceeds abs=1e-6
    h = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (float(u.value(x + e)) - 2.0 * float(u.value(x)) + float(u.value(x - e))) / h ** 2
        assert u.hessian(x)[i, i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_gaussian_tail_bound_is_honest():
    u = gaussian_bump(1, center=[0.5], width=1.0, amplitude=2.0)
    for R in (1.0, 2.0, 4.0):
        bound = u.tail_bound_outside(R)
        probe = np.linspace(R, R + 10.0, 2001).reshape(-1, 1)
        vals = np.abs(np.asarray(u.value(probe)))
        assert bound >= np.max(vals) - 1e-15
        assert bound >= np.abs(float(u.value(np.array([-R]))))


def test_compact_bump_support_and_smoothness():
    u = compact_bump(2, center=[0.2, 0.0], radius=0.5, depth=-1.5)
    assert float(u.value(np.array([0.2, 0.0]))) == -1.5
    # identically zero outside the support ball
    assert float(u.value(np.array([0.8, 0.4]))) == 0.0
    assert np.all(u.hessian(np.array([1.0, 1.0])) == 0.0)
    # C^2 at the support boundary: value, gradient, hessian all small
    edge = np.array([0.2 + 0.5 - 1e-6, 0.0])
    assert abs(float(u.value(edge))) < 1e-15
    assert np.linalg.norm(u.gradient(edge)) < 1e-8
    assert np.abs(u.hessian(edge)).max() < 1e-3
    assert u.tail_bound_outside(0.71) == 0.0
    assert u.tail_bound_outside(0.69) == 1.5


def test_linear_combination_values_and_tails():
    a = gaussian_bump(1, center=[0.0], width=1.0, amplitude=1.0)
    b = gaussian_bump(1, center=[1.0], width=1.0, amplitude=1.0)
    w = linear_combination([a, b], [2.0, -1.0])
    x = np.array([0.3])
    np.testing.assert_allclose(
        float(w.value(x)), 2.0 * float(a.value(x)) - float(b.value(x))
    )
    np.testing.assert_allclose(
        w.gradient(x), 2.0 * a.gradient(x) - b.gradient(x), rtol=1e-12
    )
    assert w.sup_bound == pytest.approx(3.0)
    assert w.far_value == 0.0
    assert w.tail_bound_outside(5.0) <= 2.0 * a.tail_bound_outside(5.0) + b.tail_bound_outside(4.0)
    with pytest.raises(ValidationError):
        linear_combination([a, b], [1.0])
    with pytest.raises(ValidationError):
        linear_combination([a, gaussian_bump(2)], [1.0, 1.0])


def test_grid_field_nodal_exactness_and_exterior():
    vals = np.array([0.0, 1.0, 4.0, 1.0, 0.0])
    u = grid_field(vals, origin=[-1.0], h=0.5, exterior_value=0.0)
    for i, v in enumerate(vals):
        assert float(u.value(np.array([-1.0 + 0.5 * i]))) == v
    # multilinear between nodes
    assert float(u.value(np.array([-0.75]))) == pytest.approx(0.5)
    # exterior constant beyond the box
    assert float(u.value(np.array([3.0]))) == 0.0
    assert float(u.value(np.array([-17.0]))) == 0.0
    assert u.boundary_distance(np.array([0.0])) == pytest.approx(1.0)
    assert u.boundary_jump() == 0.0


def test_grid_field_boundary_jump():
    vals = np.array([0.3, 1.0, 0.3])
    u = grid_field(vals, origin=[-1.0], h=1.0, exterior_value=0.0)
    assert u.boundary_jump() == pytest.approx(0.3)


def test_sample_to_grid_matches_source_at_nodes():
    src = gaussian_bump(2, center=[0.1, -0.2], width=0.8)
    u = sample_to_grid(src, origin=[-2.0, -2.0], h=0.25, shape=(17, 17))
    assert u.grid is not None
    for idx in [(0, 0), (8, 8), (16, 3)]:
        x = np.array([-2.0 + 0.25 * idx[0], -2.0 + 0.25 * idx[1]])
        assert float(u.value(x)) == pytest.approx(float(src.value(x)), abs=1e-15)


def test_reflect_field_is_the_pullback():
    src = gaussian_bump(1, center=[0.4], width=0.7)
    r = reflect_field(src, lam=0.25, axis=1)
    xs = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
    np.testing.assert_allclose(r.value(xs), src.value(0.5 - xs), rtol=1e-14)
    # reflecting twice recovers the original pointwise
    rr = reflect_field(r, lam=0.25, axis=1)
    np.testing.assert_allclose(rr.value(xs), src.value(xs), rtol=1e-14)
    # the gradient picks up the sign flip on the reflected axis
    x = np.array([0.1])
    np.testing.assert_allclose(r.gradient(x), -src.gradient(0.5 - x), rtol=1e-12)
    with pytest.raises(ValidationError):
        reflect_field(src, lam=0.0, axis=2)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((9, 9))
    u = grid_field(vals, origin=[-1.0, -1.0], h=0.25, exterior_value=0.5, label="noise")
    path = tmp_path / "field.grid"
    save_grid_field(u, path)
    v = load_grid_field(path)
    assert np.array_equal(v.grid.values, vals)
    np.testing.assert_array_equal(v.grid.origin, u.grid.origin)
    assert v.grid.h == u.grid.h
    assert v.exterior_value == 0.5


def test_field_rejects_wrong_point_dimension():
    u = analytic_field(1, lambda p: np.zeros(np.asarray(p).shape[:-1]), 0.0)
    with pytest.raises(ValidationError):
        u.value(np.zeros((3, 2)))  # wrong trailing dimension


def test_default_tail_bound_without_declared_tail():
    u = analytic_field(1, lambda p: np.ones(np.asarray(p).shape[:-1]), sup_bound=1.0)
    assert u.tail_bound_outside(100.0) == 2.0
