import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpkernel.config import from_dict, to_dict
from jumpkernel.errors import ValidationError
from jumpkernel.nonlinearity import (
    F_AFFINE_PLUS_POWER,
    F_CONSTANT,
    F_LIPSCHITZ_TABLE,
    F_POWER,
    G_IDENTITY,
    G_POWER,
    NonlinearitySpec,
    check_G1,
    check_G2,
    check_G2prime,
    check_mvt_property,
    check_odd_increasing,
    eval_f,
    eval_f_prime,
    eval_G,
    eval_G_prime,
    f_lipschitz_bound,
    mvt_min_ratio,
    regime_flags,
)

G_HALF = NonlinearitySpec(g_kind=G_POWER, gamma=0.5)
G_ONE = NonlinearitySpec(g_kind=G_POWER, gamma=1.0)
G_TWO = NonlinearitySpec(g_kind=G_POWER, gamma=2.0)


def test_validation():
    with pytest.raises(ValidationError):
        NonlinearitySpec(g_kind="cube")
    with pytest.raises(ValidationError):
        NonlinearitySpec(f_kind="sine")
    with pytest.raises(ValidationError):
        NonlinearitySpec(g_kind=G_POWER, gamma=-0.5)
    with pytest.raises(ValidationError):
        NonlinearitySpec(f_kind=F_POWER, s=0.0)
    with pytest.raises(ValidationError):
        NonlinearitySpec(f_kind=F_LIPSCHITZ_TABLE, table=((0.0, 1.0),))
    with pytest.raises(ValidationError):
        NonlinearitySpec(f_kind=F_LIPSCHITZ_TABLE, table=((1.0, 0.0), (0.0, 1.0)))
    # the divided-difference constants require gamma < s
    with pytest.raises(ValidationError):
        NonlinearitySpec(
            g_kind=G_POWER, gamma=1.5, f_kind=F_POWER, s=1.0, C1=1.0, eps_g2=0.5
        )
    with pytest.raises(ValidationError):
        NonlinearitySpec(g_kind=G_IDENTITY, f_kind=F_POWER, s=1.0, C1=1.0)


def test_G_values():
    t = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(eval_G(G_ONE, t), np.abs(t) * t)
    np.testing.assert_allclose(eval_G(G_TWO, t), t ** 3)
    ident = NonlinearitySpec()
    np.testing.assert_allclose(eval_G(ident, t), t)
    np.testing.assert_allclose(eval_G_prime(ident, t), np.ones_like(t))
    np.testing.assert_allclose(eval_G_prime(G_ONE, t), 2.0 * np.abs(t))


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-8.0, 8.0), gamma=st.floats(0.1, 3.0))
def test_G_is_odd_property(t, gamma):
    spec = NonlinearitySpec(g_kind=G_POWER, gamma=gamma)
    assert float(eval_G(spec, np.array([t]))[0]) == pytest.approx(
        -float(eval_G(spec, np.array([-t]))[0]), abs=1e-12
    )


def test_f_kinds():
    const = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=2.5)
    np.testing.assert_allclose(eval_f(const, np.array([-1.0, 4.0])), [2.5, 2.5])
    np.testing.assert_allclose(eval_f_prime(const, np.array([3.0])), [0.0])

    pw = NonlinearitySpec(f_kind=F_POWER, s=1.0, f_scale=2.0)
    np.testing.assert_allclose(eval_f(pw, np.array([-3.0, 3.0])), [-18.0, 18.0])
    np.testing.assert_allclose(eval_f_prime(pw, np.array([3.0])), [12.0])

    aff = NonlinearitySpec(
        f_kind=F_AFFINE_PLUS_POWER, f_offset=1.0, f_slope=0.5, f_scale=1.0, s=2.0
    )
    np.testing.assert_allclose(eval_f(aff, np.array([2.0])), [1.0 + 1.0 + 8.0])

    tab = NonlinearitySpec(
        f_kind=F_LIPSCHITZ_TABLE, table=((-1.0, -2.0), (0.0, 0.0), (1.0, 1.0))
    )
    np.testing.assert_allclose(eval_f(tab, np.array([-0.5, 0.5])), [-1.0, 0.5])
    # clamped outside the table range
    np.testing.assert_allclose(eval_f(tab, np.array([-5.0, 5.0])), [-2.0, 1.0])
    np.testing.assert_allclose(eval_f_prime(tab, np.array([-0.5, 0.5, 7.0])), [2.0, 1.0, 0.0])


def test_f_lipschitz_bound():
    tab = NonlinearitySpec(
        f_kind=F_LIPSCHITZ_TABLE, table=((-1.0, -2.0), (0.0, 0.0), (1.0, 1.0))
    )
    assert f_lipschitz_bound(tab) == pytest.approx(2.0)
    pw = NonlinearitySpec(f_kind=F_POWER, s=1.0, f_scale=1.0)
    assert f_lipschitz_bound(pw, (-2.0, 2.0)) == pytest.approx(4.0, rel=1e-3)


def test_regime_flags():
    up = NonlinearitySpec(f_kind=F_POWER, s=1.0, f_scale=1.0)
    assert regime_flags(up)["f_prime_positive_near_zero"]
    down = NonlinearitySpec(f_kind=F_POWER, s=1.0, f_scale=-1.0)
    assert regime_flags(down)["f_prime_nonpositive_near_zero"]


def test_G1_holds_for_powers():
    for spec in (G_HALF, G_ONE, G_TWO, NonlinearitySpec()):
        ok, witness = check_G1(spec)
        assert ok
        assert witness is None


def test_odd_increasing_rejects_even_and_decreasing():
    ok, witness = check_odd_increasing(lambda t: np.asarray(t) ** 2)
    assert not ok
    ok, witness = check_odd_increasing(lambda t: -np.asarray(t))
    assert not ok
    assert witness is not None


def test_G2_bounded_ratio_holds():
    # f' and G' both vanish like |t|: the ratio is exactly constant
    spec = NonlinearitySpec(
        g_kind=G_POWER, gamma=1.0,
        f_kind=F_AFFINE_PLUS_POWER, f_offset=1.0, f_slope=0.0, f_scale=1.0, s=1.0,
    )
    rep = check_G2(spec)
    assert rep["holds"]
    assert abs(rep["slope"]) < 1e-6
    np.testing.assert_allclose(rep["ratios"], rep["ratios"][0])


def test_G2_detects_blowup():
    # f' -> 1 while G' ~ 2|t|: the ratio blows up like 1/t
    spec = NonlinearitySpec(
        g_kind=G_POWER, gamma=1.0,
        f_kind=F_AFFINE_PLUS_POWER, f_offset=0.0, f_slope=1.0, f_scale=1.0, s=1.0,
    )
    rep = check_G2(spec)
    assert not rep["holds"]
    assert rep["slope"] < -0.9


def test_G2prime_fits_positive_constants():
    spec = NonlinearitySpec(
        g_kind=G_POWER, gamma=0.5, f_kind=F_POWER, s=1.0, eps_g2=0.5
    )
    rep = check_G2prime(spec)
    assert rep["holds"]
    assert rep["C1_fit"] > 0.0
    assert math.isfinite(rep["C2_fit"])
    assert rep["samples"] > 1000


def test_G2prime_rejects_overstated_constants():
    base = NonlinearitySpec(
        g_kind=G_POWER, gamma=0.5, f_kind=F_POWER, s=1.0, eps_g2=0.5
    )
    fit = check_G2prime(base)
    too_big = NonlinearitySpec(
        g_kind=G_POWER, gamma=0.5, f_kind=F_POWER, s=1.0,
        eps_g2=0.5, C1=fit["C1_fit"] * 10.0,
    )
    assert not check_G2prime(too_big)["holds"]


def test_G2prime_needs_eps():
    with pytest.raises(ValidationError):
        check_G2prime(G_ONE)


def test_mvt_closed_form_single_pair():
    # G(t) = |t| t on [1, 3]: slope = (9 - 1)/2 = 4, xi = 4 / 2 = 2
    res = check_mvt_property(G_ONE, 1.0, 3.0)
    assert res.applicable
    assert res.xi == pytest.approx(2.0)
    assert res.ratio == pytest.approx(2.0 / 3.0)


def test_mvt_not_applicable_for_identity():
    res = check_mvt_property(NonlinearitySpec(), 0.0, 1.0)
    assert not res.applicable


def test_mvt_requires_distinct_points():
    with pytest.raises(ValidationError):
        check_mvt_property(G_ONE, 0.5, 0.5)


def test_mvt_min_ratio_frozen_values():
    # smallest pinch ratio over 10^4 seeded pairs; gamma = 1 attains the
    # analytic minimum sqrt(2) - 1 (at t1 = -t2), gamma = 2 attains 1/2
    # (at t1 = -t2/2)
    r_half = mvt_min_ratio(0.5)
    r_one = mvt_min_ratio(1.0)
    r_two = mvt_min_ratio(2.0)
    assert r_half == pytest.approx(0.3553, abs=2e-3)
    assert r_one == pytest.approx(math.sqrt(2.0) - 1.0, abs=2e-3)
    assert r_two == pytest.approx(0.5, abs=2e-3)
    for r in (r_half, r_one, r_two):
        assert r > 0.2


def test_serialization_round_trip():
    specs = [
        NonlinearitySpec(),
        G_ONE,
        NonlinearitySpec(
            g_kind=G_POWER, gamma=0.5, f_kind=F_POWER, s=1.0,
            C1=0.1, C2=10.0, eps_g2=0.5,
        ),
        NonlinearitySpec(
            f_kind=F_LIPSCHITZ_TABLE, table=((-1.0, -1.0), (1.0, 1.0))
        ),
    ]
    for spec in specs:
        d = to_dict(spec)
        # as built, and as read back from JSON text (lists, not tuples)
        for form in (d, json.loads(json.dumps(d))):
            assert from_dict(NonlinearitySpec, form, "nonlinearity") == spec
    with pytest.raises(ValidationError, match="unknown nonlinearity keys.*rate"):
        from_dict(NonlinearitySpec, {"g_kind": G_POWER, "gamma": 1.0, "rate": 2.0},
                  "nonlinearity")
