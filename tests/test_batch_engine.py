"""The batched evaluation engine against the one-point referees it replaced.

Every weighted sum is row-local, so every point of a batch must reproduce
its one-point call and ``oracles.eval_engine_scalar`` bit for bit, verdict
and work count included, whatever else shares the batch and wherever the
waves are cut.  Every owner of the adaptive driver is held to
``oracles.adaptive_interval_scalar`` in the same way.
"""

import numpy as np
import pytest

import oracles
from jumpkernel import quadrature
from jumpkernel.errors import NonConvergenceError
from jumpkernel.fields import gaussian_bump, sample_to_grid
from jumpkernel.kernels import (
    ANISOTROPIC_P,
    DIAG_QUADRATIC,
    EXPONENTIAL,
    MATRIX_TRANSFORMED,
    POWER_LAW,
    VARIABLE_ORDER,
    KernelSpec,
)
from jumpkernel.nonlinearity import F_CONSTANT, G_POWER, NonlinearitySpec
from jumpkernel.quadrature import EvalBatch, EvalResult, default_config, eval_FGK, eval_LK
from jumpkernel.quadrules import adaptive_interval
from jumpkernel.solver import DomainSpec, solve_dirichlet_nonlinear

G_HALF = NonlinearitySpec(g_kind=G_POWER, gamma=0.5, f_kind=F_CONSTANT, f_offset=1.0)


def zoo(dim):
    lam = (1.7,) if dim == 1 else (1.0, 2.0)
    return [KernelSpec(POWER_LAW, dim, a) for a in (0.5, 1.0, 1.5, 1.9)] + [
        KernelSpec(EXPONENTIAL, dim, 1.2),
        KernelSpec(ANISOTROPIC_P, dim, 1.2, p_norm=4.0),
        KernelSpec(MATRIX_TRANSFORMED, dim, 1.2, lambda_diag=lam),
        KernelSpec(DIAG_QUADRATIC, dim, 1.2, lambda_diag=lam),
        KernelSpec(VARIABLE_ORDER, dim, 1.2, beta_order=1.5),
    ]


def field(dim, kind):
    u = gaussian_bump(dim, center=np.full(dim, 0.1), width=0.7)
    if kind == "analytic":
        return u
    if dim == 1:
        return sample_to_grid(u, [-1.5], 1.0 / 16.0, (49,))
    return sample_to_grid(u, [-2.5, -2.5], 1.0 / 8.0, (41, 41))


@pytest.fixture(scope="module")
def solution_1d():
    """The 1-D grid_n=33 solution of F u = 1 (PowerLaw, alpha=1, gamma=0.5);
    its PV evaluation at the centre node never converges."""
    spec = KernelSpec(POWER_LAW, 1, 1.0)
    dom = DomainSpec(dim=1, radius=1.0, grid_n=33)
    fld, _ = solve_dirichlet_nonlinear(G_HALF, spec, dom, solve_tol=1e-6)
    return fld, spec, quadrature.QuadratureConfig(eps_inner=2.0 * dom.h)


def evaluate(u, spec, x, cfg, gamma):
    if gamma is None:
        return eval_LK(u, spec, x, cfg)
    return eval_FGK(u, NonlinearitySpec(g_kind=G_POWER, gamma=gamma), spec, x, cfg)


def assert_batch_of_one_is_the_referee(u, spec, x, cfg, gamma):
    ref, ok, neval = oracles.eval_engine_scalar(u, spec, x, cfg, gamma)
    expect = (ref.value, ref.err_estimate, ref.tail_bound, ref.inner_contribution)
    # the one-point API: an EvalResult, or the referee's carried value
    if ok:
        res = evaluate(u, spec, x, cfg, gamma)
        assert isinstance(res, EvalResult)
        assert (res.value, res.err_estimate, res.tail_bound, res.inner_contribution) == expect
        assert res.neval == neval
    else:
        with pytest.raises(NonConvergenceError) as exc:
            evaluate(u, spec, x, cfg, gamma)
        assert (exc.value.value, exc.value.err_estimate) == (ref.value, ref.err_estimate)
    # the same point as a batch of one
    b = evaluate(u, spec, np.asarray(x, dtype=float)[None], cfg, gamma)
    assert isinstance(b, EvalBatch)
    got = (b.value[0], b.err_estimate[0], b.tail_bound[0], b.inner_contribution[0])
    assert got == expect
    assert bool(b.converged[0]) is ok
    assert int(b.neval[0]) == neval > 0
    return expect, ok, neval


@pytest.mark.parametrize("gamma", [None, 0.5])
@pytest.mark.parametrize("kind", ["analytic", "grid"])
@pytest.mark.parametrize("spec", zoo(1), ids=lambda s: f"{s.kind}-{s.alpha}")
def test_batch_of_one_is_the_scalar_referee_1d(spec, kind, gamma):
    u = field(1, kind)
    for x in ([0.0], [0.3751791476471027], [-0.55]):
        assert_batch_of_one_is_the_referee(u, spec, np.array(x), default_config(u), gamma)


@pytest.mark.parametrize("gamma", [None, 0.5])
@pytest.mark.parametrize("kind", ["analytic", "grid"])
@pytest.mark.parametrize("spec", zoo(2)[1::3], ids=lambda s: f"{s.kind}-{s.alpha}")
def test_batch_of_one_is_the_scalar_referee_2d(spec, kind, gamma):
    u = field(2, kind)
    assert_batch_of_one_is_the_referee(u, spec, np.array([0.3, -0.2]), default_config(u), gamma)


def test_batch_of_one_is_the_referee_at_the_unconverged_centre(solution_1d):
    fld, spec, cfg = solution_1d
    ref, ok, _ = oracles.eval_engine_scalar(fld, spec, np.zeros(1), cfg, 0.5)
    assert not ok
    assert_batch_of_one_is_the_referee(fld, spec, np.zeros(1), cfg, 0.5)
    assert_batch_of_one_is_the_referee(fld, spec, np.array([0.25]), cfg, 0.5)


def assert_batch_matches_point_calls(u, spec, X, cfg, gamma):
    # each point of the batch is its one-point call and the referee
    b = evaluate(u, spec, X, cfg, gamma)
    assert isinstance(b, EvalBatch)
    for i, x in enumerate(X):
        expect, ok, neval = assert_batch_of_one_is_the_referee(u, spec, x, cfg, gamma)
        got = (b.value[i], b.err_estimate[i], b.tail_bound[i], b.inner_contribution[i])
        assert got == expect
        assert bool(b.converged[i]) is ok
        assert b.neval[i] == neval
    return b


def test_pv_pass_batch_matches_point_calls(solution_1d):
    # every interior node, shuffled, with off-node points: the points take
    # different numbers of waves and the centre never converges
    fld, spec, cfg = solution_1d
    X = np.concatenate([fld.grid.origin + fld.grid.h * np.arange(1, 32), [0.013, -0.71]])
    X = np.random.default_rng(4).permutation(X)[:, None]
    b = assert_batch_matches_point_calls(fld, spec, X, cfg, 0.5)
    assert X[~b.converged, 0].tolist() == [0.0]
    assert_batch_matches_point_calls(fld, spec, X[::3], cfg, None)


@pytest.mark.parametrize("gamma", [None, 0.5])
def test_2d_batch_matches_point_calls_across_sphere_levels(gamma):
    # points near and far from the bump's centre take different numbers of
    # waves and sphere levels; for F a depth cap of 9 leaves some of them
    # unconverged
    u = field(2, "analytic")
    X = np.array([[0.1, 0.1], [0.6, -0.3], [-0.9, 0.4], [0.05, 0.5], [1.4, 1.2]])
    cfg = quadrature.QuadratureConfig(max_depth=9)
    spec = KernelSpec(ANISOTROPIC_P, 2, 1.5, p_norm=4.0)
    b = assert_batch_matches_point_calls(u, spec, X, cfg, gamma)
    assert len(set(b.neval.tolist())) > 1
    if gamma is not None:
        assert 0 < np.sum(b.converged) < len(X)


def test_2d_lattice_batch_cut_into_blocks_matches_point_calls(monkeypatch):
    # a small element budget cuts the long waves, inside owners' runs too
    monkeypatch.setattr(quadrature, "_WAVE_BLOCK", 3331)
    u = field(2, "grid")
    X = np.array([[0.3, -0.2], [-0.45, 0.1], [0.0, 0.65]])
    assert_batch_matches_point_calls(u, KernelSpec(POWER_LAW, 2, 1.0), X, default_config(u), None)


@pytest.mark.parametrize("gamma", [None, 0.5])
def test_cut_one_point_waves_keep_the_referee_bits(monkeypatch, gamma):
    # a small element budget cuts one point's long waves too, at node caps
    # (3331 // 20, // 40, // 80) aligned to nothing; the cuts must not move
    # a bit of its value
    monkeypatch.setattr(quadrature, "_WAVE_BLOCK", 3331)
    longest = []
    drive = quadrature.adaptive_interval

    def spy(f, *args, **kwargs):
        def g(t, owner):
            longest.append(t.size)
            return f(t, owner)
        return drive(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_interval", spy)
    u = field(2, "grid")
    spec = KernelSpec(POWER_LAW, 2, 1.0)
    for x in ([0.3, -0.2], [0.0, 0.0]):
        assert_batch_of_one_is_the_referee(u, spec, np.array(x), default_config(u), gamma)
    assert max(longest) > 3331 // 20  # some wave outgrew one call at any level


@pytest.mark.parametrize("dim", [1, 2])
def test_empty_batch(dim):
    u = field(dim, "grid")
    b = eval_FGK(u, G_HALF, KernelSpec(POWER_LAW, dim, 1.0), np.zeros((0, dim)))
    assert isinstance(b, EvalBatch)
    for arr in (b.value, b.err_estimate, b.tail_bound, b.inner_contribution,
                b.converged, b.neval):
        assert arr.shape == (0,)


# ----------------------------------------------------------------------------
# The adaptive driver
# ----------------------------------------------------------------------------

INTEGRANDS = [
    # (integrand, a, b, breakpoints, max_depth)
    (lambda t: np.exp(-t * t) * np.cos(3.0 * t), -2.0, 3.0, (), 24),
    (lambda t: np.sqrt(np.abs(t - 0.3)), 0.0, 1.0, (0.3,), 24),
    (lambda t: np.sqrt(np.abs(t - 0.3)), 0.0, 1.0, (), 4),  # hits max_depth
    (lambda t: 1.0 / (1e-3 + (t - 0.7) ** 2), -1.0, 2.0, (0.5, 0.9, 5.0), 24),
    (lambda t: t, 1.0, 1.0, (), 24),  # empty interval
]


@pytest.mark.parametrize("case", range(len(INTEGRANDS)))
def test_scalar_driver_is_the_referee(case):
    # a drive with one owner is the one-interval referee, bit for bit
    f, a, b, bp, depth = INTEGRANDS[case]
    val, err, conv, neval, owner_neval = adaptive_interval(
        lambda t, owner: f(t), [a], [b], 1e-10, 1e-14, depth, breakpoints=[bp])
    assert [arr.shape for arr in (val, err, conv, owner_neval)] == [(1,)] * 4
    got = (val[0], err[0], bool(conv[0]), neval)
    assert got == oracles.adaptive_interval_scalar(f, a, b, 1e-10, 1e-14, depth, bp)
    assert type(neval) is int and owner_neval[0] == neval


def test_batched_driver_matches_scalar_drives_owner_by_owner():
    # one owner per integrand above, each with its own interval, breakpoints
    # and integrand; the capped owner alone is not converged
    depth = 5
    fs = [f for f, *_ in INTEGRANDS]
    a = np.array([c[1] for c in INTEGRANDS])
    b = np.array([c[2] for c in INTEGRANDS])
    bps = [c[3] for c in INTEGRANDS]
    waves = []

    def f_batch(t, owner):
        waves.append((t.copy(), owner.copy()))
        out = np.empty_like(t)
        for k in np.unique(owner):
            out[owner == k] = fs[k](t[owner == k])
        return out

    val, err, conv, neval, owner_neval = adaptive_interval(
        f_batch, a, b, 1e-10, 1e-14, depth, bps)
    assert neval == sum(t.size for t, _ in waves) == owner_neval.sum()
    for k, f in enumerate(fs):
        seen = []

        def f_scalar(t, f=f):
            seen.append(t.copy())
            return f(t)

        rv, re, rc, rn = oracles.adaptive_interval_scalar(
            f_scalar, a[k], b[k], 1e-10, 1e-14, depth, bps[k])
        assert bool(conv[k]) is rc
        assert owner_neval[k] == rn
        assert (val[k], err[k]) == (rv, re)
        # the owner's panels come in the scalar order, wave by wave
        mine = [t[o == k] for t, o in waves if np.any(o == k)]
        assert len(mine) == len(seen)
        for got, want in zip(mine, seen):
            np.testing.assert_array_equal(got, want)
    assert set(conv.tolist()) == {True, False}
