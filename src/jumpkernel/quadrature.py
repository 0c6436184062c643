"""Principal-value evaluation of the nonlocal operators.

Both the linear operator

    L_K u(x)     = PV ∫ (u(x) - u(y)) K(x - y) dy

and the fully nonlinear one

    F_{G,K} u(x) = PV ∫ G(u(x) - u(y)) K(x - y) dy

are computed through the same three-part split around the singularity:

* inner ball ``|y - x| <= eps``: every y is paired with its mirror point
  2x - y, which cancels the odd (gradient) part of the integrand exactly;
  what survives behaves like the curvature and is integrated after the
  radial substitution rho = r^(2 - alpha) (resp. r^(2 + gamma - alpha)),
  which makes the integrand bounded uniformly in alpha — sweeps with
  alpha -> 2 cost no extra subdivision;
* shell ``eps <= |y - x| <= R``: adaptive quadrature in log-radius,
  seeded with breakpoints at radii where the field or kernel kinks;
* far ``|y - x| > R``: when the field's far value is known the
  contribution is (u(x) - far) * ∫_{|z|>R} K exactly (grid fields are
  constant beyond their box, so this is not an approximation for them);
  otherwise it is absorbed into the error bound 2 sup|u| ∫_{|z|>R} K.

Grid fields get a special inner ball: the multilinear interpolant has a
kink at every lattice node, so the paired second difference of the raw
interpolant does not decay like r^2 there and the PV integral of the
interpolant itself diverges for alpha >= 1.  Instead the inner ball uses
the local quadratic model built from second differences of the samples
(the natural C^{1,1} surrogate, and the reason eps_inner must be >= 2h,
the smallest radius that covers the second-difference stencil; the 4h of
``default_config`` is only its choice, and the solver's assembly uses 2h).

The engine works over a point set.  ``eval_LK``/``eval_FGK`` accept one
point of shape (dim,), which returns an ``EvalResult`` and raises
``NonConvergenceError`` when refinement hits ``max_depth``, or a set of
shape (P, dim), which returns an ``EvalBatch`` of per-point arrays with a
``converged`` flag instead of raising.  One point and many take the same
path.  All points share one sphere rule per level, and each adaptive wave
integrates the panels of every point that is still refining: the left
halves of all refining panels, then their right halves, so each point meets
its panels in the order of a one-point drive.  A long wave is cut into
integrand calls of bounded size.  Every sum is row-local (see
``quadrules``), so every point of any batch equals its one-point call bit
for bit, wherever the waves are cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError, ValidationError
from .fields import Field
from .kernels import (
    KernelSpec,
    VARIABLE_ORDER,
    outer_mass,
    radial_profile,
    singular_exponent,
)
from .nonlinearity import G_IDENTITY, NonlinearitySpec
from .quadrules import adaptive_interval, sphere_rule

_GAMMA_MARGIN = 0.05  # slack in the integrability precondition for F_{G,K}


@dataclass(frozen=True)
class QuadratureConfig:
    eps_inner: float = 1e-3
    r_outer: float = 50.0
    rel_tol: float = 1e-6
    max_depth: int = 24

    def __post_init__(self):
        if not self.eps_inner > 0.0:
            raise ValidationError("eps_inner must be positive")
        if not self.eps_inner < self.r_outer:
            raise ValidationError("eps_inner must be smaller than r_outer")
        if not 0.0 < self.rel_tol <= 0.1:
            raise ValidationError("rel_tol must lie in (0, 0.1]")
        if not 1 <= int(self.max_depth) <= 30:
            raise ValidationError("max_depth must lie in [1, 30]")


def default_config(u: Field | None = None) -> QuadratureConfig:
    """Defaults; for grid fields eps_inner is max(4h, 1e-3)."""
    if u is not None and u.grid is not None:
        return QuadratureConfig(eps_inner=max(4.0 * u.grid.h, 1e-3))
    return QuadratureConfig()


@dataclass(frozen=True)
class EvalResult:
    value: float
    err_estimate: float
    tail_bound: float
    inner_contribution: float
    # radial integrand nodes the adaptive drives evaluated (a work counter)
    neval: int = field(default=0, repr=False)

    def __post_init__(self):
        if not self.err_estimate >= 0.0:
            raise ValidationError("err_estimate must be nonnegative")
        if not self.tail_bound >= 0.0:
            raise ValidationError("tail_bound must be nonnegative")


@dataclass(frozen=True)
class EvalBatch:
    """Per-point results of one evaluation over a point set: (P,) arrays.

    ``converged`` is False where adaptive refinement hit ``max_depth``; the
    value and error estimate there are the unconverged ones.
    """

    value: np.ndarray
    err_estimate: np.ndarray
    tail_bound: np.ndarray
    inner_contribution: np.ndarray
    converged: np.ndarray
    neval: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(self.err_estimate >= 0.0):
            raise ValidationError("err_estimate must be nonnegative")
        if not np.all(self.tail_bound >= 0.0):
            raise ValidationError("tail_bound must be nonnegative")


def tail_bound(sup_bound: float, spec: KernelSpec, R: float) -> float:
    """2 * sup_bound * ∫_{|z| > R} K(z) dz, rounded up by the mass error."""
    m, m_err = outer_mass(spec, R)
    return 2.0 * float(sup_bound) * (m + m_err)


def laplacian(u: Field, x) -> float:
    """Trace of the Hessian (exact for analytic fields with one attached,
    second-order central differences otherwise)."""
    x = np.asarray(x, dtype=float)
    if u.grid is not None and u.boundary_distance(x) < 2.0 * u.grid.h:
        raise DomainError("point too close to the grid boundary for differences")
    return float(np.trace(u.hessian(x)))


# ----------------------------------------------------------------------------
# The shared evaluation engine
# ----------------------------------------------------------------------------


def _feature_radii(u: Field, spec: KernelSpec, x, eps: float, R: float):
    """Radii where the shell integrand may kink: kernel switches, lattice
    planes near x, and the box geometry of grid fields."""
    feats = set()
    if spec.kind == VARIABLE_ORDER:
        feats.add(1.0)
    if u.grid is not None:
        g = u.grid
        h = g.h
        near = 8.0 * h
        for d in range(u.dim):
            planes = g.origin[d] + h * np.arange(g.shape[d])
            dist = np.abs(planes - x[d])
            feats.update(float(t) for t in dist[dist <= near])
        feats.add(abs(u.boundary_distance(x)))
        feats.add(u.box_reach(x))
    return tuple(t for t in sorted(feats) if eps < t < R)


def _phi(t, gamma):
    return np.abs(t) ** gamma * t


# Elements (radial nodes x sphere directions) per integrand call: a long
# wave is cut into calls of at most this size.
_WAVE_BLOCK = 1 << 14


def _blocked(f, k):
    """The integrand ``f(t, owner)`` with a long wave cut into calls of at
    most ``_WAVE_BLOCK // k`` nodes (``k`` sphere directions per node).

    The integrands work node by node, so a cut may fall between any two
    nodes, whoever owns them.
    """
    cap = _WAVE_BLOCK // k

    def g(t, own):
        if t.size <= cap:
            return f(t, own)
        return np.concatenate([f(t[s:s + cap], own[s:s + cap]) for s in range(0, t.size, cap)])

    return g


def _eval_engine(u: Field, spec: KernelSpec, x, cfg: QuadratureConfig, gamma):
    """gamma=None evaluates L_K; gamma=g evaluates F with G(t)=|t|^g t.

    ``x`` of shape (dim,) gives an EvalResult and raises on non-convergence;
    ``x`` of shape (P, dim) gives an EvalBatch and never raises on it.
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim <= 1
    if single:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != spec.dim or u.dim != spec.dim:
        raise ValidationError("field, kernel and point dimensions must agree")
    P = len(X)
    eps, R = cfg.eps_inner, cfg.r_outer
    grid_like = u.grid is not None
    if grid_like:
        # Near the box boundary the local model reaches into the exterior;
        # that is only meaningful when the exterior constant continues the
        # nodal data continuously (true for hats and Dirichlet solutions).
        jump = u.boundary_jump()
        bdist = np.minimum(
            (X - u.grid.origin).min(axis=1), (u.grid.box_max - X).min(axis=1)
        )
        if np.any(bdist < eps) and jump > 1e-9 * max(1.0, u.sup_bound):
            raise DomainError(
                "evaluation point closer than eps_inner to the grid boundary"
            )
        # Pairing the raw interpolant diverges once r drops below one cell
        # (the paired second difference of a piecewise-linear function is
        # O(1/r) there), so the model ball must cover at least the first
        # lattice shell.  Two cells keeps a margin for off-node points.
        if u.grid.h > eps / 2.0 + 1e-12:
            raise ValidationError("eps_inner must be at least 2 * grid spacing")
    al = singular_exponent(spec)
    if gamma is not None and not (2.0 + gamma - spec.alpha > _GAMMA_MARGIN):
        raise ValidationError(
            "gamma too small for this alpha: need 1 + gamma > alpha - 1 "
            f"with margin {_GAMMA_MARGIN} (gamma={gamma}, alpha={spec.alpha})"
        )

    u0, grad, hess = u.jets(X, grad=gamma is not None)
    rho_exp = (2.0 - al) if gamma is None else (2.0 + gamma - al)
    r_switch = min(1e-4, 0.25 * eps)
    abs_floor = 1e-3 * cfg.rel_tol * max(1.0, u.sup_bound)

    def run_level(level, idx):
        """Inner and shell integrals at the points ``X[idx]`` on one sphere
        rule; the drivers' owner k is the point ``idx[k]``."""
        theta, w = sphere_rule(spec.dim, level, half=True)
        wh = 0.5 * w  # ... so that sum(wh * even integrand) = ½ ∫_S dσ
        xs, u0s = X[idx], u0[idx]
        pts_idx = idx.tolist()
        hq = np.array([np.einsum("ki,ij,kj->k", theta, hess[i], theta) for i in pts_idx])
        ga = np.array([theta @ grad[i] for i in pts_idx]) if gamma is not None else None
        k = theta.shape[0]

        def paired_values(r, own):
            """u at x_own ± r theta — shape (m_r, m_theta) each."""
            xo = xs[own][:, None, :]
            step = r[:, None, None] * theta[None, :, :]
            up = np.asarray(u.value((xo + step).reshape(-1, spec.dim))).reshape(r.size, k)
            um = np.asarray(u.value((xo - step).reshape(-1, spec.dim))).reshape(r.size, k)
            return up, um

        def curvature_quotient(r, own):
            """(paired difference) / r^rho_exp, bounded down to r = 0.

            Grid fields always use the quadratic model; analytic fields
            switch to it only below r_switch, where the direct difference
            would lose all significance.
            """
            out = np.empty((r.size, k))
            small = (r < r_switch) | grid_like
            if np.any(small):
                if gamma is None:
                    out[small, :] = -hq[own[small]]
                else:
                    # Exact paired difference of the quadratic model; stable
                    # for all r > 0 (underflow regions are far below any
                    # quadrature node), and continuous — an asymptotic
                    # shortcut here would leave a jump the adaptive driver
                    # can never integrate past.
                    rs = np.maximum(r[small], 1e-30)
                    a = rs[:, None] * ga[own[small]]
                    b = 0.5 * rs[:, None] ** 2 * hq[own[small]]
                    out[small, :] = -(
                        _phi(a + b, gamma) - _phi(a - b, gamma)
                    ) / rs[:, None] ** (2.0 + gamma)
            big = ~small
            if np.any(big):
                rb = r[big]
                up, um = paired_values(rb, own[big])
                c = u0s[own[big]][:, None]
                if gamma is None:
                    out[big, :] = (2.0 * c - up - um) / rb[:, None] ** 2
                else:
                    p = _phi(c - up, gamma) + _phi(c - um, gamma)
                    out[big, :] = p / rb[:, None] ** (2.0 + gamma)
            return out

        def f_inner(rho, own):
            rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
            r = rho ** (1.0 / rho_exp)
            cq = curvature_quotient(r, own)
            cq *= radial_profile(spec, r[:, None], theta)
            cq *= wh
            return cq.sum(axis=1)

        def f_shell(t, own):
            r = np.exp(np.asarray(t, dtype=float))
            up, um = paired_values(r, own)
            c = u0s[own][:, None]
            if gamma is None:
                p = (c - up) + (c - um)
            else:
                p = _phi(c - up, gamma) + _phi(c - um, gamma)
            p *= radial_profile(spec, r[:, None], theta)
            p *= np.exp(-al * np.log(r))[:, None]
            p *= wh
            return p.sum(axis=1)

        inner_raw, inner_err, ok_in, _, n_in = adaptive_interval(
            _blocked(f_inner, k),
            [0.0] * idx.size,
            [eps ** rho_exp] * idx.size,
            cfg.rel_tol,
            abs_floor,
            cfg.max_depth,
            breakpoints=[()] * idx.size,
        )
        shell_val, shell_err, ok_sh, _, n_sh = adaptive_interval(
            _blocked(f_shell, k),
            [math.log(eps)] * idx.size,
            [math.log(R)] * idx.size,
            cfg.rel_tol,
            abs_floor,
            cfg.max_depth,
            breakpoints=[log_breaks[i] for i in pts_idx],
        )
        return (
            inner_raw / rho_exp, inner_err / rho_exp, shell_val, shell_err,
            ok_in & ok_sh, n_in + n_sh,
        )

    # Every point runs the coarsest sphere rule; in 2-D a point moves on to
    # the next finer rule until two successive levels agree.
    log_breaks = [tuple(math.log(t) for t in _feature_radii(u, spec, xp, eps, R)) for xp in X]
    levels = (0,) if spec.dim == 1 else (0, 1, 2)
    active = np.arange(P)
    inner_val, inner_err, shell_val, shell_err, radial_ok, neval = run_level(
        levels[0], active
    )
    angular_gap = np.zeros(P)
    for lev in levels[1:]:
        if not active.size:
            break
        iv, ie, sv, se, ok, n_lev = run_level(lev, active)
        gap = np.abs((iv + sv) - (inner_val[active] + shell_val[active]))
        inner_val[active], inner_err[active] = iv, ie
        shell_val[active], shell_err[active] = sv, se
        radial_ok[active], angular_gap[active] = ok, gap
        neval[active] += n_lev
        tol = np.fmax(10.0 * abs_floor, cfg.rel_tol * np.abs(iv + sv))
        active = active[~(gap <= tol)]

    # Far contribution and the operator-level tail bound.
    m_out, m_out_err = outer_mass(spec, R)
    if gamma is None:
        tb = 2.0 * u.sup_bound * (m_out + m_out_err)
    else:
        tb = (2.0 * u.sup_bound) ** (gamma + 1.0) * (m_out + m_out_err)

    far_val = np.zeros(P)
    far_err = np.zeros(P)
    if grid_like:
        box_dev = float(np.max(np.abs(u.grid.values - u.exterior_value)))
    for i, (xp, u0p) in enumerate(zip(X, u0.tolist())):
        if grid_like:
            far_ref = u.exterior_value
            tail_dev = 0.0 if R >= u.box_reach(xp) else box_dev
        else:
            far_ref = u.far_value
            tail_dev = (
                u.tail_bound_outside(max(R - float(np.linalg.norm(xp)), 0.0))
                if far_ref is not None
                else None
            )
        if far_ref is None:
            far_err[i] = tb
            continue
        diff = u0p - far_ref
        if gamma is None:
            far_val[i] = diff * m_out
            slope = 1.0
            far_mag = abs(diff)
        else:
            far_val[i] = float(_phi(diff, gamma)) * m_out
            slope = (gamma + 1.0) * (abs(diff) + tail_dev) ** gamma
            far_mag = abs(diff) ** (gamma + 1.0)
        far_err[i] = slope * tail_dev * m_out + far_mag * m_out_err

    err = inner_err + shell_err + far_err + angular_gap
    if grid_like:
        # Interpolation error over the shell, folded in as the C^{1,1}
        # modulus the second differences of the samples certify.
        d2 = 0.0
        for ax in range(u.dim):
            d2 = max(d2, float(np.max(np.abs(np.diff(u.grid.values, 2, axis=ax)))))
        m_shell = max(outer_mass(spec, eps)[0] - m_out, 0.0)
        err += 0.125 * u.dim * d2 * m_shell

    batch = EvalBatch(
        value=inner_val + shell_val + far_val,
        err_estimate=err,
        tail_bound=np.full(P, float(tb)),
        inner_contribution=inner_val,
        converged=radial_ok,
        neval=neval,
    )
    if not single:
        return batch
    require_converged(batch)
    return EvalResult(
        value=float(batch.value[0]),
        err_estimate=float(batch.err_estimate[0]),
        tail_bound=float(tb),
        inner_contribution=float(inner_val[0]),
        neval=int(neval[0]),
    )


def require_converged(batch: EvalBatch) -> None:
    """Raise NonConvergenceError for the first point of ``batch`` whose
    refinement hit ``max_depth``, carrying its value and error estimate."""
    bad = np.flatnonzero(~batch.converged)
    if bad.size:
        raise NonConvergenceError(
            "adaptive refinement hit max_depth before reaching tolerance",
            value=float(batch.value[bad[0]]),
            err_estimate=float(batch.err_estimate[bad[0]]),
        )


def eval_LK(
    u: Field, spec: KernelSpec, x, cfg: QuadratureConfig | None = None
) -> EvalResult | EvalBatch:
    """L_K u(x) as a principal value, with an honest error estimate.

    ``x`` of shape (dim,) returns an EvalResult and raises
    NonConvergenceError when refinement hits ``max_depth``; a point set of
    shape (P, dim) returns an EvalBatch that flags such points instead.
    """
    if cfg is None:
        cfg = default_config(u)
    return _eval_engine(u, spec, x, cfg, None)


def eval_FGK(
    u: Field,
    g: NonlinearitySpec,
    spec: KernelSpec,
    x,
    cfg: QuadratureConfig | None = None,
) -> EvalResult | EvalBatch:
    """F_{G,K} u(x) at one point or a point set, as ``eval_LK`` describes;
    the identity nonlinearity delegates to eval_LK."""
    if cfg is None:
        cfg = default_config(u)
    if g.g_kind == G_IDENTITY or g.gamma == 0.0:
        return eval_LK(u, spec, x, cfg)
    return _eval_engine(u, spec, x, cfg, float(g.gamma))
