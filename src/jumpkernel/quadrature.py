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
  seeded with breakpoints at radii where the field or kernel kinks (and,
  for analytic fields, at three log-uniform cuts);
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

Lattice nodes of a grid field have a second path, ``eval_FGK_nodes``.  Its
inner ball is the engine's own drive (``_inner_drive``, shared by both
paths).  Its outer part |y - x| > eps is a sum over the lattice cells: u_h
is multilinear in each cell and equals the exterior value beyond the box,
so

    ∫_{|z|>eps} G(u_i - u_h) K dz = G(u_i - e) outer_mass(eps)
                                  + Σ_cells ∫_{cell ∖ B_eps} [G(u_i - u_h) - G(u_i - e)] K dz,

and the points and kernel weights of each cell depend only on its offset
from the node.  ``cell_table`` builds them once per lattice: one tensor
Gauss rule for far cells, higher-order tensor rules near the ball, and
polar rules about the node, split at corners and circle crossings, for
cells cut by |z| = eps (or by VariableOrder's |z| = 1).  A pass is then a
gather of cell corner values and a row-local weighted sum per node, in
blocks of nodes.  The finite-difference-quadrature idea of Huang & Oberman
(SINUM 2014), with the points kept so that a nonlinear G applies at each.
The solver uses this path for its PV passes and, with G = id on a padded
hat, for the near entries of its stencil.
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
    eval_kernel,
    outer_mass,
    radial_profile,
    singular_exponent,
)
from .nonlinearity import G_IDENTITY, NonlinearitySpec
from .quadrules import _leggauss, adaptive_interval, sphere_rule, tensor_rule

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
    planes near x, and the box geometry of grid fields.

    Analytic fields declare no kinks; they get three log-uniform cuts of
    (eps, R) instead.  A drive whose first panel spans the whole shell can
    accept a Kronrod and a Gauss sum that agree by accident (on a Gaussian,
    errors of 1e-4 against estimates of 1e-6 were seen); narrower seed
    panels resolve the field's decay before any of them is accepted.
    """
    feats = set()
    if spec.kind == VARIABLE_ORDER:
        feats.add(1.0)
    if u.grid is None:
        feats.update(np.exp(np.linspace(math.log(eps), math.log(R), 5)[1:-1]).tolist())
    else:
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


def _check_lattice(u: Field, X, eps: float):
    """The lattice preconditions of the quadratic model ball at the points X."""
    # Near the box boundary the local model reaches into the exterior;
    # that is only meaningful when the exterior constant continues the
    # nodal data continuously (true for hats and Dirichlet solutions).
    jump = u.boundary_jump()
    bdist = np.minimum((X - u.grid.origin).min(axis=1), (u.grid.box_max - X).min(axis=1))
    if np.any(bdist < eps) and jump > 1e-9 * max(1.0, u.sup_bound):
        raise DomainError("evaluation point closer than eps_inner to the grid boundary")
    # Pairing the raw interpolant diverges once r drops below one cell
    # (the paired second difference of a piecewise-linear function is
    # O(1/r) there), so the model ball must cover at least the first
    # lattice shell.  Two cells keeps a margin for off-node points.
    if u.grid.h > eps / 2.0 + 1e-12:
        raise ValidationError("eps_inner must be at least 2 * grid spacing")


def _check_gamma(spec: KernelSpec, gamma):
    if gamma is not None and not (2.0 + gamma - spec.alpha > _GAMMA_MARGIN):
        raise ValidationError(
            "gamma too small for this alpha: need 1 + gamma > alpha - 1 "
            f"with margin {_GAMMA_MARGIN} (gamma={gamma}, alpha={spec.alpha})"
        )


def _abs_floor(u: Field, cfg: QuadratureConfig) -> float:
    return 1e-3 * cfg.rel_tol * max(1.0, u.sup_bound)


def _paired_values(u: Field, xs, theta, r, own):
    """u at x_own ± r theta — shape (m_r, m_theta) each."""
    k = theta.shape[0]
    xo = xs[own][:, None, :]
    step = r[:, None, None] * theta[None, :, :]
    up = np.asarray(u.value((xo + step).reshape(-1, u.dim))).reshape(r.size, k)
    um = np.asarray(u.value((xo - step).reshape(-1, u.dim))).reshape(r.size, k)
    return up, um


def _inner_drive(u: Field, spec: KernelSpec, xs, u0s, grad, hess, level, cfg, gamma):
    """The inner ball |y - x| <= eps at the points ``xs`` on one sphere rule.

    ``u0s``, ``grad`` and ``hess`` are the jets at ``xs`` (``grad`` is None
    for L_K).  Returns (P,) arrays ``(value, err, converged)`` and the
    per-point node counts of the adaptive drive.
    """
    eps = cfg.eps_inner
    al = singular_exponent(spec)
    rho_exp = (2.0 - al) if gamma is None else (2.0 + gamma - al)
    r_switch = min(1e-4, 0.25 * eps)
    grid_like = u.grid is not None
    theta, w = sphere_rule(spec.dim, level, half=True)
    wh = 0.5 * w  # ... so that sum(wh * even integrand) = ½ ∫_S dσ
    hq = np.array([np.einsum("ki,ij,kj->k", theta, H, theta) for H in hess])
    ga = np.array([theta @ g for g in grad]) if gamma is not None else None
    k = theta.shape[0]
    P = len(xs)

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
            up, um = _paired_values(u, xs, theta, rb, own[big])
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

    raw, err, ok, _, n = adaptive_interval(
        _blocked(f_inner, k),
        [0.0] * P,
        [eps ** rho_exp] * P,
        cfg.rel_tol,
        _abs_floor(u, cfg),
        cfg.max_depth,
        breakpoints=[()] * P,
    )
    return raw / rho_exp, err / rho_exp, ok, n


def _by_sphere_levels(dim, run, P, abs_floor, rel_tol):
    """Drive ``run(level, idx)`` over the sphere rules.

    ``run`` returns (len(idx),) arrays ``(value, err, inner, converged,
    neval)`` for the points ``idx``.  Every point runs the coarsest rule; in
    2-D a point moves on to the next finer rule until two successive levels
    agree.  Returns the last level's arrays of every point and its angular
    gap, the value change between its last two levels.
    """
    levels = (0,) if dim == 1 else (0, 1, 2)
    active = np.arange(P)
    value, err, inner, ok, neval = run(levels[0], active)
    gap = np.zeros(P)
    for lev in levels[1:]:
        if not active.size:
            break
        v, e, iv, o, n = run(lev, active)
        g = np.abs(v - value[active])
        value[active], err[active], inner[active] = v, e, iv
        ok[active], gap[active] = o, g
        neval[active] += n
        tol = np.fmax(10.0 * abs_floor, rel_tol * np.abs(v))
        active = active[~(g <= tol)]
    return value, err, inner, ok, neval, gap


def _lattice_model_err(u: Field, spec: KernelSpec, eps: float, m_out: float) -> float:
    """Interpolation error over the shell eps < |y - x| < R, whose outer
    mass is ``m_out``, folded in as the C^{1,1} modulus the second
    differences of the samples certify."""
    d2 = 0.0
    for ax in range(u.dim):
        d2 = max(d2, float(np.max(np.abs(np.diff(u.grid.values, 2, axis=ax)))))
    m_shell = max(outer_mass(spec, eps)[0] - m_out, 0.0)
    return 0.125 * u.dim * d2 * m_shell


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
        _check_lattice(u, X, eps)
    al = singular_exponent(spec)
    _check_gamma(spec, gamma)

    u0, grad, hess = u.jets(X, grad=gamma is not None)
    abs_floor = _abs_floor(u, cfg)

    def run_level(level, idx):
        """Inner plus shell at the points ``X[idx]`` on one sphere rule;
        the drivers' owner k is the point ``idx[k]``."""
        xs, u0s = X[idx], u0[idx]
        inner_val, inner_err, ok_in, n_in = _inner_drive(
            u, spec, xs, u0s, None if grad is None else grad[idx], hess[idx],
            level, cfg, gamma,
        )
        theta, w = sphere_rule(spec.dim, level, half=True)
        wh = 0.5 * w

        def f_shell(t, own):
            r = np.exp(np.asarray(t, dtype=float))
            up, um = _paired_values(u, xs, theta, r, own)
            c = u0s[own][:, None]
            if gamma is None:
                p = (c - up) + (c - um)
            else:
                p = _phi(c - up, gamma) + _phi(c - um, gamma)
            p *= radial_profile(spec, r[:, None], theta)
            p *= np.exp(-al * np.log(r))[:, None]
            p *= wh
            return p.sum(axis=1)

        shell_val, shell_err, ok_sh, _, n_sh = adaptive_interval(
            _blocked(f_shell, theta.shape[0]),
            [math.log(eps)] * idx.size,
            [math.log(R)] * idx.size,
            cfg.rel_tol,
            abs_floor,
            cfg.max_depth,
            breakpoints=[log_breaks[i] for i in idx.tolist()],
        )
        return (
            inner_val + shell_val, inner_err + shell_err, inner_val,
            ok_in & ok_sh, n_in + n_sh,
        )

    log_breaks = [tuple(math.log(t) for t in _feature_radii(u, spec, xp, eps, R)) for xp in X]
    value, err, inner_val, radial_ok, neval, angular_gap = _by_sphere_levels(
        spec.dim, run_level, P, abs_floor, cfg.rel_tol
    )

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

    err = err + far_err + angular_gap
    if grid_like:
        err += _lattice_model_err(u, spec, eps, m_out)

    batch = EvalBatch(
        value=value + far_val,
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


# ----------------------------------------------------------------------------
# Lattice nodes by cells
# ----------------------------------------------------------------------------

# Gauss orders of the cell rule, per axis (per angle and per radius on the
# polar pieces of cut cells).  Cells within _NEAR_CELLS spacings of the
# inner ball and cells cut by a circle where the integrand kinks take
# _CELL_ORDER; the other cells take _FAR_ORDER of their dimension.  Every
# rule is compared with half its order for the error estimate.
_CELL_ORDER = 8
_FAR_ORDER = {1: 8, 2: 4}
_NEAR_CELLS = 2.0
# Elements (nodes x cells x points) per block of a cell pass.
_NODE_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class CellTable:
    """The outer part of F_{G,K} at the nodes of one lattice, as a table.

    The cell with lower corner at lattice offset ``o`` from a node covers
    ``z in h [o, o + 1]`` about it.  Its quadrature points, held as the
    multilinear basis of the cell corners at them, and their weights (rule
    weight times K(z)) depend only on ``o``, so one table serves every node
    and every pass.  Every rule is a pair ``((basis, weights), (basis,
    weights))``: the rule and its half-order companion.

    ``far`` holds the one tensor rule of the far cells, with one weight row
    per offset of the box ``[-(n-1), n-2]^dim`` (zero rows for the other
    cells).  ``near`` lists the other cells, grouped by point count, as
    ``(offsets, rule pair)`` with per-offset basis (k, q, 2^dim) and weights
    (k, q); every listed offset lies in ``[-reach, reach)^dim``.
    """

    spec: KernelSpec
    h: float
    shape: tuple
    eps: float
    mass: tuple  # outer_mass(spec, eps)
    far: tuple
    near: tuple
    reach: int


def _orders(order):
    """A rule's order and its half-order companion."""
    return order, max(2, order // 2)


def _corners(dim):
    """The corners of the unit cell, shape (2^dim, dim), in row-major order."""
    return np.indices((2,) * dim).reshape(dim, -1).T


def _basis(frac):
    """Multilinear hat weights of the cell corners at fractions ``frac``
    (shape (..., dim)): shape (..., 2^dim)."""
    corners = _corners(frac.shape[-1])
    return np.prod(np.where(corners == 1, frac[..., None, :], 1.0 - frac[..., None, :]), axis=-1)


def _ray_span(lo, hi, phi):
    """Entry and exit radii of the rays from 0 at angles ``phi`` through
    the box [lo, hi] (which does not contain 0 in its interior)."""
    d = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1, t2 = lo / d, hi / d
    t1 = np.where(d == 0.0, -np.inf, t1)
    t2 = np.where(d == 0.0, np.inf, t2)
    return np.minimum(t1, t2).max(axis=-1), np.maximum(t1, t2).min(axis=-1)


def _polar_rule(lo, hi, radii, order):
    """Points and area weights of the cell [lo, hi] outside B_eps
    (``radii[0]`` is eps), by Gauss rules in angle and radius about 0.

    The angles are split at the cell's corners and where a circle of
    ``radii`` crosses its edges, so each angular piece has one entry edge,
    one exit edge and a fixed set of circles between them; the radial
    range is split at those circles.
    """
    eps = radii[0]
    if lo.size == 1:
        s = 1.0 if lo[0] >= 0.0 else -1.0
        a, b = sorted((abs(lo[0]), abs(hi[0])))
        edges = [a] + [rho for rho in radii if a < rho < b] + [b]
        pieces = [tensor_rule(np.array([ra]), np.array([rb]), order)
                  for ra, rb in zip(edges, edges[1:]) if rb > eps]
        return s * np.concatenate([p for p, _ in pieces]), np.concatenate([w for _, w in pieces])
    x, w = _leggauss(order)
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    centre = 0.5 * (lo + hi)
    phi_c = math.atan2(centre[1], centre[0])

    def wrap(phi):
        return phi_c + np.remainder(np.asarray(phi) - phi_c + math.pi, 2.0 * math.pi) - math.pi

    cuts = list(wrap(np.arctan2(corners[:, 1], corners[:, 0])))
    for rho in radii:
        for ax in range(2):
            for c in (lo[ax], hi[ax]):
                if abs(c) >= rho:
                    continue
                s = math.sqrt(rho * rho - c * c)
                for t in (s, -s):
                    if lo[1 - ax] < t < hi[1 - ax]:
                        p = (c, t) if ax == 0 else (t, c)
                        cuts.append(float(wrap(math.atan2(p[1], p[0]))))
    cuts = np.unique(cuts)
    pts, wts = [], []
    for pa, pb in zip(cuts, cuts[1:]):
        if pb - pa <= 1e-14:
            continue
        phi = 0.5 * (pa + pb) + 0.5 * (pb - pa) * x
        wphi = 0.5 * (pb - pa) * w
        r_in, r_out = _ray_span(lo, hi, phi)
        mid_in, mid_out = _ray_span(lo, hi, np.array([0.5 * (pa + pb)]))
        bounds = [r_in] + [np.full(order, rho) for rho in radii
                           if mid_in[0] < rho < mid_out[0]] + [r_out]
        for ra, rb in zip(bounds, bounds[1:]):
            if np.all(rb <= eps * (1.0 + 1e-12)):
                continue
            r = 0.5 * (ra + rb)[:, None] + 0.5 * (rb - ra)[:, None] * x[None, :]
            wr = wphi[:, None] * 0.5 * (rb - ra)[:, None] * w[None, :] * r
            pts.append(np.stack([r * np.cos(phi)[:, None], r * np.sin(phi)[:, None]], axis=-1)
                       .reshape(-1, 2))
            wts.append(wr.ravel())
    return np.concatenate(pts), np.concatenate(wts)


def cell_table(spec: KernelSpec, h: float, shape, eps: float) -> CellTable:
    """The cell table of a lattice of spacing ``h`` and ``shape`` nodes for
    the inner-ball radius ``eps``: built once, used by every node pass."""
    dim = spec.dim
    shape = tuple(int(n) for n in shape)
    radii = [eps] + ([1.0] if spec.kind == VARIABLE_ORDER and 1.0 > eps else [])
    near_r = eps + _NEAR_CELLS * h

    def classify(offsets):
        """Distances from the node to the nearest and farthest point of
        each cell, and whether a circle of ``radii`` cuts the cell."""
        lo, hi = h * offsets, h * (offsets + 1.0)
        dmin = np.sqrt(np.sum(np.clip(0.0, lo, hi) ** 2, axis=-1))
        dmax = np.sqrt(np.sum(np.maximum(lo * lo, hi * hi), axis=-1))
        cut = np.zeros(len(offsets), dtype=bool)
        for rho in radii:
            cut |= (dmin < rho) & (rho < dmax)
        return dmin, dmax, cut

    # Far cells: one shared tensor rule over the offset box.
    box = np.stack(np.meshgrid(*[np.arange(-(n - 1), n - 1) for n in shape],
                               indexing="ij"), axis=-1).reshape(-1, dim)
    dmin, _, cut = classify(box)
    is_far = ~cut & (dmin >= near_r)
    far = []
    for order in _orders(_FAR_ORDER[dim]):
        xi, wxi = tensor_rule(np.zeros(dim), np.ones(dim), order)
        wt = np.zeros((len(box), len(wxi)))
        wt[is_far] = h ** dim * wxi * eval_kernel(spec, h * (box[is_far, None, :] + xi))
        far.append((_basis(xi), wt))

    # Near and cut cells: one rule per offset, grouped by point count.
    reach = int(math.ceil(max(radii[-1], near_r) / h)) + 1
    off = np.stack(np.meshgrid(*[np.arange(-reach, reach)] * dim, indexing="ij"),
                   axis=-1).reshape(-1, dim)
    dmin, dmax, cut = classify(off)
    listed = cut | ((dmax > eps) & (dmin < near_r))
    off, polar = off[listed], cut[listed]
    lo, hi = h * off, h * (off + 1.0)

    def weighted(z, wz, lo):
        return _basis((z - lo[..., None, :]) / h), wz * eval_kernel(spec, z)

    # The uncut cells take their tensor rules in one batch per order.
    tensor = [weighted(*tensor_rule(lo[~polar], hi[~polar], order), lo[~polar])
              for order in _orders(_CELL_ORDER)]
    row = np.cumsum(~polar) - 1
    groups = {}
    for k, o in enumerate(off):
        if polar[k]:
            pair = [weighted(*_polar_rule(lo[k], hi[k], radii, order), lo[k])
                    for order in _orders(_CELL_ORDER)]
        else:
            pair = [(basis[row[k]], wk[row[k]]) for basis, wk in tensor]
        groups.setdefault(len(pair[0][1]), []).append((o, pair))
    near = tuple(
        (np.array([o for o, _ in cells]),
         tuple((np.array([p[i][0] for _, p in cells]), np.array([p[i][1] for _, p in cells]))
               for i in range(2)))
        for cells in groups.values()
    )
    return CellTable(
        spec=spec, h=float(h), shape=shape, eps=float(eps),
        mass=outer_mass(spec, eps), far=tuple(far), near=near, reach=reach,
    )



def _at_points(cv, basis):
    """u_h at a rule's points from the corner values ``cv`` of its cells.
    The corners are added one at a time, element by element, so a point's
    value does not depend on what else is in the array."""
    out = cv[..., 0, None] * basis[..., 0]
    for k in range(1, basis.shape[-1]):
        out += cv[..., k, None] * basis[..., k]
    return out


def _cell_sums(u_h, weights, ui, g0, gamma):
    """Per-cell sums over the last axis of weights * [G(u_i - u_h) - G(u_i - e)],
    with ``g0 = G(u_i - e)``; ``ui`` and ``g0`` broadcast against ``u_h``."""
    t = ui - u_h
    if gamma is not None:
        t = _phi(t, gamma)
    t -= g0
    t *= weights
    return t.sum(axis=-1)


def _cell_pass(table: CellTable, values, e, index, gamma):
    """The outer part |z| > eps at the lattice nodes ``index`` (shape
    (P, dim)) of the samples ``values`` with exterior value ``e``: (P,)
    arrays of values and of their cell-rule error.

    Every node is one row: its cells are gathered, summed per cell and
    then over cells, so its value does not depend on the other nodes.
    """
    dim = values.ndim
    n = np.array(values.shape)
    P = len(index)
    # Corner values of every cell, on the cells of the lattice padded by
    # ``reach`` cells of constant e: u_h is e outside the box, also where
    # the box face does not continue e.
    pad = table.reach
    box_cells = np.stack([values[tuple(slice(k, n_d - 1 + k) for n_d, k in zip(n, c))]
                          for c in _corners(dim)], axis=-1)
    cv = np.full(tuple(n - 1 + 2 * pad) + (2 ** dim,), float(e))
    cv[tuple(slice(pad, pad + n_d - 1) for n_d in n)] = box_cells
    ui = values[tuple(index.T)]
    g0 = ui - e if gamma is None else _phi(ui - e, gamma)
    m, m_err = table.mass
    value = g0 * m
    err = np.abs(g0) * m_err

    # Far cells: the lattice cells that are not constant e; all others add 0.
    active = np.argwhere(np.any(box_cells != e, axis=-1))
    cva = box_cells[tuple(active.T)]
    far_u = [_at_points(cva, basis) for basis, _ in table.far]
    width = max([len(active) * sum(u.shape[1] for u in far_u)]
                + [len(o) * sum(w.shape[1] for _, w in pair) for o, pair in table.near])
    B = max(1, _NODE_BLOCK // max(width, 1))
    for s in range(0, P, B):
        blk = slice(s, s + B)
        idx = index[blk]
        u_b, g_b = ui[blk, None, None], g0[blk, None, None]
        flat = np.ravel_multi_index(
            tuple(np.moveaxis(active[None] - idx[:, None] + (n - 1), -1, 0)), tuple(2 * n - 2)
        )

        def rule_pairs():
            yield [(uh[None], w[flat]) for uh, (_, w) in zip(far_u, table.far)]
            for offsets, pair in table.near:
                cvn = cv[tuple(np.moveaxis(idx[:, None, :] + offsets[None] + pad, -1, 0))]
                yield [(_at_points(cvn, basis), w[None]) for basis, w in pair]

        for pair in rule_pairs():
            fine, coarse = (_cell_sums(uh, w, u_b, g_b, gamma) for uh, w in pair)
            value[blk] += fine.sum(axis=1)
            err[blk] += np.abs(fine - coarse).sum(axis=1)
    return value, err


def eval_FGK_nodes(
    u: Field,
    g: NonlinearitySpec,
    spec: KernelSpec,
    index,
    cfg: QuadratureConfig,
    table: CellTable | None = None,
) -> EvalBatch:
    """F_{G,K} u at lattice nodes of the grid field ``u``, by cells.

    ``index`` holds the nodes' lattice multi-indices, shape (P, dim).  The
    inner ball is the engine's own drive (``_inner_drive``) on the engine's
    sphere levels; the outer part is

        G(u_i - e) outer_mass(eps) + Σ_cells ∫_{cell ∖ B_eps} [G(u_i - u_h) - G(u_i - e)] K dz

    over the lattice cells, whose bracket vanishes outside the box (u_h = e
    there), by the fixed rules of ``table`` (built by ``cell_table`` when
    not given).  The error estimate adds the inner drive's error, the
    cell rules against their half-order companions (with the error of
    ``outer_mass``), the inner part's angular gap and the engine's lattice
    model term; ``converged`` is the inner drive's.  Nothing is truncated,
    so ``tail_bound`` is 0.
    """
    gamma = None if g.g_kind == G_IDENTITY or g.gamma == 0.0 else float(g.gamma)
    if u.grid is None or u.dim != spec.dim:
        raise ValidationError("node evaluation needs a grid field of the kernel's dimension")
    index = np.asarray(index, dtype=np.intp).reshape(-1, spec.dim)
    if np.any(index < 0) or np.any(index >= np.array(u.grid.shape)):
        raise ValidationError("node index outside the lattice")
    eps = cfg.eps_inner
    X = u.grid.origin + u.grid.h * index
    _check_lattice(u, X, eps)
    _check_gamma(spec, gamma)
    if table is None:
        table = cell_table(spec, u.grid.h, u.grid.shape, eps)
    elif (table.spec, table.h, table.shape, table.eps) != (spec, u.grid.h, u.grid.shape, eps):
        raise ValidationError("the cell table was built for another lattice or kernel")
    outer, outer_err = _cell_pass(table, u.grid.values, u.exterior_value, index, gamma)

    u0, grad, hess = u.jets(X, grad=gamma is not None)

    def run_level(level, idx):
        iv, ie, ok, n = _inner_drive(
            u, spec, X[idx], u0[idx], None if grad is None else grad[idx], hess[idx],
            level, cfg, gamma,
        )
        return iv + outer[idx], ie, iv, ok, n

    value, err, inner, ok, neval, gap = _by_sphere_levels(
        spec.dim, run_level, len(index), _abs_floor(u, cfg), cfg.rel_tol
    )
    err = err + outer_err + gap
    err += _lattice_model_err(u, spec, eps, outer_mass(spec, cfg.r_outer)[0])
    return EvalBatch(
        value=value, err_estimate=err, tail_bound=np.zeros(len(index)),
        inner_contribution=inner, converged=ok, neval=neval,
    )
