"""Jump-kernel zoo and structural condition checks.

A kernel K is the density of a symmetric Lévy-type jump measure.  All
members of the zoo are even in every coordinate and positive away from the
origin; they differ in their angular profile and in how fast they blow up
at 0 (the ``singular_exponent``).  The module also provides numeric checks
for the structural conditions used by comparison arguments:

* ``check_levy_khintchine`` - finiteness of the second-moment integral,
* ``check_K1`` - a power-law lower bound with explicit constant,
* ``check_monotone_K2`` - strict decrease in a single coordinate modulus,

plus closed-form / semi-analytic kernel masses of outer balls and
half-spaces, which the moving-plane estimates are built from.

Normalization: every kernel is used with unit front constant; scalings
needed by second-order limits are applied by the sweep drivers, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma, gammaincc as _gammaincc

from . import quadrules
from .errors import DomainError, ValidationError

POWER_LAW = "PowerLaw"
EXPONENTIAL = "Exponential"
ANISOTROPIC_P = "AnisotropicPNorm"
MATRIX_TRANSFORMED = "MatrixTransformed"
DIAG_QUADRATIC = "DiagQuadratic"
VARIABLE_ORDER = "VariableOrder"

KERNEL_KINDS = (
    POWER_LAW,
    EXPONENTIAL,
    ANISOTROPIC_P,
    MATRIX_TRANSFORMED,
    DIAG_QUADRATIC,
    VARIABLE_ORDER,
)

CONDITION_LEVY_KHINTCHINE = "LevyKhintchine"
CONDITION_K1 = "K1"
CONDITION_K2 = "K2"
CONDITION_K2_PRIME = "K2prime"


@dataclass(frozen=True)
class KernelSpec:
    """Parametrized kernel.  Frozen so it can key caches.

    ``lambda_diag`` doubles as the diagonal of the transforming matrix
    (MatrixTransformed) and of the quadratic form (DiagQuadratic); it must
    be positive and ascending.  ``beta_order`` is the near-origin order of
    the VariableOrder kernel and must dominate ``alpha``.
    """

    kind: str
    dim: int
    alpha: float
    c_lower: float = 1.0
    p_norm: float = 2.0
    lambda_diag: tuple = ()
    beta_order: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise ValidationError("dim must be 1 or 2")
        if not (0.0 < self.alpha < 2.0):
            raise ValidationError("alpha must lie in (0,2)")
        if self.c_lower <= 0.0:
            raise ValidationError("c_lower must be positive")
        if self.p_norm < 1.0:
            raise ValidationError("p_norm must be at least 1")
        if self.kind in (MATRIX_TRANSFORMED, DIAG_QUADRATIC):
            lam = tuple(float(v) for v in self.lambda_diag)
            if len(lam) != self.dim:
                raise ValidationError("lambda_diag must have one entry per dimension")
            if any(v <= 0.0 for v in lam):
                raise ValidationError("lambda_diag entries must be positive")
            if any(b < a for a, b in zip(lam, lam[1:])):
                raise ValidationError("lambda_diag must be sorted ascending")
            object.__setattr__(self, "lambda_diag", lam)
        if self.kind == VARIABLE_ORDER:
            if self.beta_order is None:
                raise ValidationError("beta_order is required for VariableOrder kernels")
            if not (self.alpha <= self.beta_order < 2.0):
                raise ValidationError("beta_order must lie in [alpha, 2)")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a structural condition check.

    ``witness`` is a concrete sample demonstrating failure and must be
    absent when the condition holds.  ``detail`` records the sampling
    resolution the verdict was computed at.
    """

    condition: str
    holds: bool
    witness: tuple | None = None
    estimate: float | None = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValidationError("a holding condition must not carry a witness")


def singular_exponent(spec: KernelSpec) -> float:
    """Blow-up order of K at the origin: K ~ |y|^(-dim-exponent)."""
    if spec.kind == VARIABLE_ORDER:
        return float(spec.beta_order)
    return float(spec.alpha)


def _l2(y):
    return np.sqrt(np.sum(y * y, axis=-1))


def eval_kernel(spec: KernelSpec, y):
    """Pointwise kernel density.  ``y`` has shape (..., dim); y = 0 is rejected."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[-1] != spec.dim:
        raise ValidationError(f"points must have {spec.dim} components")
    r = _l2(y)
    if np.any(r == 0.0):
        raise DomainError("kernel is singular at y = 0")
    theta = y / r[..., None]
    return radial_profile(spec, r, theta) * r ** (-spec.dim - singular_exponent(spec))


def radial_profile(spec: KernelSpec, r, theta):
    """Bounded profile kappa with K(r * theta) = kappa(r, theta) * r^(-dim-exponent).

    Evaluating kappa instead of K keeps the inner-ball quadrature finite in
    floating point: the r-powers are factored out analytically, so no
    overflowing r^(-dim-alpha) is ever formed.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n, a = spec.dim, spec.alpha
    shape = np.broadcast(r, theta[..., 0]).shape
    if spec.kind == POWER_LAW:
        return np.full(shape, (2.0 - a) * spec.c_lower)
    if spec.kind == EXPONENTIAL:
        s = np.exp(-(r ** 2)) / _gamma((2.0 - a) / 2.0)
        return np.broadcast_to(s, shape).copy()
    if spec.kind == ANISOTROPIC_P:
        pn = np.sum(np.abs(theta) ** spec.p_norm, axis=-1) ** (1.0 / spec.p_norm)
        out = (2.0 - a) * pn ** (-(n + a))
        return np.broadcast_to(out, shape).copy()
    if spec.kind == MATRIX_TRANSFORMED:
        lam = np.asarray(spec.lambda_diag)
        det = float(np.prod(lam))
        tnorm = _l2(theta / lam)
        out = (2.0 - a) / det * tnorm ** (-(n + a))
        return np.broadcast_to(out, shape).copy()
    if spec.kind == DIAG_QUADRATIC:
        lam = np.asarray(spec.lambda_diag)
        q = np.sum(lam * theta * theta, axis=-1)
        out = (2.0 - a) * q
        return np.broadcast_to(out, shape).copy()
    if spec.kind == VARIABLE_ORDER:
        b = spec.beta_order
        rr = np.broadcast_to(r, shape)
        out = np.where(rr <= 1.0, 1.0, rr ** (b - a))
        return out.astype(float)
    raise ValidationError(f"unknown kernel kind {spec.kind!r}")


@lru_cache(maxsize=256)
def angular_mass(spec: KernelSpec, tol: float = 1e-10):
    """Integral over the unit sphere of the r-independent part of kappa.

    Only meaningful for kernels whose profile does not depend on r
    (everything except Exponential; VariableOrder uses its r >= 1 branch
    normalization, i.e. the plain alpha-order profile).
    """
    if spec.kind == EXPONENTIAL:
        raise ValidationError("Exponential kernel has no r-independent angular mass")
    if spec.kind == POWER_LAW:
        return (2.0 - spec.alpha) * spec.c_lower * quadrules.sphere_surface(spec.dim), 0.0
    if spec.kind == VARIABLE_ORDER:
        return quadrules.sphere_surface(spec.dim), 0.0
    if spec.kind == DIAG_QUADRATIC:
        # The sphere average of theta_i^2 is 1/dim.
        lam = np.asarray(spec.lambda_diag)
        sigma = quadrules.sphere_surface(spec.dim)
        return (2.0 - spec.alpha) * float(np.sum(lam)) / spec.dim * sigma, 0.0
    prev = None
    for level in range(7):
        theta, w = quadrules.sphere_rule(spec.dim, level)
        val = float(np.dot(w, radial_profile(spec, np.ones(w.size), theta)))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val, abs(val - prev)
        prev = val
    return prev, abs(val - prev)


def _exp_radial_outer(spec: KernelSpec, w):
    """Vectorized integral_r>w of e^{-r^2} r^{-1-alpha} dr for the Exponential kernel."""
    a = spec.alpha
    w = np.asarray(w, dtype=float)
    x = w ** 2
    # 0.5 * Gamma(-a/2, x) via one upward recurrence from parameter 1 - a/2 > 0.
    p = -a / 2.0
    upper = _gammaincc(p + 1.0, x) * _gamma(p + 1.0)
    return 0.5 * (upper - x ** p * np.exp(-x)) / p


def _variable_order_radial(spec: KernelSpec, w):
    """Integral over r > w of the VariableOrder radial factor: r^(-1-beta)
    below r = 1 and r^(-1-alpha) above, for w > 0."""
    w = np.asarray(w, dtype=float)
    a, b = spec.alpha, spec.beta_order
    return np.where(w < 1.0, (w ** (-b) - 1.0) / b + 1.0 / a, w ** (-a) / a)


def outer_mass(spec: KernelSpec, radius: float):
    """Kernel mass of the exterior of a ball: integral over |z| > radius of K.

    Returns ``(value, err)``; closed form wherever the radial part is a pure
    power, one numeric sphere/radial factor otherwise.
    """
    if radius <= 0.0:
        raise ValidationError("radius must be positive")
    n, a = spec.dim, spec.alpha
    if spec.kind == EXPONENTIAL:
        sigma = quadrules.sphere_surface(n)
        val = sigma / _gamma((2.0 - a) / 2.0) * float(_exp_radial_outer(spec, radius))
        return val, 1e-13 * abs(val)
    cang, cerr = angular_mass(spec)
    if spec.kind == VARIABLE_ORDER and radius < 1.0:
        radial = float(_variable_order_radial(spec, radius))
    else:
        radial = radius ** (-a) / a
    return cang * radial, cerr * radial


def halfspace_mass(spec: KernelSpec, dist: float, axis: int = 1):
    """Kernel mass of a half-space at distance ``dist`` from the origin.

    Computes the integral of K over {z : z_axis > dist}.  This is exactly
    the reflected-side mass that narrow-region and decay estimates compare
    against; for pure-power kernels it scales as dist^(-alpha) with an
    angular constant, and that structure is used directly.
    """
    if dist <= 0.0:
        raise ValidationError("dist must be positive")
    if not (1 <= axis <= spec.dim):
        raise ValidationError("axis out of range")
    n, a = spec.dim, spec.alpha
    ax = axis - 1
    if n == 1:
        val, err = outer_mass(spec, dist)
        return 0.5 * val, 0.5 * err

    prev = None
    for level in range(7):
        theta, w = quadrules.sphere_rule(n, level)
        ta = theta[:, ax]
        mask = ta > 1e-12
        tpos = ta[mask]
        kappa = radial_profile(spec, np.ones(tpos.size), theta[mask])
        wpos = w[mask]
        if spec.kind == EXPONENTIAL:
            radial = _exp_radial_outer(spec, dist / tpos)
            val = float(np.dot(wpos, kappa * radial))
        elif spec.kind == VARIABLE_ORDER:
            radial = _variable_order_radial(spec, dist / tpos)
            val = float(np.dot(wpos, kappa * radial))
        else:
            val = dist ** (-a) / a * float(np.dot(wpos, kappa * tpos ** a))
        if prev is not None and abs(val - prev) <= 1e-9 * max(abs(val), 1e-300):
            return val, abs(val - prev)
        prev = val
    return val, abs(val - prev)


def reflect_point(x, lam: float, axis: int = 1):
    """Mirror image of x across the hyperplane {x_axis = lam}."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., axis - 1] = 2.0 * lam - x[..., axis - 1]
    return out


def reflected_kernel_difference(spec: KernelSpec, x, y, lam: float, axis: int = 1):
    """K(x - y) - K(x - y^lam) for x, y on the same side of the plane.

    Under coordinate-wise monotonicity this difference is nonnegative
    whenever x and y both lie in {x_axis < lam}: the reflected point is
    farther from x in the axis coordinate and identical in the others.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(eval_kernel(spec, x - y) - eval_kernel(spec, x - reflect_point(y, lam, axis)))


# ----------------------------------------------------------------------------
# Condition checks
# ----------------------------------------------------------------------------


def check_levy_khintchine(spec: KernelSpec, rel_change_tol: float = 1e-8) -> ConditionReport:
    """Convergence of integral |y|^2 / (1 + |y|^2) K(y) dy by window doubling.

    The radial integrand is integrable at 0 for every exponent < 2 and the
    tail decays like r^(-1-alpha); the check widens a log-radius window
    until two successive values agree to ``rel_change_tol``.
    """
    n = spec.dim
    aloc = singular_exponent(spec)

    theta, w = quadrules.sphere_rule(n, level=2)

    def integrand(s, _owner):
        r = np.exp(s)
        kappa = radial_profile(spec, r[:, None], theta[None, :, :])
        cang = kappa @ w
        # r^{n-1} * r^2/(1+r^2) * r^{-n-aloc} * r (log jacobian)
        return cang * r ** (2.0 - aloc) / (1.0 + r ** 2)

    prev = None
    windows = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    for width in windows:
        val = float(quadrules.adaptive_interval(
            integrand, [-width], [width], rel_tol=1e-10, max_depth=28, breakpoints=[[0.0]]
        )[0][0])
        if prev is not None and abs(val - prev) <= rel_change_tol * max(abs(val), 1e-300):
            return ConditionReport(
                CONDITION_LEVY_KHINTCHINE,
                holds=True,
                estimate=val,
                detail={"window": width, "rel_change_tol": rel_change_tol},
            )
        prev = val
    return ConditionReport(
        CONDITION_LEVY_KHINTCHINE,
        holds=False,
        witness=(windows[-1], prev),
        estimate=prev,
        detail={"window": windows[-1], "rel_change_tol": rel_change_tol},
    )


def check_K1(
    spec: KernelSpec,
    sample_count: int = 256,
    seed: int = 0,
    floor: float = 1e-8,
) -> ConditionReport:
    """Power-law lower bound K(y) >= (2 - alpha) c |y|^(-dim-alpha).

    Fits the largest admissible c from the normalized ratio on moderate
    radii (|y| <= 10), then demands the ratio not collapse over the largest
    sampled decade (radii up to 1e3).  Gaussian-damped kernels fail with a
    large-|y| witness; pure power kernels recover their constant exactly.
    """
    rng = np.random.default_rng(seed)
    radii = np.logspace(-3.0, 3.0, 61)
    dirs_per_radius = max(2, sample_count // radii.size)
    n, a = spec.dim, spec.alpha

    ratios = []
    samples = []
    for r in radii:
        vecs = rng.normal(size=(dirs_per_radius, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs[0] = np.eye(n)[0]
        pts = r * vecs
        ratio = eval_kernel(spec, pts) * r ** (n + a) / (2.0 - a)
        ratios.append(ratio)
        samples.append(pts)
    ratios = np.array(ratios)

    bulk = ratios[radii <= 10.0]
    c_fit = float(np.min(bulk))
    top = ratios[radii >= 100.0]
    top_min = float(np.min(top))
    holds = c_fit > 0.0 and top_min >= floor * c_fit
    detail = {
        "radii": (float(radii[0]), float(radii[-1]), int(radii.size)),
        "directions_per_radius": dirs_per_radius,
        "floor": floor,
        "top_decade_min_ratio": top_min,
    }
    if holds:
        return ConditionReport(CONDITION_K1, True, estimate=c_fit, detail=detail)
    i, j = np.unravel_index(np.argmin(ratios), ratios.shape)
    witness = tuple(float(v) for v in samples[i][j])
    return ConditionReport(CONDITION_K1, False, witness=witness, estimate=c_fit, detail=detail)


def check_axis_monotonicity(
    kernel_fn,
    dim: int,
    axis: int,
    sample_count: int = 200,
    seed: int = 0,
    scale: float = 2.0,
) -> ConditionReport:
    """Core of the coordinate-monotonicity check, on a raw callable.

    Samples pairs 0 < |y_i| < |ybar_i| at shared off-axis coordinates and
    requires a strict decrease, plus a negative centered difference of
    K as a function of y_i^2.  ``kernel_fn`` maps (m, dim) arrays to values.
    """
    rng = np.random.default_rng(seed)
    ax = axis - 1
    failures = []
    checked = 0
    for _ in range(sample_count):
        rest = rng.uniform(-scale, scale, size=dim)
        lo, hi = np.sort(rng.uniform(1e-3, scale, size=2))
        if hi - lo < 1e-9:
            continue
        y1 = rest.copy()
        y2 = rest.copy()
        y1[ax] = lo
        y2[ax] = hi
        k1, k2 = kernel_fn(np.stack([y1, y2]))
        checked += 1
        if not k1 > k2:
            failures.append((tuple(y1), tuple(y2), float(k1), float(k2)))
            break
        # derivative in s = y_i^2 at the midpoint
        s_mid = 0.5 * (lo ** 2 + hi ** 2)
        ds = 0.25 * (hi ** 2 - lo ** 2)
        ya = rest.copy()
        yb = rest.copy()
        ya[ax] = math.sqrt(s_mid - ds)
        yb[ax] = math.sqrt(s_mid + ds)
        ka, kb = kernel_fn(np.stack([ya, yb]))
        if not (kb - ka) / (2.0 * ds) < 0.0:
            failures.append((tuple(ya), tuple(yb), float(ka), float(kb)))
            break
    detail = {"sample_count": checked, "axis": axis, "scale": scale}
    if failures:
        return ConditionReport(CONDITION_K2, False, witness=failures[0], detail=detail)
    return ConditionReport(CONDITION_K2, True, detail=detail)


def check_monotone_K2(
    spec: KernelSpec, axis: int = 1, sample_count: int = 200, seed: int = 0
) -> ConditionReport:
    """Strict decrease of K in |y_axis| at fixed remaining coordinates."""
    if not (1 <= axis <= spec.dim):
        raise ValidationError("axis out of range")
    return check_axis_monotonicity(
        lambda pts: eval_kernel(spec, pts), spec.dim, axis, sample_count, seed
    )
