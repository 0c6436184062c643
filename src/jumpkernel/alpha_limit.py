"""alpha -> 2 limit studies: scaled kernel sweeps against local references.

As the singularity exponent approaches 2 the nonlocal operators collapse to
second-order differential operators; with the right scalar prefactor the
Gaussian-weighted kernel reproduces -Laplacian u, the p-norm kernel
reproduces -C_{n,p} Laplacian u, and the diagonally transformed kernel
reproduces -sum lambda_i^2 d_ii u.  A sweep takes the ``KernelSpec`` of
one of those kinds and varies only its ``alpha``, with Richardson
extrapolation in (2 - alpha); every other kind (DiagQuadratic included) has
no second-order limit here and is rejected.  The module also gives C_{n,p}
and omega_n (the sphere surface in the 4n/omega_n prefactor) in closed
form, with the norm-equivalence bracket for C_{n,p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import gamma as _gamma

from .errors import NonConvergenceError, ValidationError
from .fields import Field, gaussian_bump
from .kernels import (
    ANISOTROPIC_P,
    EXPONENTIAL,
    MATRIX_TRANSFORMED,
    KernelSpec,
)
from .quadrature import QuadratureConfig, eval_LK
from .quadrules import richardson_fit, sphere_surface

__all__ = [
    "LIMIT_FAMILIES",
    "AlphaSweepReport",
    "DEFAULT_ALPHAS",
    "gamma_prefactor",
    "sweep_alpha",
    "anisotropic_constant",
    "norm_equivalence_bracket",
    "calibrate_omega_n",
    "inner_ball_ratio",
]

# Each kernel kind with a second-order limit -> the family name reports carry.
LIMIT_FAMILIES = {
    EXPONENTIAL: "ExponentialScaled",
    ANISOTROPIC_P: "Anisotropic",
    MATRIX_TRANSFORMED: "MatrixDiag",
}

DEFAULT_ALPHAS = (1.9, 1.95, 1.99)


@dataclass(frozen=True)
class AlphaSweepReport:
    alpha_list: Tuple[float, ...]
    values: Tuple[float, ...]
    extrapolated_limit: float
    reference: float
    rel_error: Optional[float]
    flagged: bool
    family: str

    def __post_init__(self):
        a = self.alpha_list
        if any(not (0.0 < v < 2.0) for v in a):
            raise ValidationError("alpha values must lie in (0,2)")
        if any(b <= c for b, c in zip(a[1:], a[:-1])):
            raise ValidationError("alpha_list must be strictly increasing")


def gamma_prefactor(alpha: float) -> float:
    """1/Gamma((2-alpha)/2): the scaling that tames the Gaussian-weighted
    kernel's vanishing mass as alpha -> 2."""
    if not (0.0 < alpha < 2.0):
        raise ValidationError("alpha must lie in (0,2)")
    return 1.0 / math.gamma((2.0 - alpha) / 2.0)


def _prefactor(spec: KernelSpec) -> float:
    if spec.kind == EXPONENTIAL:
        return 4.0 * spec.dim / sphere_surface(spec.dim)
    if spec.kind == ANISOTROPIC_P:
        # The paired Taylor expansion halves the second-order term, so the
        # raw C_n = 1 operator tends to -(1/2) C_{n,p} Laplacian u; the
        # factor 2 restores the -C_{n,p} Laplacian u normalization the limit
        # is stated against.
        return 2.0
    return 2.0 * spec.dim / sphere_surface(spec.dim)


def _reference(spec: KernelSpec, u: Field, x) -> float:
    hess = np.asarray(u.hessian(x), dtype=float)
    diag = np.diag(hess)
    if spec.kind == MATRIX_TRANSFORMED:
        lams = np.asarray(spec.lambda_diag, dtype=float)
        return float(-np.sum(lams ** 2 * diag))
    if spec.kind == ANISOTROPIC_P:
        return float(-anisotropic_constant(u.dim, spec.p_norm) * np.sum(diag))
    return float(-np.sum(diag))


def sweep_alpha(
    u: Field,
    kernel: KernelSpec,
    x,
    alpha_list: Sequence[float] = DEFAULT_ALPHAS,
    cfg: Optional[QuadratureConfig] = None,
) -> AlphaSweepReport:
    """Evaluate the scaled operator along alpha_list and extrapolate to 2.

    Each step evaluates ``kernel`` with only its ``alpha`` replaced, so the
    sweep runs on the configured spec; its kind must have a second-order
    limit (a key of ``LIMIT_FAMILIES``), else ``ValidationError``.

    The inner-ball radius shrinks like sqrt(2 - alpha) along the sweep so the
    local Taylor error stays uniform while the singularity strengthens; a
    sweep value that fails to converge is retried with a halved radius before
    giving up.  The report is flagged when the linear and quadratic
    extrapolants disagree by more than 1%.
    """
    if kernel.kind not in LIMIT_FAMILIES:
        raise ValidationError(
            f"kernel.kind: {kernel.kind} has no second-order limit family"
        )
    if u.grid is not None:
        raise ValidationError("alpha sweep needs a smooth closed-form field")
    alphas = [float(a) for a in alpha_list]
    if sorted(alphas) != alphas or len(set(alphas)) != len(alphas):
        raise ValidationError("alpha_list must be strictly increasing")
    if not alphas or max(alphas) < 1.9:
        raise ValidationError("alpha_list must reach at least 1.9")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != u.dim:
        raise ValidationError("point dimension mismatch")
    base = cfg if cfg is not None else QuadratureConfig()
    pref = _prefactor(kernel)
    gap0 = 2.0 - alphas[0]
    values = []
    for a in alphas:
        eps = base.eps_inner * math.sqrt((2.0 - a) / gap0)
        attempt = replace(base, eps_inner=eps)
        spec = replace(kernel, alpha=a)
        for retry in range(4):
            try:
                res = eval_LK(u, spec, x, attempt)
                break
            except NonConvergenceError:
                if retry == 3:
                    raise
                attempt = replace(attempt, eps_inner=attempt.eps_inner / 2.0)
        values.append(pref * res.value)
    gaps = [2.0 - a for a in alphas]
    quad, lin = richardson_fit(gaps, values)
    scale = max(abs(quad), 1e-12)
    flagged = abs(quad - lin) > 0.01 * scale
    ref = _reference(kernel, u, x)
    rel = abs(quad - ref) / abs(ref) if ref != 0.0 else None
    return AlphaSweepReport(
        alpha_list=tuple(alphas),
        values=tuple(values),
        extrapolated_limit=float(quad),
        reference=ref,
        rel_error=rel,
        flagged=bool(flagged),
        family=LIMIT_FAMILIES[kernel.kind],
    )


# ----------------------------------------------------------------------------
# The anisotropic constant C_{n,p} and its norm-equivalence bracket
# ----------------------------------------------------------------------------


def anisotropic_constant(n: int, p: float) -> float:
    """C_{n,p}: the alpha -> 2 coefficient of the p-norm kernel limit.

    Defined as (1/n) lim (2-alpha) * integral over the unit ball of
    |y|^2 / ||y||_p^(n+alpha), which is the sphere integral of
    ||theta||_p^(-(n+2)) over n, or (n+2) times the second moment of y_1
    over the unit l^p ball.  Dirichlet's integral gives that moment:

        C_{n,p} = (n+2) 2^n Gamma(3/p) Gamma(1/p)^(n-1) / (p^n Gamma(1 + (n+2)/p)).
    """
    if p < 1.0:
        raise ValidationError("p must be at least 1")
    if int(n) != n or n < 1:
        raise ValidationError("n must be a positive integer")
    n = int(n)
    return float(
        (n + 2) * 2.0 ** n * _gamma(3.0 / p) * _gamma(1.0 / p) ** (n - 1)
        / (p ** n * _gamma(1.0 + (n + 2) / p))
    )


def norm_equivalence_bracket(n: int, p: float) -> Tuple[float, float]:
    """[lower, upper] for C_{n,p} from c|y| <= ||y||_p <= c'|y|.

    On the unit sphere the p-norm ranges between 1 (axis directions) and
    n^(1/p - 1/2) (diagonal), in whichever order the exponent puts them.
    """
    if p < 1.0:
        raise ValidationError("p must be at least 1")
    a = 1.0
    b = float(n) ** (1.0 / p - 0.5)
    c_lo, c_hi = min(a, b), max(a, b)
    sigma = sphere_surface(n)
    return (sigma / n * c_hi ** -(n + 2), sigma / n * c_lo ** -(n + 2))


def calibrate_omega_n(n: int) -> float:
    """Check that omega_n in the 4n/omega_n prefactor is the sphere surface.

    Runs the Gaussian-field exponential sweep at the origin with the library
    prefactor and returns ``sphere_surface(n)`` when the extrapolated limit
    lands within 2% of -Laplacian = 2n; raises ``NonConvergenceError``
    otherwise.  (In 1-D the surface and the ball volume are both 2, so only
    n = 2 tells the two conventions apart.)
    """
    if n not in (1, 2):
        raise ValidationError("calibration covers n in {1,2}")
    target = 2.0 * n
    rep = sweep_alpha(gaussian_bump(n), KernelSpec(EXPONENTIAL, n, 1.9), np.zeros(n))
    miss = abs(rep.extrapolated_limit - target)
    if miss > 0.02 * target:
        raise NonConvergenceError(
            f"the sphere-surface prefactor misses the Laplacian limit for n={n} "
            f"(rel error {miss / target:.3f})",
            rep.extrapolated_limit,
            miss,
        )
    return sphere_surface(n)


def inner_ball_ratio(
    u: Field,
    x,
    eps: float,
    alpha: float = 1.99,
) -> Tuple[float, float]:
    """Scaled inner-ball contribution divided by -Laplacian u(x).

    Near the limit the whole operator localizes to the inner ball and the
    Gaussian kernel weight pins the ratio inside [exp(-eps^2), 1]; returns
    (ratio, quadrature error share)."""
    if u.grid is not None:
        raise ValidationError("inner-ball ratio needs a smooth field")
    x = np.asarray(x, dtype=float).reshape(-1)
    spec = KernelSpec(EXPONENTIAL, u.dim, alpha)
    pref = _prefactor(spec)
    res = eval_LK(u, spec, x, QuadratureConfig(eps_inner=eps))
    denom = -float(np.trace(np.asarray(u.hessian(x), dtype=float)))
    if denom == 0.0:
        raise ValidationError("reference Laplacian vanishes at this point")
    return pref * res.inner_contribution / denom, pref * res.err_estimate / abs(denom)
