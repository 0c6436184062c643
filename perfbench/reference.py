"""Closed forms the benchmark checks jumpkernel's outputs against.

Nothing here imports jumpkernel: every formula is written out from the
literature, so a fault in the program cannot cancel against the same fault
in its referee.  ``perfbench/tests/test_reference.py`` pins each formula
against 40-digit mpmath computations.

Conventions follow the program's kernel zoo: the PowerLaw kernel is
``(2 - alpha) |y|^(-n-alpha)``, so with ``s = alpha/2``

    L_K = (2 - alpha) / C_{n,s} * (-Delta)^s,
    C_{n,s} = 4^s Gamma(n/2 + s) / (pi^(n/2) |Gamma(-s)|).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, hyp1f1

# C_{2,4} = (1/2) * integral over the circle of (cos^4 + sin^4)^(-1) = sqrt(2) pi.
C_2_4 = math.sqrt(2.0) * math.pi


def frac_laplacian_constant(n: int, s: float) -> float:
    """C_{n,s}: (-Delta)^s u = C_{n,s} PV integral (u(x) - u(y)) |x-y|^(-n-2s) dy."""
    return 4.0 ** s * gamma(n / 2.0 + s) / (math.pi ** (n / 2.0) * abs(gamma(-s)))


def powerlaw_scale(n: int, alpha: float) -> float:
    """The factor c with L_K = c (-Delta)^(alpha/2) for the PowerLaw kernel."""
    return (2.0 - alpha) / frac_laplacian_constant(n, alpha / 2.0)


def powerlaw_multiple_1d(kind: str, alpha: float, lam: float = 1.0):
    """In one dimension several zoo kernels are constant multiples of PowerLaw.

    Returns the multiple, or None for kernels with another radial law.
    AnisotropicPNorm: ||theta||_p = 1.  MatrixTransformed with diagonal lam:
    (2-a)/lam * (|y|/lam)^(-1-a) = lam^a * PowerLaw.  DiagQuadratic:
    (2-a) * lam * theta^2 |y|^(-1-a) = lam * PowerLaw.
    """
    if kind in ("PowerLaw", "AnisotropicPNorm"):
        return 1.0
    if kind == "MatrixTransformed":
        return lam ** alpha
    if kind == "DiagQuadratic":
        return lam
    return None


def gaussian(x):
    """exp(-|x|^2) at points of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-np.sum(x * x, axis=-1))


def gaussian_frac_laplacian(x, alpha: float):
    """(-Delta)^s exp(-|x|^2) = 4^s Gamma(n/2+s)/Gamma(n/2) 1F1(n/2+s; n/2; -|x|^2)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    s = alpha / 2.0
    r2 = np.sum(x * x, axis=-1)
    return 4.0 ** s * gamma(n / 2.0 + s) / gamma(n / 2.0) * hyp1f1(n / 2.0 + s, n / 2.0, -r2)


def gaussian_LK(x, alpha: float):
    """L_K of exp(-|x|^2) under the PowerLaw kernel."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    return powerlaw_scale(n, alpha) * gaussian_frac_laplacian(x, alpha)


def gaussian_hessian(x):
    """Hessian of exp(-|x|^2): exp(-|x|^2) (4 x x^T - 2 I)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(gaussian(x)) * (4.0 * np.outer(x, x) - 2.0 * np.eye(x.size))


def alpha_limit(family: str, x, lambda_diag=(1.0, 2.0)) -> float:
    """The second-order limit of a scaled alpha -> 2 sweep on exp(-|x|^2).

    ExponentialScaled -> -Laplacian u; Anisotropic (n = 2, p = 4) ->
    -C_{2,4} Laplacian u; MatrixDiag -> -sum lambda_i^2 d_ii u.
    """
    hess = gaussian_hessian(x)
    diag = np.diag(hess)
    if family == "ExponentialScaled":
        return float(-np.sum(diag))
    if family == "Anisotropic":
        return float(-C_2_4 * np.sum(diag))
    if family == "MatrixDiag":
        lam = np.asarray(lambda_diag, dtype=float)
        return float(-np.sum(lam ** 2 * diag))
    raise ValueError(f"no limit for family {family!r}")


def torsion_amplitude(n: int, alpha: float, source: float = 1.0) -> float:
    """Getoor: L_K u = source in B_1, u = 0 outside, has
    u = source * C_{n,s} / ((2-alpha) kappa) * (1 - |x|^2)_+^s with
    kappa = 4^s Gamma(1+s) Gamma(n/2+s) / Gamma(n/2)."""
    s = alpha / 2.0
    kappa = 4.0 ** s * gamma(1.0 + s) * gamma(n / 2.0 + s) / gamma(n / 2.0)
    return source / (powerlaw_scale(n, alpha) * kappa)


def torsion(x, alpha: float, source: float = 1.0):
    """Getoor's torsion function of the unit ball at points (..., n)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    q = np.maximum(1.0 - np.sum(x * x, axis=-1), 0.0)
    return torsion_amplitude(n, alpha, source) * q ** (alpha / 2.0)
