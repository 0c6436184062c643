"""Independent brute-force reference values for the evaluation engine.

``oracle_LK`` computes the principal value by one global trapezoid rule in
log-radius over the paired integrand, doubled until two refinements agree.
Pairing y with its mirror through x kills the odd part, the log substitution
makes the integrand decay exponentially at both ends (so the trapezoid rule
is spectrally accurate on smooth fields), and radii below ``r_model`` use
the exact quadratic Taylor term to dodge catastrophic cancellation in the
second difference.  None of the engine's machinery (adaptive shells,
feature radii, closed-form outer masses) is reused.

Validity: the fixed log window assumes the kernel tail decays at least like
r^-0.4 and the near-origin order stays below ~1.6, so keep oracle kernels
to moderate alpha.  The agreed-upon closed forms in test_quadrature pin the
oracle itself before it is trusted as a referee.
"""

import math

import numpy as np
from scipy.special import gamma

from jumpkernel.kernels import eval_kernel


def _sphere_grid(dim, m_theta):
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    phis = 2.0 * np.pi * np.arange(m_theta) / m_theta
    theta = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    return theta, np.full(m_theta, 2.0 * np.pi / m_theta)


def _paired_integrand(u, spec, x, s, theta, w_theta, u0, hess, r_model):
    """Integrand of the log-radius integral at nodes ``s``: (m_s,)."""
    n = spec.dim
    quad = np.einsum("ki,ij,kj->k", theta, hess, theta)
    out = np.empty(s.size)
    block = max(1, 4_000_000 // theta.shape[0])
    for start in range(0, s.size, block):
        r = np.exp(s[start:start + block])
        pts = x[None, None, :] + r[:, None, None] * theta[None, :, :]
        mir = x[None, None, :] - r[:, None, None] * theta[None, :, :]
        up = np.asarray(u.value(pts.reshape(-1, n))).reshape(r.size, -1)
        um = np.asarray(u.value(mir.reshape(-1, n))).reshape(r.size, -1)
        second = 2.0 * u0 - up - um
        model = -(r[:, None] ** 2) * quad[None, :]
        second = np.where(r[:, None] < r_model, model, second)
        # kernel argument built from the offsets, never from pts - x: for
        # radii below float eps the subtraction would cancel to exactly 0
        offs = (r[:, None, None] * theta[None, :, :]).reshape(-1, n)
        kvals = eval_kernel(spec, offs).reshape(r.size, -1)
        # 1/2 (pairing) * K * r^{n-1} * r (log jacobian)
        out[start:start + block] = 0.5 * (second * kvals) @ w_theta * r ** n
    return out


_LADDER = [(2048, 128), (4096, 256), (8192, 512), (16384, 1024),
           (32768, 2048), (65536, 2048), (131072, 2048)]


def oracle_LK(u, spec, x, rel_tol=1e-9, s_lo=-44.0, s_hi=44.0, r_model=1e-5):
    """Reference value and the last refinement change, as (value, err)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u0 = float(u.value(x))
    hess = np.asarray(u.hessian(x), dtype=float)
    prev = None
    for m_s, m_theta in _LADDER:
        theta, w_theta = _sphere_grid(spec.dim, m_theta)
        s = np.linspace(s_lo, s_hi, m_s)
        vals = _paired_integrand(u, spec, x, s, theta, w_theta, u0, hess, r_model)
        cur = float(np.trapezoid(vals, s))
        if prev is not None:
            change = abs(cur - prev)
            if change <= rel_tol * max(1.0, abs(cur)):
                return cur, change
        prev = cur
    return cur, abs(cur - prev)


def dense_plane_sweep(values, origin, h, exterior=0.0):
    """Independent lambda-sweep oracle on a 1-d nodal array.

    For every half-grid plane position it forms the reflected deficit
    directly by index mirroring (mirrors landing outside the array read the
    exterior value) and records the minimum over the swept side; returns
    (lambda positions, minima).  Quadratic in the node count, no shared
    code with the library sweep.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    lams, mins = [], []
    for k in range(1, 2 * (n - 1)):
        lam = origin + 0.5 * h * k
        worst = np.inf
        for j in range((k - 1) // 2 + 1):
            mirror = k - j
            ref = v[mirror] if mirror < n else exterior
            worst = min(worst, ref - v[j])
        lams.append(lam)
        mins.append(worst)
    return np.array(lams), np.array(mins)


def torsion_ball(x, alpha):
    """Getoor's torsion function of the unit ball for the PowerLaw kernel.

    With K = (2 - alpha) |y|^(-n-alpha) and s = alpha/2, L_K = (2 - alpha)
    / C_{n,s} (-Delta)^s, and (-Delta)^s (1 - |x|^2)_+^s = kappa with
    kappa = 4^s Gamma(1+s) Gamma(n/2+s) / Gamma(n/2), so

        u = C_{n,s} / ((2 - alpha) kappa) (1 - |x|^2)_+^s

    solves L_K u = 1 in B_1, u = 0 outside.  ``x`` has shape (..., n).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    s = alpha / 2.0
    c_ns = 4.0 ** s * gamma(n / 2.0 + s) / (math.pi ** (n / 2.0) * abs(gamma(-s)))
    kappa = 4.0 ** s * gamma(1.0 + s) * gamma(n / 2.0 + s) / gamma(n / 2.0)
    q = np.maximum(1.0 - np.sum(x * x, axis=-1), 0.0)
    return c_ns / ((2.0 - alpha) * kappa) * q ** s


def sphere_pnorm_integral(n, p, exponent, tol=1e-11):
    """Integral over the unit sphere in R^n (n = 2, 3) of ||theta||_p^(-exponent).

    The integrand depends on |theta_i| only, so one octant suffices.  Tensor
    Gauss-Legendre in the octant angle (n = 2) or in polar cosine and
    azimuth (n = 3), with the node count doubled until two values agree to
    ``tol``.
    """
    m = 32
    prev = None
    while m <= 2048:
        nodes, weights = np.polynomial.legendre.leggauss(m)
        phi = 0.25 * math.pi * (nodes + 1.0)
        if n == 2:
            f = (np.cos(phi) ** p + np.sin(phi) ** p) ** (-exponent / p)
            cur = 4.0 * 0.25 * math.pi * float(f @ weights)
        else:
            z = 0.5 * (nodes + 1.0)
            st = np.sqrt(1.0 - z ** 2)[:, None]
            xs, ys = st * np.cos(phi)[None, :], st * np.sin(phi)[None, :]
            f = (xs ** p + ys ** p + z[:, None] ** p) ** (-exponent / p)
            # two hemispheres, four azimuthal quadrants
            cur = 8.0 * 0.5 * 0.25 * math.pi * float(weights @ f @ weights)
        if prev is not None and abs(cur - prev) <= tol * abs(cur):
            return cur
        prev = cur
        m *= 2
    raise AssertionError(f"sphere integral did not settle: {prev!r} vs {cur!r}")
