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

import itertools
import math

import numpy as np
from scipy.special import gamma

from jumpkernel.kernels import eval_kernel
from jumpkernel.quadrules import tensor_gauss_cell


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


def far_offset_value(domain, spec, offset):
    """Referee for one far stencil entry, one offset at a time:
    a(d) = -∫ hat(y) K(d*h - y) dy over the hat's 2^dim cells, each cell by
    a scalar ``tensor_gauss_cell`` call, order 12 within four cells and 8
    beyond.  Returns (entry, error estimate)."""
    h = domain.h
    d = np.asarray(offset, dtype=float) * h

    def integrand(pts):
        w = np.prod(1.0 - np.abs(pts) / h, axis=-1)
        return w * eval_kernel(spec, d[None, :] - pts)

    order = 12 if max(abs(int(o)) for o in offset) <= 4 else 8
    total = 0.0
    err = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=domain.dim):
        lo = np.minimum(0.0, np.array(signs) * h)
        hi = np.maximum(0.0, np.array(signs) * h)
        v, e = tensor_gauss_cell(integrand, lo, hi, order=order)
        total += v
        err += e
    return -total, err


def scan_axis_per_plane(u, axis):
    """Referee for the plane scan, one plane position at a time: for every
    half-grid plane along ``axis`` the slab minimum of the deficit, its first
    minimizer in lexicographic node order, and the plane position, as the
    lists (lambdas, mins, argmins).  Pairs whose mirror lies past the far
    face read the exterior value when the field continues into it
    continuously and are dropped otherwise."""
    g = u.grid
    ax = axis - 1
    n = g.shape[ax]
    h = g.h
    o = float(g.origin[ax])
    vals = g.values
    ext = float(u.exterior_value)
    continuous = u.boundary_jump() <= 1e-9 * max(1.0, u.sup_bound)
    big = float(np.max(np.abs(vals))) + abs(ext) + 1.0
    lambdas, mins, argmins = [], [], []
    for k in range(1, 2 * (n - 1)):
        lam = o + 0.5 * h * k
        jmax = (k - 1) // 2
        idx = np.arange(jmax + 1)
        mirror = k - idx
        valid = mirror <= n - 1
        slab = np.take(vals, idx, axis=ax)
        refl = np.take(vals, np.minimum(mirror, n - 1), axis=ax)
        shape = [1] * vals.ndim
        shape[ax] = idx.size
        mask = valid.reshape(shape)
        if continuous:
            w = np.where(mask, refl, ext) - slab
        else:
            w = np.where(mask, refl - slab, big)
        flat = int(np.argmin(w))
        midx = list(np.unravel_index(flat, w.shape))
        point = tuple(float(g.origin[d] + h * midx[d]) for d in range(u.dim))
        lambdas.append(lam)
        mins.append(float(w.reshape(-1)[flat]))
        argmins.append(point)
    return lambdas, mins, argmins


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
