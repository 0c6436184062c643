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
from scipy import integrate
from scipy.special import gamma, hyp1f1

from jumpkernel.kernels import eval_kernel, outer_mass, radial_profile, singular_exponent
from jumpkernel.quadrature import EvalResult, _feature_radii
from jumpkernel.quadrules import (
    G7_COLUMNS,
    G7_WEIGHTS,
    K15_NODES,
    K15_WEIGHTS,
    sphere_rule,
    tensor_gauss_cell,
)


def _half_circle(dim, m_theta):
    """One direction of each antipodal pair of the uniform grid of
    ``m_theta`` directions, with that pair's weight."""
    if dim == 1:
        return np.array([[1.0]]), np.array([2.0])
    phis = 2.0 * np.pi * np.arange(m_theta // 2) / m_theta
    theta = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    return theta, np.full(m_theta // 2, 4.0 * np.pi / m_theta)


def _paired_integrand(u, spec, x, s, theta, w_theta, u0, hess, r_model):
    """Integrand of the log-radius integral at nodes ``s``: (m_s,).

    ``theta`` holds one direction per antipodal pair: the paired difference
    at +theta and at -theta is the same, and so is K, since every zoo
    kernel is even.  The kernel is its profile times r^(-n-a), formed from
    r and theta apart, so no point is built from an offset at all.
    """
    quad = np.einsum("ki,ij,kj->k", theta, hess, theta)
    r_pow = -singular_exponent(spec)  # K r^n = profile r^(-a)
    out = np.empty(s.size)
    block = max(1, (1 << 16) // theta.shape[0])
    for start in range(0, s.size, block):
        r = np.exp(s[start:start + block])
        step = r[:, None, None] * theta[None, :, :]
        up = np.asarray(u.value(x + step)).reshape(r.size, -1)
        um = np.asarray(u.value(x - step)).reshape(r.size, -1)
        second = 2.0 * u0 - up - um
        model = r < r_model
        if np.any(model):
            second[model] = -(r[model, None] ** 2) * quad[None, :]
        kap = radial_profile(spec, r[:, None], theta[None, :, :])
        # 1/2 (pairing) * K * r^{n-1} * r (log jacobian), over both signs
        out[start:start + block] = 0.5 * (second * kap) @ w_theta * r ** r_pow
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
        theta, w_theta = _half_circle(spec.dim, m_theta)
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


def _kernel_density(spec, z):
    """K(z) at one offset ``z`` for the PowerLaw and MatrixTransformed
    kernels, written out from their definitions."""
    z = np.asarray(z, dtype=float)
    n, a = z.size, spec.alpha
    if spec.kind == "PowerLaw":
        return (2.0 - a) * spec.c_lower * math.sqrt(float(z @ z)) ** (-n - a)
    if spec.kind == "MatrixTransformed":
        lam = np.asarray(spec.lambda_diag, dtype=float)
        q = z / lam
        return (2.0 - a) / float(np.prod(lam)) * math.sqrt(float(q @ q)) ** (-n - a)
    raise ValueError(f"no density for {spec.kind}")


_QUAD_TOL = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}


def hat_mass_outside_ball(spec, h, offset, eps):
    """Referee for the hat's part of a near stencil entry:
    ∫_{|y - x| > eps} hat(y) K(y - x) dy at x = offset * h, where hat(y) =
    prod_d (1 - |y_d| / h)_+.

    Each of the hat's 2^dim cells is integrated by nested
    ``scipy.integrate.quad``, minus the disc |y - x| < eps: in 2-D the
    inner integral runs over the one or two pieces of a column that lie
    outside the disc, and the outer one is split where the disc's edge
    meets the column ends (the tangents and the cell's corners)."""
    x = np.asarray(offset, dtype=float) * h
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=x.size):
        lo = np.minimum(0.0, np.array(signs) * h)
        hi = np.maximum(0.0, np.array(signs) * h)

        def outside(lo_d, hi_d, c, s):
            """The pieces of [lo_d, hi_d] outside (c - s, c + s)."""
            return [(a, b) for a, b in ((lo_d, min(hi_d, c - s)), (max(lo_d, c + s), hi_d)) if b > a]

        if x.size == 1:
            for a, b in outside(lo[0], hi[0], x[0], eps):
                total += integrate.quad(lambda y: (1.0 - abs(y) / h) * _kernel_density(spec, [y - x[0]]),
                              a, b, **_QUAD_TOL)[0]
            continue

        def column(y1):
            d1 = y1 - x[0]
            s = math.sqrt(eps * eps - d1 * d1) if abs(d1) < eps else 0.0
            out = 0.0
            for a, b in outside(lo[1], hi[1], x[1], s):
                out += integrate.quad(lambda y2: (1.0 - abs(y2) / h) * _kernel_density(spec, [d1, y2 - x[1]]),
                            a, b, **_QUAD_TOL)[0]
            return (1.0 - abs(y1) / h) * out

        breaks = [x[0] - eps, x[0] + eps]
        for c in (lo[1], hi[1]):
            if abs(c - x[1]) < eps:
                s = math.sqrt(eps * eps - (c - x[1]) ** 2)
                breaks += [x[0] - s, x[0] + s]
        edges = [lo[0]] + sorted(t for t in breaks if lo[0] < t < hi[0]) + [hi[0]]
        for a, b in zip(edges, edges[1:]):
            total += integrate.quad(column, a, b, **_QUAD_TOL)[0]
    return total


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


def powerlaw_gaussian_LK(x, alpha):
    """L_K exp(-|x|^2) for the PowerLaw kernel, in closed form.

    With s = alpha/2, (-Delta)^s exp(-|x|^2) = 4^s Gamma(n/2+s) / Gamma(n/2)
    1F1(n/2+s; n/2; -|x|^2) (Kummer's function), and L_K = (2 - alpha) /
    C_{n,s} (-Delta)^s as in ``torsion_ball``, so

        L_K exp(-|x|^2) = (2 - alpha) pi^(n/2) |Gamma(-s)| / Gamma(n/2)
                          1F1(n/2 + s; n/2; -|x|^2).

    ``x`` has shape (..., n).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    s = alpha / 2.0
    c = (2.0 - alpha) * math.pi ** (n / 2.0) * abs(gamma(-s)) / gamma(n / 2.0)
    return c * hyp1f1(n / 2.0 + s, n / 2.0, -np.sum(x * x, axis=-1))


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


# ----------------------------------------------------------------------------
# Referees for the batched evaluation engine: the one-point engine and the
# one-interval adaptive driver it replaced.  They share the engine's
# arithmetic: each weighted sum is the row sum of its own node, and accepted
# panels are added in sequence from 0.0.
# ----------------------------------------------------------------------------


def _sum_in_sequence(values):
    # not the builtin sum, which compensates from Python 3.12 on
    total = 0.0
    for v in values:
        total += float(v)
    return total


def adaptive_interval_scalar(f, a, b, rel_tol=1e-9, abs_floor=0.0, max_depth=24,
                             breakpoints=()):
    """Wave-based Gauss-Kronrod (7,15) over one interval [a, b]; returns
    ``(value, err, converged, neval)``."""
    if not b > a:
        return 0.0, 0.0, True, 0
    edges = [a]
    for t in sorted(set(float(t) for t in breakpoints)):
        if a < t < b:
            edges.append(t)
    edges.append(b)
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    depth = np.zeros(lo.size, dtype=int)

    total_len = b - a
    accepted_val = 0.0
    accepted_err = 0.0
    neval = 0
    converged = True

    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * K15_NODES[None, :]
        fv = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        neval += pts.size
        i15 = half * (fv * K15_WEIGHTS).sum(axis=1)
        i7 = half * (fv[:, G7_COLUMNS] * G7_WEIGHTS).sum(axis=1)
        err = np.abs(i15 - i7)

        scale = abs(accepted_val + _sum_in_sequence(i15))
        tol_now = max(abs_floor, rel_tol * scale)
        budget = tol_now * (hi - lo) / total_len
        ok = err <= budget
        at_cap = depth >= max_depth
        keep = ok | at_cap
        if np.any(at_cap & ~ok):
            converged = False

        accepted_val += _sum_in_sequence(i15[keep])
        accepted_err += _sum_in_sequence(err[keep])

        split = ~keep
        lo, hi, depth = (
            np.concatenate([lo[split], mid[split]]),
            np.concatenate([mid[split], hi[split]]),
            np.concatenate([depth[split] + 1, depth[split] + 1]),
        )
    return accepted_val, accepted_err, converged, neval


def _fd_gradient(u, x):
    if u.gradient_fn is not None:
        return np.asarray(u.gradient_fn(x), dtype=float)
    h = u.grid.h if u.grid is not None else 1e-5
    g = np.empty(u.dim)
    for i in range(u.dim):
        e = np.zeros(u.dim)
        e[i] = h
        g[i] = (u.value(x + e) - u.value(x - e)) / (2.0 * h)
    return g


def _fd_hessian(u, x):
    if u.hessian_fn is not None:
        return np.asarray(u.hessian_fn(x), dtype=float)
    h = u.grid.h if u.grid is not None else 1e-5
    H = np.empty((u.dim, u.dim))
    u0 = float(u.value(x))
    for i in range(u.dim):
        ei = np.zeros(u.dim)
        ei[i] = h
        H[i, i] = (u.value(x + ei) - 2.0 * u0 + u.value(x - ei)) / h ** 2
        for j in range(i + 1, u.dim):
            ej = np.zeros(u.dim)
            ej[j] = h
            H[i, j] = H[j, i] = (
                u.value(x + ei + ej)
                - u.value(x + ei - ej)
                - u.value(x - ei + ej)
                + u.value(x - ei - ej)
            ) / (4.0 * h ** 2)
    return H


def eval_engine_scalar(u, spec, x, cfg, gamma, levels=None):
    """The one-point engine: L_K u(x) for gamma=None, F_{G,K} u(x) with
    G(t) = |t|^gamma t otherwise.  Returns ``(EvalResult, converged, neval)``
    where the engine raised on ``not converged`` with the result's value
    and error estimate; ``neval`` sums the drives' integrand nodes.
    ``levels`` replaces the engine's sphere levels ((0,) in 1-D, (0, 1, 2)
    in 2-D)."""
    def phi(t):
        return np.abs(t) ** gamma * t

    x = np.asarray(x, dtype=float).reshape(-1)
    eps, R = cfg.eps_inner, cfg.r_outer
    grid_like = u.grid is not None
    al = singular_exponent(spec)
    u0 = float(u.value(x))
    grad = _fd_gradient(u, x) if gamma is not None else None
    hess = _fd_hessian(u, x)
    rho_exp = (2.0 - al) if gamma is None else (2.0 + gamma - al)
    r_switch = min(1e-4, 0.25 * eps)
    abs_floor = 1e-3 * cfg.rel_tol * max(1.0, u.sup_bound)
    breaks = _feature_radii(u, spec, x, eps, R)
    neval = 0

    def paired_values(r, theta):
        pts = x[None, None, :] + r[:, None, None] * theta[None, :, :]
        mir = x[None, None, :] - r[:, None, None] * theta[None, :, :]
        m, k = r.size, theta.shape[0]
        up = np.asarray(u.value(pts.reshape(-1, x.size))).reshape(m, k)
        um = np.asarray(u.value(mir.reshape(-1, x.size))).reshape(m, k)
        return up, um

    def curvature_quotient(r, theta, hq, ga):
        m, k = r.size, theta.shape[0]
        out = np.empty((m, k))
        small = (r < r_switch) | grid_like
        if np.any(small):
            if gamma is None:
                out[small, :] = -hq[None, :]
            else:
                rs = np.maximum(r[small], 1e-30)
                a = rs[:, None] * ga[None, :]
                b = 0.5 * rs[:, None] ** 2 * hq[None, :]
                out[small, :] = -(phi(a + b) - phi(a - b)) / rs[:, None] ** (2.0 + gamma)
        big = ~small
        if np.any(big):
            rb = r[big]
            up, um = paired_values(rb, theta)
            if gamma is None:
                out[big, :] = (2.0 * u0 - up - um) / rb[:, None] ** 2
            else:
                p = phi(u0 - up) + phi(u0 - um)
                out[big, :] = p / rb[:, None] ** (2.0 + gamma)
        return out

    def run_level(level):
        nonlocal neval
        theta, w = sphere_rule(spec.dim, level, half=True)
        wh = 0.5 * w
        hq = np.einsum("ki,ij,kj->k", theta, hess, theta)
        ga = theta @ grad if gamma is not None else None

        def f_inner(rho):
            rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
            r = rho ** (1.0 / rho_exp)
            cq = curvature_quotient(r, theta, hq, ga)
            kap = radial_profile(spec, r[:, None], theta)
            return (cq * kap * wh).sum(axis=1)

        inner_raw, inner_err, ok_in, n_in = adaptive_interval_scalar(
            f_inner, 0.0, eps ** rho_exp, cfg.rel_tol, abs_floor, cfg.max_depth
        )
        inner_val = inner_raw / rho_exp
        inner_err = inner_err / rho_exp

        def f_shell(t):
            r = np.exp(np.asarray(t, dtype=float))
            up, um = paired_values(r, theta)
            if gamma is None:
                p = (u0 - up) + (u0 - um)
            else:
                p = phi(u0 - up) + phi(u0 - um)
            kap = radial_profile(spec, r[:, None], theta)
            return (p * kap * np.exp(-al * np.log(r))[:, None] * wh).sum(axis=1)

        shell_val, shell_err, ok_sh, n_sh = adaptive_interval_scalar(
            f_shell, math.log(eps), math.log(R), cfg.rel_tol, abs_floor,
            cfg.max_depth, breakpoints=tuple(math.log(t) for t in breaks),
        )
        neval += n_in + n_sh
        return inner_val, inner_err, shell_val, shell_err, ok_in and ok_sh

    if levels is None:
        levels = (0,) if spec.dim == 1 else (0, 1, 2)
    prev = None
    angular_gap = 0.0
    for lev in levels:
        cur = run_level(lev)
        if prev is not None:
            angular_gap = abs((cur[0] + cur[2]) - (prev[0] + prev[2]))
            if angular_gap <= max(10.0 * abs_floor, cfg.rel_tol * abs(cur[0] + cur[2])):
                prev = cur
                break
        prev = cur
    inner_val, inner_err, shell_val, shell_err, radial_ok = prev

    m_out, m_out_err = outer_mass(spec, R)
    if gamma is None:
        tb = 2.0 * u.sup_bound * (m_out + m_out_err)
    else:
        tb = (2.0 * u.sup_bound) ** (gamma + 1.0) * (m_out + m_out_err)
    far_val = 0.0
    if grid_like:
        far_ref = u.exterior_value
        tail_dev = (
            0.0
            if R >= u.box_reach(x)
            else float(np.max(np.abs(u.grid.values - u.exterior_value)))
        )
    else:
        far_ref = u.far_value
        tail_dev = (
            u.tail_bound_outside(max(R - float(np.linalg.norm(x)), 0.0))
            if far_ref is not None
            else None
        )
    if far_ref is not None:
        diff = u0 - far_ref
        if gamma is None:
            far_val = diff * m_out
            slope = 1.0
            far_mag = abs(diff)
        else:
            far_val = float(phi(diff)) * m_out
            slope = (gamma + 1.0) * (abs(diff) + tail_dev) ** gamma
            far_mag = abs(diff) ** (gamma + 1.0)
        far_err = slope * tail_dev * m_out + far_mag * m_out_err
    else:
        far_err = tb

    err = inner_err + shell_err + far_err + angular_gap
    if grid_like:
        d2 = 0.0
        for ax in range(u.dim):
            d2 = max(d2, float(np.max(np.abs(np.diff(u.grid.values, 2, axis=ax)))))
        m_shell = max(outer_mass(spec, eps)[0] - m_out, 0.0)
        err += 0.125 * u.dim * d2 * m_shell

    result = EvalResult(
        value=float(inner_val + shell_val + far_val),
        err_estimate=float(err),
        tail_bound=float(tb),
        inner_contribution=float(inner_val),
    )
    return result, bool(radial_ok), neval
