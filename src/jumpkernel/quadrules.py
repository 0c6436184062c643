"""Low-level quadrature primitives.

Everything here is deterministic: no randomness, no threading, stable
summation order.  The adaptive driver is a wave-based Gauss–Kronrod (7,15)
scheme over one interval per owner, with one calling convention for one
owner or many: it evaluates a whole refinement generation of every owner in
one vectorized integrand call, laid out as the left halves of all refining
panels, then their right halves.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# Gauss–Kronrod (7,15) nodes/weights on [-1, 1].  Positive half, descending.
_GK_POS_NODES = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
    ]
)
_GK_POS_W15 = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
    ]
)
_GK_W15_CENTER = 0.209482141084728
_GK_W7 = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,  # center
    ]
)

K15_NODES = np.concatenate([-_GK_POS_NODES, [0.0], _GK_POS_NODES[::-1]])
K15_WEIGHTS = np.concatenate([_GK_POS_W15, [_GK_W15_CENTER], _GK_POS_W15[::-1]])
# The embedded Gauss-7 rule lives on every other Kronrod node.
G7_COLUMNS = np.arange(1, 15, 2)
G7_WEIGHTS = np.concatenate([_GK_W7[:3], [_GK_W7[3]], _GK_W7[2::-1]])


def adaptive_interval(
    f,
    a,
    b,
    rel_tol: float = 1e-9,
    abs_floor: float = 0.0,
    max_depth: int = 24,
    breakpoints=(),
):
    """Integrate a vectorized integrand over one interval per owner.

    ``a`` and ``b`` are sequences of length P, one interval [a_k, b_k] per
    owner k, and ``breakpoints`` holds one sequence per owner that seeds its
    initial partition (callers list radii where the integrand has kinks or
    localized features, so the first generation cannot step over them).
    ``f(t, owner)`` receives the nodes of a whole wave together with each
    node's owner index and returns the integrand values node by node.

    A wave lists the left halves of every panel that refines, then their
    right halves, so each owner meets its own panels in the order a drive
    over its interval alone would.  Each owner has its own accepted sums,
    tolerance and budget, so an owner that hits ``max_depth`` is marked not
    converged by itself.  Returns (P,) arrays ``(value, err, converged)``,
    where ``err`` is the summed Kronrod minus Gauss discrepancy of the
    accepted panels, then the total integrand node count over all owners
    and the (P,) node count of each owner.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n_own = len(a)
    lo, hi, owner = [], [], []
    for k, (ak, bk, bp) in enumerate(zip(a, b, breakpoints)):
        if not bk > ak:
            continue
        edges = [ak] + [t for t in sorted(set(float(t) for t in bp)) if ak < t < bk] + [bk]
        lo += edges[:-1]
        hi += edges[1:]
        owner += [k] * (len(edges) - 1)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    owner = np.array(owner, dtype=np.intp)
    depth = np.zeros(lo.size, dtype=int)
    total_len = np.array([bk - ak for ak, bk in zip(a, b)])

    def owner_sums(vals, mask):
        if n_own == 1:
            # np.sum adds pairwise and np.bincount in sequence: keeping the
            # pairwise sum for one owner keeps every one-point value's bits.
            return vals[mask].sum()
        return np.bincount(owner[mask], weights=vals[mask], minlength=n_own)

    accepted_val, accepted_err = np.zeros((2, n_own))
    converged = np.ones(n_own, dtype=bool)
    panels = np.zeros(n_own, dtype=int)  # panels evaluated per owner

    while lo.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * K15_NODES[None, :]
        fv = np.asarray(f(pts.ravel(), owner.repeat(K15_NODES.size)), dtype=float)
        fv = fv.reshape(pts.shape)
        panels += np.bincount(owner, minlength=n_own)
        i15 = half * (fv @ K15_WEIGHTS)
        i7 = half * (fv[:, G7_COLUMNS] @ G7_WEIGHTS)
        err = np.abs(i15 - i7)

        scale = np.abs(accepted_val + owner_sums(i15, slice(None)))
        tol_now = np.fmax(abs_floor, rel_tol * scale)
        budget = tol_now[owner] * (hi - lo) / total_len[owner]
        ok = err <= budget
        keep = ok | (depth >= max_depth)
        capped = keep & ~ok
        if capped.any():
            converged[owner[capped]] = False
        accepted_val += owner_sums(i15, keep)
        accepted_err += owner_sums(err, keep)

        split = ~keep
        mid, d1, own = mid[split], depth[split] + 1, owner[split]
        lo = np.concatenate([lo[split], mid])
        hi = np.concatenate([mid, hi[split]])
        depth = np.concatenate([d1, d1])
        owner = np.concatenate([own, own])
    owner_neval = panels * K15_NODES.size
    return accepted_val, accepted_err, converged, int(owner_neval.sum()), owner_neval


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def tensor_gauss_cell(f, lo, hi, order: int = 10):
    """Fixed tensor Gauss–Legendre integral over an axis-aligned cell.

    ``f`` maps an (m, n) array of points to values of shape (..., m): one
    integrand, or a batch of integrands sharing the nodes.  Returns the
    integral plus a crude error estimate from comparing with the order//2
    embedded rule on the same cell, as two floats for a single integrand
    and as two (...)-shaped arrays for a batch.  Each integral is one
    ``np.dot`` of the weights with that integrand's row, so every row of a
    batch is bit-identical to integrating it alone.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size

    def run(p):
        x, w = _leggauss(p)
        axes = [0.5 * (lo[d] + hi[d]) + 0.5 * (hi[d] - lo[d]) * x for d in range(n)]
        wts = [0.5 * (hi[d] - lo[d]) * w for d in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        wgrid = np.meshgrid(*wts, indexing="ij")
        wprod = np.ones(pts.shape[0])
        for g in wgrid:
            wprod = wprod * g.ravel()
        vals = np.asarray(f(pts), dtype=float)
        rows = vals.reshape(-1, vals.shape[-1])
        out = np.array([np.dot(wprod, row) for row in rows])
        return out.reshape(vals.shape[:-1])

    coarse = run(max(2, order // 2))
    fine = run(order)
    err = np.abs(fine - coarse)
    if fine.ndim == 0:
        return float(fine), float(err)
    return fine, err


def sphere_surface(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2, 2*pi, 4*pi for n=1,2,3)."""
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@lru_cache(maxsize=256)
def sphere_rule(dim: int, level: int = 0, half: bool = False):
    """Quadrature rule for integrals over the unit sphere S^{dim-1}.

    Returns ``(theta, w)`` with ``theta`` of shape (m, dim) and weights
    summing to the sphere surface (or half of it when ``half=True``; those
    weights are doubled so the rule still integrates even integrands over
    the full sphere).  ``level`` doubles the resolution per increment.

    dim=2 panels are split at the coordinate axes so integrands with p-norm
    style kinks stay smooth inside every panel.
    """
    if dim == 1:
        if half:
            return np.array([[1.0]]), np.array([2.0])
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        panels_per_quadrant = 2 ** level
        quadrants = 2 if half else 4
        x, w = _leggauss(10)
        phis = []
        wts = []
        width = (math.pi / 2.0) / panels_per_quadrant
        for q in range(quadrants):
            for j in range(panels_per_quadrant):
                a = q * math.pi / 2.0 + j * width
                phis.append(a + 0.5 * width * (1.0 + x))
                wts.append(np.full(x.size, 0.5 * width) * w)
        phi = np.concatenate(phis)
        wt = np.concatenate(wts)
        if half:
            wt = 2.0 * wt
        theta = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return theta, wt
    raise ValidationError(f"no sphere rule for dimension {dim}")


def richardson_fit(s_values, y_values):
    """Extrapolate y(s) to s = 0 with linear and quadratic least squares fits.

    Returns ``(quadratic_limit, linear_limit)``.  Callers compare the two to
    flag unreliable extrapolations.
    """
    s = np.asarray(s_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if s.size < 2:
        raise ValidationError("need at least two nodes to extrapolate")
    lin = np.polynomial.polynomial.polyfit(s, y, 1)[0]
    if s.size >= 3:
        quad = np.polynomial.polynomial.polyfit(s, y, 2)[0]
    else:
        quad = lin
    return float(quad), float(lin)
