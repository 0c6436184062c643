"""Reflection sweeps and the comparison-principle certificates built on them.

The machinery here mechanizes one proof idea: compare a field with its
reflection across a hyperplane, track the deficit w(x) = u(x^lam) - u(x) on
the half-space swept by the plane, and certify numerically the inequalities
(anti-symmetric maximum principle, narrow-region bound, decay at infinity)
that make the sweep argument close.  Planes are restricted to half-grid
positions for lattice fields so every reflection lands back on the lattice
and the anti-symmetry identity is exact rather than interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .fields import Field, analytic_field, grid_field
from .kernels import KernelSpec, halfspace_mass, reflect_point, singular_exponent
from .quadrature import QuadratureConfig, eval_LK

__all__ = [
    "PlaneReflection",
    "MovingPlaneReport",
    "MinimumCertificate",
    "RadialSymmetryReport",
    "reflect",
    "w_lambda",
    "check_antisym_max_principle",
    "narrow_region_bound",
    "decay_at_infinity_bound",
    "sweep_lambda",
    "verify_radial_symmetry",
]


@dataclass(frozen=True)
class PlaneReflection:
    """Hyperplane {x_axis = lam} with its reflection map; axis is 1-based."""

    axis: int
    lam: float

    def __post_init__(self):
        if int(self.axis) != self.axis or self.axis < 1:
            raise ValidationError("axis must be a positive integer (1-based)")
        object.__setattr__(self, "axis", int(self.axis))
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class MovingPlaneReport:
    """Outcome of a plane sweep along one axis.

    lambda_o is the supremum of grid plane positions lam such that the slab
    minimum of the deficit stays >= -tolerance for every plane position up to
    and including lam; when even the first position fails, it falls back to
    the box face (one half-cell left of the first candidate plane).
    """

    axis: int
    lambda_grid: Tuple[float, ...]
    min_w: Tuple[float, ...]
    argmin: Tuple[Tuple[float, ...], ...]
    lambda_o: float
    symmetric_verdict: bool
    tolerance: float


@dataclass(frozen=True)
class MinimumCertificate:
    """Numeric witness attached to the minimum of a reflected deficit.

    claim is "negative-certified" when the operator value at a negative
    minimum is below -err_estimate, "inconclusive" when it is negative only
    within quadrature error, and "no-claim" when the minimum itself is
    nonnegative so the comparison principle asserts nothing.
    """

    x_min: Tuple[float, ...]
    w_min: float
    LK_w_at_min: Optional[float]
    kernel: KernelSpec
    err_estimate: Optional[float]
    grid_h: Optional[float]
    claim: str

    def to_record(self) -> dict:
        return {
            "x_min": list(self.x_min),
            "w_min": self.w_min,
            "LK_w_at_min": self.LK_w_at_min,
            "err_estimate": self.err_estimate,
            "grid_h": self.grid_h,
            "claim": self.claim,
            "kernel_kind": self.kernel.kind,
            "kernel_alpha": self.kernel.alpha,
        }


@dataclass(frozen=True)
class RadialSymmetryReport:
    max_deviation: float
    monotone_violations: int
    pair_count: int
    ray_count: int


def reflect(x, plane: PlaneReflection):
    """Reflect a point (or batch of points) across the plane; an involution."""
    return reflect_point(x, plane.lam, plane.axis)


def _half_grid_aligned(lam: float, origin: float, h: float) -> bool:
    k = (lam - origin) / (h / 2.0)
    return abs(k - round(k)) <= 1e-9


def w_lambda(u: Field, plane: PlaneReflection) -> Field:
    """Deficit field w(x) = u(x^lam) - u(x); anti-symmetric by construction.

    For lattice fields with the plane on a half-grid position the deficit is
    returned as a lattice field on the bounding box of the original box and
    its mirror image: reflected nodes land on lattice points, so the nodal
    values are exact and the deficit vanishes identically outside the
    enlarged box.  Any other input falls back to a pointwise wrapper.
    """
    if plane.axis > u.dim:
        raise ValidationError("axis out of range for this field")
    ax = plane.axis - 1
    lam = plane.lam
    if u.grid is not None and _half_grid_aligned(lam, u.grid.origin[ax], u.grid.h):
        g = u.grid
        h = g.h
        lo = np.array(g.origin, dtype=float)
        hi = lo + h * (np.array(g.shape) - 1)
        new_lo = lo.copy()
        new_hi = hi.copy()
        new_lo[ax] = min(lo[ax], 2.0 * lam - hi[ax])
        new_hi[ax] = max(hi[ax], 2.0 * lam - lo[ax])
        shape = tuple(int(round((new_hi[d] - new_lo[d]) / h)) + 1 for d in range(u.dim))
        axes = [new_lo[d] + h * np.arange(shape[d]) for d in range(u.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        flat = pts.reshape(-1, u.dim)
        vals = np.asarray(u.value(reflect(flat, plane))) - np.asarray(u.value(flat))
        return grid_field(
            vals.reshape(shape),
            new_lo,
            h,
            exterior_value=0.0,
            label=f"w_lambda(axis={plane.axis}, lam={lam:g})",
        )

    def w_val(pts):
        pts = np.asarray(pts, dtype=float)
        return np.asarray(u.value(reflect(pts, plane))) - np.asarray(u.value(pts))

    shift = 2.0 * abs(lam)

    def w_tail(radius):
        return 2.0 * u.tail_bound_outside(max(radius - shift, 0.0))

    return analytic_field(
        u.dim,
        w_val,
        sup_bound=2.0 * u.sup_bound,
        far_value=0.0,
        tail_deviation=w_tail,
        label=f"w_lambda(axis={plane.axis}, lam={lam:g})",
    )


def _slab_minimum(w: Field, plane: PlaneReflection):
    """Lattice minimum of w over the open half-space on the small side of the
    plane; first minimizer in lexicographic node order."""
    g = w.grid
    ax = plane.axis - 1
    axes = [g.origin[d] + g.h * np.arange(g.shape[d]) for d in range(w.dim)]
    keep = axes[ax] < plane.lam - 1e-12
    if not np.any(keep):
        raise ValidationError("no lattice nodes on the small side of the plane")
    sl = [slice(None)] * w.dim
    sl[ax] = keep
    vals = w.grid.values[tuple(sl)]
    flat = int(np.argmin(vals))
    midx = list(np.unravel_index(flat, vals.shape))
    midx[ax] = int(np.flatnonzero(keep)[midx[ax]])
    point = tuple(float(axes[d][midx[d]]) for d in range(w.dim))
    return point, float(vals.reshape(-1)[flat])


def check_antisym_max_principle(
    u: Field,
    spec: KernelSpec,
    plane: PlaneReflection,
    cfg: Optional[QuadratureConfig] = None,
) -> MinimumCertificate:
    """Locate the lattice minimum of the deficit on the swept side and, when
    it is negative, witness the comparison principle by evaluating L_K of the
    full anti-symmetric deficit there."""
    if spec.dim != u.dim:
        raise ValidationError("kernel and field dimensions must agree")
    w = w_lambda(u, plane)
    if w.grid is None:
        raise ValidationError(
            "certificate needs a lattice deficit: grid field + half-grid plane"
        )
    x_min, w_min = _slab_minimum(w, plane)
    grid_h = float(w.grid.h)
    if w_min >= 0.0:
        return MinimumCertificate(
            x_min=x_min,
            w_min=w_min,
            LK_w_at_min=None,
            kernel=spec,
            err_estimate=None,
            grid_h=grid_h,
            claim="no-claim",
        )
    res = eval_LK(w, spec, np.array(x_min), cfg)
    claim = "negative-certified" if res.value < -res.err_estimate else "inconclusive"
    return MinimumCertificate(
        x_min=x_min,
        w_min=w_min,
        LK_w_at_min=res.value,
        kernel=spec,
        err_estimate=res.err_estimate,
        grid_h=grid_h,
        claim=claim,
    )


def narrow_region_bound(
    spec: KernelSpec,
    x0,
    plane: PlaneReflection,
    delta_list: Sequence[float] = (2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8),
):
    """Reflected-kernel mass seen from a point at distance delta/2 inside a
    slab of width delta, for each delta, with the fitted log-log slope.

    The integral over the swept half-space of K(x0 - y^lam) equals, after the
    substitution z = y^lam, the kernel mass of the half-space at distance
    delta/2 from x0 — so only the distance enters, and the slab scaling law
    (mass growing like delta^-alpha as the slab narrows) is read off from the
    fit.  Returns a list of (delta, integral, slope) rows sharing one fitted
    slope.
    """
    deltas = [float(d) for d in delta_list]
    if len(deltas) < 2 or any(d <= 0 for d in deltas):
        raise ValidationError("delta_list needs at least two positive widths")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != spec.dim or plane.axis > spec.dim:
        raise ValidationError("point, kernel and plane dimensions must agree")
    masses = [halfspace_mass(spec, d / 2.0, plane.axis)[0] for d in deltas]
    slope = float(np.polyfit(np.log(deltas), np.log(masses), 1)[0])
    return [(d, m, slope) for d, m in zip(deltas, masses)]


def decay_at_infinity_bound(
    spec: KernelSpec,
    plane: PlaneReflection,
    radius_list: Sequence[float],
):
    """Reflected-kernel mass seen from points at growing distance, against
    the proof-side lower bound with its constant fitted at the smallest
    radius.

    The reference bound is C r^-alpha for power-law kernels and
    C e^{-16 r^2} r^-alpha for the Gaussian-weighted kernel; C is chosen so
    the bound is exact at the first radius, and the interesting check is that
    the measured mass stays above the bound at the larger radii.  Returns
    (radius, integral, reference_bound) rows.
    """
    radii = [float(r) for r in radius_list]
    if len(radii) < 2 or any(r <= 0 for r in radii) or sorted(radii) != radii:
        raise ValidationError("radius_list must be >= 2 increasing positive radii")
    al = singular_exponent(spec)
    masses = [halfspace_mass(spec, r, plane.axis)[0] for r in radii]
    r0 = radii[0]
    if spec.kind == "Exponential":
        c_fit = masses[0] * math.exp(16.0 * r0 ** 2) * r0 ** al
        bounds = [c_fit * math.exp(-16.0 * r ** 2) / r ** al for r in radii]
    else:
        c_fit = masses[0] * r0 ** al
        bounds = [c_fit / r ** al for r in radii]
    return list(zip(radii, masses, bounds))


# Array elements of the deficit block w[k, j, ...] that one pass of the plane
# scan forms; it bounds the scan's transient memory.
_SCAN_BLOCK = 2 ** 16


def _scan_axis(u: Field, axis: int):
    """Slab minima of the deficit for every half-grid plane along one axis.

    Mirrors that land beyond the far face read the exterior constant when the
    lattice data continues into it continuously; for fields that jump at
    their own box face, such pairs would measure the truncation rather than
    the field, so they are dropped from the minimum.

    Plane k (at origin + k h/2) pairs slab node j <= (k-1)//2 with its mirror
    k - j.  A block of planes is one array w[k, j, ...] over all j < n-1,
    with the pairs outside each slab read as +inf; with j moved back to the
    scanned axis, the first minimum of each plane's row is the first
    minimizer in lexicographic node order.
    """
    g = u.grid
    ax = axis - 1
    n = g.shape[ax]
    h = g.h
    o = float(g.origin[ax])
    vals = np.moveaxis(g.values, ax, 0)
    ext = float(u.exterior_value)
    continuous = u.boundary_jump() <= 1e-9 * max(1.0, u.sup_bound)
    big = float(np.max(np.abs(vals))) + abs(ext) + 1.0
    ks = np.arange(1, 2 * (n - 1))
    j = np.arange(n - 1)
    slab = vals[: n - 1]
    extra = (1,) * (vals.ndim - 1)
    mins = np.empty(ks.size)
    flat = np.empty(ks.size, dtype=np.intp)
    step = max(1, _SCAN_BLOCK // slab.size)
    for start in range(0, ks.size, step):
        kb = ks[start:start + step, None]
        mirror = kb - j
        valid = (mirror <= n - 1).reshape(mirror.shape + extra)
        in_slab = (j <= (kb - 1) // 2).reshape(mirror.shape + extra)
        refl = vals[np.clip(mirror, 0, n - 1)]
        if continuous:
            w = np.where(valid, refl, ext) - slab
        else:
            # drop truncated pairs by pushing them above any real minimum
            w = np.where(valid, refl - slab, big)
        w = np.where(in_slab, w, np.inf)
        w = np.moveaxis(w, 1, 1 + ax).reshape(len(kb), -1)
        first = np.argmin(w, axis=1)
        flat[start:start + step] = first
        mins[start:start + step] = w[np.arange(len(kb)), first]
    row_shape = list(g.shape)
    row_shape[ax] = n - 1
    midx = np.unravel_index(flat, row_shape)
    coords = [g.origin[d] + h * midx[d] for d in range(u.dim)]
    lambdas = [o + 0.5 * h * k for k in ks.tolist()]
    argmins = list(zip(*(c.tolist() for c in coords)))
    return lambdas, mins.tolist(), argmins


def _lambda_o(lambdas, mins, tolerance, left_face):
    good = [m >= -tolerance for m in mins]
    if not good[0]:
        return left_face, -math.inf
    last = 0
    while last + 1 < len(good) and good[last + 1]:
        last += 1
    return lambdas[last], mins[last]


def sweep_lambda(u: Field, axis: int, tolerance: float = 1e-9) -> MovingPlaneReport:
    """Sweep the reflection plane across the lattice along one axis.

    Planes live on half-grid positions so reflected nodes are lattice nodes.
    For each position the lattice minimum of the deficit over the swept side
    is recorded; lambda_o is the furthest position whose whole prefix kept
    that minimum above -tolerance.  The symmetric verdict additionally runs
    the sweep from the opposite side (on the field reflected about the box
    centre) and requires the two stopping planes to agree within one cell.
    """
    if u.grid is None:
        raise ValidationError("sweep_lambda needs a lattice field")
    if axis < 1 or axis > u.dim:
        raise ValidationError("axis out of range for this field")
    g = u.grid
    ax = axis - 1
    lambdas, mins, argmins = _scan_axis(u, axis)
    left_face = float(g.origin[ax])
    lam_o, min_at = _lambda_o(lambdas, mins, tolerance, left_face)

    centre = float(g.origin[ax] + 0.5 * g.h * (g.shape[ax] - 1))
    mirrored = grid_field(
        np.flip(g.values, axis=ax),
        g.origin,
        g.h,
        exterior_value=u.exterior_value,
        label=u.label,
    )
    r_lambdas, r_mins, _ = _scan_axis(mirrored, axis)
    r_lam_o, _ = _lambda_o(r_lambdas, r_mins, tolerance, left_face)
    lam_o_from_right = 2.0 * centre - r_lam_o
    verdict = (
        abs(min_at) <= tolerance
        and abs(lam_o_from_right - lam_o) <= g.h + 1e-12
    )
    return MovingPlaneReport(
        axis=axis,
        lambda_grid=tuple(lambdas),
        min_w=tuple(mins),
        argmin=tuple(argmins),
        lambda_o=lam_o,
        symmetric_verdict=bool(verdict),
        tolerance=float(tolerance),
    )


_RAY_DIRECTIONS = {
    1: [(1,), (-1,)],
    2: [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
}


def verify_radial_symmetry(
    u: Field, center, tolerance: float = 1e-9
) -> RadialSymmetryReport:
    """Measure how far a lattice field is from radial monotone symmetry.

    max_deviation is the largest value difference between nodes whose radii
    (about the given centre) agree within half a cell — note this window also
    admits genuine radial variation of order |grad u| * h/2, which the caller
    must budget for.  Violations count outward increases beyond tolerance
    along the principal lattice rays from the node nearest the centre.
    """
    if u.grid is None:
        raise ValidationError("verify_radial_symmetry needs a lattice field")
    g = u.grid
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size != u.dim:
        raise ValidationError("centre dimension mismatch")
    axes = [g.origin[d] + g.h * np.arange(g.shape[d]) for d in range(u.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, u.dim)
    vals = g.values.reshape(-1)
    r = np.linalg.norm(pts - center[None, :], axis=1)
    order = np.argsort(r, kind="stable")
    r_s = r[order]
    v_s = vals[order]
    half = 0.5 * g.h
    max_dev = 0.0
    pairs = 0
    lo = 0
    for i in range(1, r_s.size):
        while r_s[i] - r_s[lo] > half:
            lo += 1
        if lo < i:
            window = v_s[lo:i]
            max_dev = max(max_dev, float(np.max(np.abs(window - v_s[i]))))
            pairs += i - lo

    start = np.array(
        [int(round((center[d] - g.origin[d]) / g.h)) for d in range(u.dim)]
    )
    start = np.clip(start, 0, np.array(g.shape) - 1)
    violations = 0
    rays = _RAY_DIRECTIONS.get(u.dim, [])
    for direction in rays:
        ray_vals = []
        pos = start.copy()
        while np.all(pos >= 0) and np.all(pos < np.array(g.shape)):
            ray_vals.append(float(g.values[tuple(pos)]))
            pos = pos + np.array(direction)
        for a, b in zip(ray_vals, ray_vals[1:]):
            if b > a + tolerance:
                violations += 1
    return RadialSymmetryReport(
        max_deviation=max_dev,
        monotone_violations=violations,
        pair_count=pairs,
        ray_count=len(rays),
    )
