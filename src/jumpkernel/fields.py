"""Scalar fields the nonlocal operators act on.

Two concrete forms share one interface:

* analytic fields wrap vectorized callables, optionally with exact
  gradient/Hessian and a certified tail profile (how fast the field settles
  to its far value), and
* grid fields store nodal values on a uniform lattice over a box, are
  evaluated by multilinear interpolation inside the box, and take a
  constant exterior value outside it — which makes their far contribution
  to principal-value integrals exactly computable.

Every ``value_fn`` maps arrays of shape (..., dim) to (...).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_FD_STEP = 1e-5


@dataclass
class GridData:
    origin: np.ndarray
    h: float
    values: np.ndarray

    @property
    def shape(self):
        return self.values.shape

    @property
    def box_max(self):
        return self.origin + self.h * (np.array(self.shape) - 1)

    def node(self, index):
        return self.origin + self.h * np.asarray(index, dtype=float)


@dataclass
class Field:
    dim: int
    value_fn: object
    sup_bound: float
    gradient_fn: object = None
    hessian_fn: object = None
    far_value: float | None = None
    tail_deviation: object = None  # R -> sup_{|y| >= R} |u(y) - far_value|
    grid: GridData | None = None
    exterior_value: float = 0.0
    label: str = ""

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValidationError(f"points must have {self.dim} components")
        return self.value_fn(pts)

    def gradient(self, x):
        return self.jets(np.asarray(x, dtype=float)[None], hess=False)[1][0]

    def hessian(self, x):
        return self.jets(np.asarray(x, dtype=float)[None], grad=False)[2][0]

    def jets(self, X, grad=True, hess=True):
        """Value, gradient and Hessian at each row of ``X`` (shape (P, dim)).

        Returns ``(u0, g, H)`` of shapes (P,), (P, dim) and (P, dim, dim);
        ``g`` and ``H`` are None when not asked for.  Attached derivative
        callables are used point by point; otherwise second-order central
        differences of step h (the grid spacing, else ``_FD_STEP``) are
        formed from one ``value`` call over every point's stencil.
        """
        X = np.asarray(X, dtype=float)
        n = self.dim
        fd_grad = grad and self.gradient_fn is None
        fd_hess = hess and self.hessian_fn is None
        pts, k = X, 1
        if fd_grad or fd_hess:
            h = self.grid.h if self.grid is not None else _FD_STEP
            E = h * np.eye(n)
            offs = [np.zeros(n)]
            for i in range(n):
                offs += [E[i], -E[i]]
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if fd_hess else []
            for i, j in pairs:
                offs += [E[i] + E[j], E[i] - E[j], -E[i] + E[j], -E[i] - E[j]]
            pts, k = (X[:, None, :] + np.array(offs)[None]).reshape(-1, n), len(offs)
        v = np.asarray(self.value(pts), dtype=float).reshape(len(X), k)
        u0 = v[:, 0]
        g = H = None
        if grad and not fd_grad:
            g = np.array([self.gradient_fn(x) for x in X], dtype=float).reshape(-1, n)
        elif grad:
            g = np.empty((len(X), n))
            for i in range(n):
                g[:, i] = (v[:, 1 + 2 * i] - v[:, 2 + 2 * i]) / (2.0 * h)
        if hess and not fd_hess:
            H = np.array([self.hessian_fn(x) for x in X], dtype=float).reshape(-1, n, n)
        elif hess:
            H = np.empty((len(X), n, n))
            for i in range(n):
                H[:, i, i] = (v[:, 1 + 2 * i] - 2.0 * u0 + v[:, 2 + 2 * i]) / h ** 2
            for p, (i, j) in enumerate(pairs):
                pp, pm, mp, mm = (v[:, 1 + 2 * n + 4 * p + q] for q in range(4))
                H[:, i, j] = H[:, j, i] = (pp - pm - mp + mm) / (4.0 * h ** 2)
        return u0, g, H

    # -- grid geometry helpers -------------------------------------------------

    def boundary_distance(self, x):
        """Distance from x to the grid box boundary (negative outside)."""
        if self.grid is None:
            return np.inf
        x = np.asarray(x, dtype=float)
        lo = x - self.grid.origin
        hi = self.grid.box_max - x
        return float(min(lo.min(), hi.min()))

    def box_reach(self, x):
        """Largest |y - x| over box corners; beyond it the field is constant."""
        if self.grid is None:
            return None
        x = np.asarray(x, dtype=float)
        corners = np.stack([self.grid.origin, self.grid.box_max])
        far = np.maximum(np.abs(corners[0] - x), np.abs(corners[1] - x))
        return float(np.linalg.norm(far))

    def boundary_jump(self):
        """Largest mismatch between box-face nodal values and the exterior value."""
        if self.grid is None:
            return 0.0
        v = self.grid.values
        jump = 0.0
        for ax in range(v.ndim):
            jump = max(
                jump,
                float(np.max(np.abs(np.take(v, 0, axis=ax) - self.exterior_value))),
                float(np.max(np.abs(np.take(v, -1, axis=ax) - self.exterior_value))),
            )
        return jump

    def tail_bound_outside(self, radius):
        """Certified bound on |u - far_value| outside the ball of ``radius``."""
        if self.grid is not None:
            reach = self.box_reach(np.zeros(self.dim))
            return 0.0 if radius >= reach else abs(self.sup_bound) + abs(self.exterior_value)
        if self.tail_deviation is not None:
            return float(self.tail_deviation(radius))
        return 2.0 * self.sup_bound


def analytic_field(
    dim,
    value_fn,
    sup_bound,
    gradient_fn=None,
    hessian_fn=None,
    far_value=None,
    tail_deviation=None,
    label="",
):
    return Field(
        dim=dim,
        value_fn=value_fn,
        sup_bound=float(sup_bound),
        gradient_fn=gradient_fn,
        hessian_fn=hessian_fn,
        far_value=far_value,
        tail_deviation=tail_deviation,
        label=label,
    )


def _make_interpolator(grid: GridData, exterior_value: float):
    origin = grid.origin
    h = grid.h
    values = grid.values
    shape = np.array(values.shape)
    n = values.ndim

    def interp(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, n)
        rel = (flat - origin) / h
        inside = np.all((rel >= -1e-12) & (rel <= shape - 1 + 1e-12), axis=1)
        cell = np.clip(np.floor(rel).astype(int), 0, shape - 2)
        frac = rel - cell
        acc = np.zeros(flat.shape[0])
        for corner in range(1 << n):
            idx = []
            w = np.ones(flat.shape[0])
            for d in range(n):
                if corner >> d & 1:
                    idx.append(cell[:, d] + 1)
                    w = w * frac[:, d]
                else:
                    idx.append(cell[:, d])
                    w = w * (1.0 - frac[:, d])
            acc += w * values[tuple(idx)]
        out = np.where(inside, acc, exterior_value)
        return out.reshape(pts.shape[:-1])

    return interp


def grid_field(values, origin, h, exterior_value=0.0, sup_bound=None, label=""):
    values = np.ascontiguousarray(values, dtype=float)
    origin = np.asarray(origin, dtype=float)
    if origin.size != values.ndim:
        raise ValidationError("origin must have one coordinate per value axis")
    if any(s < 2 for s in values.shape):
        raise ValidationError("grids need at least two nodes per axis")
    g = GridData(origin=origin, h=float(h), values=values)
    if sup_bound is None:
        sup_bound = max(float(np.max(np.abs(values))), abs(exterior_value))
    return Field(
        dim=values.ndim,
        value_fn=_make_interpolator(g, exterior_value),
        sup_bound=float(sup_bound),
        far_value=float(exterior_value),
        grid=g,
        exterior_value=float(exterior_value),
        label=label,
    )


def sample_to_grid(u: Field, origin, h, shape, exterior_value=0.0, label=""):
    """Sample an analytic field on a lattice, producing a grid field."""
    origin = np.asarray(origin, dtype=float)
    axes = [origin[d] + h * np.arange(shape[d]) for d in range(len(shape))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    vals = u.value(pts)
    return grid_field(vals, origin, h, exterior_value=exterior_value, label=label or u.label)


# ----------------------------------------------------------------------------
# Stock analytic fields
# ----------------------------------------------------------------------------


def gaussian_bump(dim, center=None, width=1.0, amplitude=1.0, label=""):
    """amplitude * exp(-|x - center|^2 / width^2), with exact derivatives."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    w2 = float(width) ** 2
    A = float(amplitude)

    def val(pts):
        d = np.asarray(pts, dtype=float) - c
        return A * np.exp(-np.sum(d * d, axis=-1) / w2)

    def grad(x):
        d = np.asarray(x, dtype=float) - c
        return -2.0 * d / w2 * val(x)

    def hess(x):
        d = np.asarray(x, dtype=float) - c
        return val(x) * (4.0 * np.outer(d, d) / w2 ** 2 - 2.0 * np.eye(dim) / w2)

    cnorm = float(np.linalg.norm(c))

    def tail(R):
        gap = max(R - cnorm, 0.0)
        return abs(A) * float(np.exp(-gap * gap / w2))

    return analytic_field(
        dim, val, abs(A), grad, hess, far_value=0.0, tail_deviation=tail,
        label=label or f"gaussian(c={c.tolist()},w={width},A={A})",
    )


def compact_bump(dim, center=None, radius=1.0, depth=1.0, label=""):
    """depth * (1 - |x-c|^2/r^2)_+^3: a C^2 bump supported in B_r(center)."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    r2 = float(radius) ** 2
    A = float(depth)

    def val(pts):
        d = np.asarray(pts, dtype=float) - c
        q = np.sum(d * d, axis=-1) / r2
        return A * np.where(q < 1.0, (1.0 - np.minimum(q, 1.0)) ** 3, 0.0)

    def grad(x):
        d = np.asarray(x, dtype=float) - c
        q = float(np.dot(d, d)) / r2
        if q >= 1.0:
            return np.zeros(dim)
        return A * (-3.0 * (1.0 - q) ** 2) * 2.0 * d / r2

    def hess(x):
        d = np.asarray(x, dtype=float) - c
        q = float(np.dot(d, d)) / r2
        if q >= 1.0:
            return np.zeros((dim, dim))
        gp = -3.0 * (1.0 - q) ** 2
        gpp = 6.0 * (1.0 - q)
        return A * (gpp * 4.0 * np.outer(d, d) / r2 ** 2 + gp * 2.0 * np.eye(dim) / r2)

    reach = float(np.linalg.norm(c)) + float(radius)

    def tail(R):
        return 0.0 if R >= reach else abs(A)

    return analytic_field(
        dim, val, abs(A), grad, hess, far_value=0.0, tail_deviation=tail,
        label=label or f"compact(c={c.tolist()},r={radius},d={A})",
    )


def linear_combination(fields, coeffs, label=""):
    """Pointwise sum of scaled fields, propagating derivatives and tails."""
    fields = list(fields)
    coeffs = [float(c) for c in coeffs]
    if len(fields) != len(coeffs):
        raise ValidationError("one coefficient per field")
    dim = fields[0].dim
    if any(f.dim != dim for f in fields):
        raise ValidationError("all fields must share a dimension")

    def val(pts):
        out = coeffs[0] * fields[0].value(pts)
        for f, c in zip(fields[1:], coeffs[1:]):
            out = out + c * f.value(pts)
        return out

    grad = None
    if all(f.gradient_fn is not None for f in fields):
        def grad(x):
            return sum(c * f.gradient(x) for f, c in zip(fields, coeffs))

    hess = None
    if all(f.hessian_fn is not None for f in fields):
        def hess(x):
            return sum(c * f.hessian(x) for f, c in zip(fields, coeffs))

    far = None
    if all(f.far_value is not None for f in fields):
        far = sum(c * f.far_value for f, c in zip(fields, coeffs))

    def tail(R):
        return sum(abs(c) * f.tail_bound_outside(R) for f, c in zip(fields, coeffs))

    sup = sum(abs(c) * f.sup_bound for f, c in zip(fields, coeffs))
    return analytic_field(dim, val, sup, grad, hess, far_value=far, tail_deviation=tail, label=label)


def reflect_field(u: Field, lam: float, axis: int = 1, label=""):
    """The pullback x -> u(x^lam) across the hyperplane {x_axis = lam}."""
    if not (1 <= axis <= u.dim):
        raise ValidationError("axis out of range")
    ax = axis - 1
    sign = np.ones(u.dim)
    sign[ax] = -1.0

    def refl(pts):
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        out[..., ax] = 2.0 * lam - pts[..., ax]
        return out

    def val(pts):
        return u.value(refl(pts))

    grad = None
    if u.gradient_fn is not None:
        def grad(x):
            return sign * u.gradient(refl(x))

    hess = None
    if u.hessian_fn is not None:
        def hess(x):
            H = u.hessian(refl(x))
            return (sign[:, None] * sign[None, :]) * H

    shift = 2.0 * abs(lam)

    def tail(R):
        return u.tail_bound_outside(max(R - shift, 0.0))

    return analytic_field(
        u.dim, val, u.sup_bound, grad, hess,
        far_value=u.far_value, tail_deviation=tail,
        label=label or f"reflect({u.label},axis={axis},lam={lam})",
    )


# ----------------------------------------------------------------------------
# Grid serialization: one JSON header line, then raw little-endian float64.
# ----------------------------------------------------------------------------


def save_grid_field(u: Field, path):
    if u.grid is None:
        raise ValidationError("only grid fields are serializable")
    header = {
        "dim": u.dim,
        "origin": [float(v) for v in u.grid.origin],
        "h": u.grid.h,
        "shape": list(u.grid.shape),
        "exterior_value": u.exterior_value,
        "sup_bound": u.sup_bound,
        "label": u.label,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(u.grid.values, dtype="<f8").tobytes())


def load_grid_field(path) -> Field:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    shape = tuple(header["shape"])
    values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    f = grid_field(
        values,
        np.asarray(header["origin"], dtype=float),
        header["h"],
        exterior_value=header["exterior_value"],
        sup_bound=header["sup_bound"],
        label=header.get("label", ""),
    )
    return f
