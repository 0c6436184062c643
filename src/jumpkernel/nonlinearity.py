"""Nonlinearities for the fully nonlinear operator and its right-hand side.

G is the odd increasing function applied to differences u(x) - u(y); the
zoo is the identity together with the degenerate powers G(t) = |t|^gamma t
(whose derivative vanishes at 0 for gamma > 0).  f is the reaction term.
The checks mirror the structural conditions comparison arguments rely on:

* G1 - odd, zero at zero, strictly increasing,
* G2 - the ratio f'/G' stays bounded as t -> 0+,
* G2' - two-sided divided-difference bounds with explicit constants,

plus the mean-value pinch: the point xi delivered by the mean value
theorem for G between t1 and t2 sits at a definite fraction of
max(|t1|, |t2|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

G_IDENTITY = "Identity"
G_POWER = "PowerG"
F_CONSTANT = "Constant"
F_POWER = "PowerF"
F_AFFINE_PLUS_POWER = "AffinePlusPower"
F_LIPSCHITZ_TABLE = "LipschitzTable"

G_KINDS = (G_IDENTITY, G_POWER)
F_KINDS = (F_CONSTANT, F_POWER, F_AFFINE_PLUS_POWER, F_LIPSCHITZ_TABLE)


@dataclass(frozen=True)
class NonlinearitySpec:
    """G and f bundled, with optional constants for the divided-difference
    condition.  When those constants are supplied alongside power exponents,
    the construction enforces gamma < s (the condition is vacuous otherwise).

    PowerF and AffinePlusPower both use ``f(t) = f_offset + f_slope * t +
    f_scale * |t|^s t`` (PowerF fixes offset = slope = 0).  LipschitzTable
    interpolates sample pairs linearly and clamps outside their range.
    """

    g_kind: str = G_IDENTITY
    gamma: float = 0.0
    f_kind: str = F_CONSTANT
    s: float = 1.0
    f_scale: float = 1.0
    f_offset: float = 0.0
    f_slope: float = 0.0
    table: tuple = ()
    C1: float | None = None
    C2: float | None = None
    eps_g2: float | None = None

    def __post_init__(self):
        if self.g_kind not in G_KINDS:
            raise ValidationError(f"unknown g_kind {self.g_kind!r}")
        if self.f_kind not in F_KINDS:
            raise ValidationError(f"unknown f_kind {self.f_kind!r}")
        if self.gamma < 0.0:
            raise ValidationError("gamma must be nonnegative")
        if self.f_kind in (F_POWER, F_AFFINE_PLUS_POWER) and self.s <= 0.0:
            raise ValidationError("s must be positive")
        if self.f_kind == F_LIPSCHITZ_TABLE:
            tab = tuple((float(a), float(b)) for a, b in self.table)
            if len(tab) < 2:
                raise ValidationError("table needs at least two samples")
            ts = [a for a, _ in tab]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValidationError("table abscissae must be strictly increasing")
            object.__setattr__(self, "table", tab)
        claims_g2prime = (
            self.C1 is not None or self.C2 is not None or self.eps_g2 is not None
        )
        if claims_g2prime:
            if self.g_kind != G_POWER or self.f_kind not in (F_POWER, F_AFFINE_PLUS_POWER):
                raise ValidationError(
                    "divided-difference constants require power-type G and f"
                )
            if not self.gamma < self.s:
                raise ValidationError("gamma must be strictly less than s")


def eval_G(spec: NonlinearitySpec, t):
    t = np.asarray(t, dtype=float)
    if spec.g_kind == G_IDENTITY:
        return t + 0.0
    return np.abs(t) ** spec.gamma * t


def eval_G_prime(spec: NonlinearitySpec, t):
    t = np.asarray(t, dtype=float)
    if spec.g_kind == G_IDENTITY:
        return np.ones_like(t)
    return (spec.gamma + 1.0) * np.abs(t) ** spec.gamma


def eval_f(spec: NonlinearitySpec, t):
    t = np.asarray(t, dtype=float)
    if spec.f_kind == F_CONSTANT:
        return np.full_like(t, spec.f_offset, dtype=float)
    if spec.f_kind in (F_POWER, F_AFFINE_PLUS_POWER):
        out = spec.f_scale * np.abs(t) ** spec.s * t
        if spec.f_kind == F_AFFINE_PLUS_POWER:
            out = out + spec.f_offset + spec.f_slope * t
        return out
    ts = np.array([a for a, _ in spec.table])
    vs = np.array([b for _, b in spec.table])
    return np.interp(t, ts, vs)


def eval_f_prime(spec: NonlinearitySpec, t):
    t = np.asarray(t, dtype=float)
    if spec.f_kind == F_CONSTANT:
        return np.zeros_like(t)
    if spec.f_kind in (F_POWER, F_AFFINE_PLUS_POWER):
        out = spec.f_scale * (spec.s + 1.0) * np.abs(t) ** spec.s
        if spec.f_kind == F_AFFINE_PLUS_POWER:
            out = out + spec.f_slope
        return out
    ts = np.array([a for a, _ in spec.table])
    vs = np.array([b for _, b in spec.table])
    slopes = np.diff(vs) / np.diff(ts)
    idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, slopes.size - 1)
    out = slopes[idx]
    out = np.where((t < ts[0]) | (t >= ts[-1]), 0.0, out)
    return out


def f_lipschitz_bound(spec: NonlinearitySpec, t_range=(-10.0, 10.0)):
    """Upper bound for |f'| over a range (grid estimate for power kinds)."""
    ts = np.linspace(t_range[0], t_range[1], 4001)
    return float(np.max(np.abs(eval_f_prime(spec, ts))))


def regime_flags(spec: NonlinearitySpec, t_probe=1e-3):
    """Signs of f' near 0+, used to sort sources into monotonicity regimes."""
    d = float(eval_f_prime(spec, t_probe))
    return {"f_prime_positive_near_zero": d > 0.0, "f_prime_nonpositive_near_zero": d <= 0.0}


# ----------------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------------


def check_odd_increasing(fn, sample_count=400, seed=0, scale=5.0, tol=1e-12):
    """Core of the G1 check on a raw callable: odd, 0 at 0, strictly increasing."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-scale, scale, size=sample_count)
    f0 = float(np.asarray(fn(np.array([0.0])))[0])
    if abs(f0) > tol:
        return False, (0.0, f0)
    odd_gap = np.asarray(fn(ts)) + np.asarray(fn(-ts))
    bad = np.argmax(np.abs(odd_gap))
    if abs(odd_gap[bad]) > tol * max(1.0, float(np.max(np.abs(fn(ts))))):
        return False, (float(ts[bad]), float(odd_gap[bad]))
    pairs = np.sort(rng.uniform(-scale, scale, size=(sample_count, 2)), axis=1)
    keep = pairs[:, 1] - pairs[:, 0] > 1e-9
    lo, hi = pairs[keep, 0], pairs[keep, 1]
    gaps = np.asarray(fn(hi)) - np.asarray(fn(lo))
    if np.any(gaps <= 0.0):
        i = int(np.argmin(gaps))
        return False, (float(lo[i]), float(hi[i]))
    return True, None


def check_G1(spec: NonlinearitySpec, sample_count=400, seed=0):
    ok, witness = check_odd_increasing(lambda t: eval_G(spec, t), sample_count, seed)
    return ok, witness


def check_G2(spec: NonlinearitySpec, t_min=1e-6):
    """Boundedness of f'/G' as t -> 0+.

    Evaluates the ratio on the geometric grid t_min * 2^k (up to 1) and
    fits the log-log slope over the smallest decade; the condition holds
    iff no sample has G' = 0 and the slope is >= -0.1 (no blow-up trend).
    """
    ts = []
    t = float(t_min)
    while t <= 1.0:
        ts.append(t)
        t *= 2.0
    ts = np.array(ts)
    gp = eval_G_prime(spec, ts)
    fp = np.abs(eval_f_prime(spec, ts))
    if np.any(gp == 0.0):
        bad = float(ts[np.argmax(gp == 0.0)])
        return {"holds": False, "witness": bad, "ratios": None, "slope": None}
    ratio = fp / gp
    decade = ts <= 10.0 * t_min
    if np.count_nonzero(decade) >= 2 and np.all(ratio[decade] > 0.0):
        slope = float(
            np.polynomial.polynomial.polyfit(
                np.log(ts[decade]), np.log(ratio[decade]), 1
            )[1]
        )
    else:
        slope = 0.0
    holds = bool(np.all(np.isfinite(ratio))) and slope >= -0.1
    return {
        "holds": holds,
        "witness": None if holds else float(ts[0]),
        "ratios": ratio,
        "slope": slope,
    }


def check_G2prime(spec: NonlinearitySpec, sample_count=2000, seed=0):
    """Divided-difference bounds on 0 < t1 < t2 < eps_g2.

    Fits the best constants: C1 = min slope_G / t2^gamma must be positive,
    C2 = max slope_f / t2^s must be finite.  Returns the fitted values so
    callers can compare with any declared constants.
    """
    if spec.eps_g2 is None:
        raise ValidationError("eps_g2 must be set to check the divided-difference bounds")
    rng = np.random.default_rng(seed)
    eps = float(spec.eps_g2)
    t = np.sort(rng.uniform(1e-12, eps, size=(sample_count, 2)), axis=1)
    keep = t[:, 1] - t[:, 0] > 1e-12 * eps
    t1, t2 = t[keep, 0], t[keep, 1]
    slope_g = (eval_G(spec, t2) - eval_G(spec, t1)) / (t2 - t1)
    slope_f = (eval_f(spec, t2) - eval_f(spec, t1)) / (t2 - t1)
    c1_fit = float(np.min(slope_g / t2 ** spec.gamma))
    c2_fit = float(np.max(slope_f / t2 ** spec.s))
    holds = c1_fit > 0.0 and math.isfinite(c2_fit)
    if spec.C1 is not None:
        holds = holds and c1_fit >= float(spec.C1) * (1.0 - 1e-9)
    if spec.C2 is not None:
        holds = holds and c2_fit <= float(spec.C2) * (1.0 + 1e-9)
    return {"holds": holds, "C1_fit": c1_fit, "C2_fit": c2_fit, "samples": int(t1.size)}


@dataclass(frozen=True)
class MvtResult:
    applicable: bool
    xi: float = math.nan
    ratio: float = math.nan


def check_mvt_property(spec: NonlinearitySpec, t1: float, t2: float) -> MvtResult:
    """Locate the mean-value point of G on [t1, t2] and its pinch ratio.

    For G(t) = |t|^gamma t the equation G'(xi) = (G(t2) - G(t1))/(t2 - t1)
    is solved in closed form: |xi| = (slope / (gamma + 1))^(1/gamma).  The
    ratio |xi| / max(|t1|, |t2|) is the quantity bounded below by the pinch
    property.  Not applicable for the identity (gamma = 0): G' is constant
    and every point is a mean-value point.
    """
    if spec.g_kind == G_IDENTITY or spec.gamma == 0.0:
        return MvtResult(applicable=False)
    if t1 == t2:
        raise ValidationError("t1 and t2 must differ")
    g = spec.gamma
    slope = float((eval_G(spec, t2) - eval_G(spec, t1)) / (t2 - t1))
    xi = (slope / (g + 1.0)) ** (1.0 / g)
    ratio = xi / max(abs(t1), abs(t2))
    return MvtResult(applicable=True, xi=float(xi), ratio=float(ratio))


def mvt_min_ratio(gamma: float, sample_count=10000, seed=0, scale=5.0):
    """Smallest pinch ratio over random pairs; vectorized closed form."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-scale, scale, size=(sample_count, 2))
    keep = np.abs(t[:, 1] - t[:, 0]) > 1e-9
    t1, t2 = t[keep, 0], t[keep, 1]
    spec = NonlinearitySpec(g_kind=G_POWER, gamma=gamma)
    slope = (eval_G(spec, t2) - eval_G(spec, t1)) / (t2 - t1)
    xi = (slope / (gamma + 1.0)) ** (1.0 / gamma)
    ratio = xi / np.maximum(np.abs(t1), np.abs(t2))
    return float(np.min(ratio))
