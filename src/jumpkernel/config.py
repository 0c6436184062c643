"""Experiment configuration: plain-JSON round-trip and validation.

One config file describes one batch experiment: which task to run, the
kernel (and optionally nonlinearity / solve domain) it runs on, quadrature
settings, and where artifacts go.  Each section is one library spec
(``KernelSpec``, ``QuadratureConfig``, ``NonlinearitySpec``, ``DomainSpec``,
``FieldSpec``) and its keys are that dataclass's fields; the top level is
``ExperimentConfig``.  ``to_dict`` / ``from_dict`` are the one mapping
between a spec and its JSON form, so ``load_config`` / ``save_config``
round-trip exactly: parsing the saved form reproduces the original object
field for field.

Validation messages always name the offending key or section, because the
batch front-end surfaces them verbatim as the exit-1 diagnostic: an unknown
key, a missing required key, a value of the wrong JSON type and a value the
spec itself rejects all raise ``ValidationError``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, asdict, dataclass, field as dc_field, fields as dc_fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .errors import ValidationError
from .kernels import KernelSpec
from .nonlinearity import NonlinearitySpec
from .quadrature import QuadratureConfig
from .solver import DomainSpec
from . import fields

TASK_CHECK_KERNEL = "CheckKernel"
TASK_EVAL_OPERATOR = "EvalOperator"
TASK_SOLVE_BALL = "SolveBall"
TASK_VERIFY_SYMMETRY = "VerifySymmetry"
TASK_SWEEP_ALPHA = "SweepAlpha"
TASK_NARROW_REGION = "NarrowRegion"
TASK_DECAY_INFINITY = "DecayInfinity"

TASKS = (
    TASK_CHECK_KERNEL,
    TASK_EVAL_OPERATOR,
    TASK_SOLVE_BALL,
    TASK_VERIFY_SYMMETRY,
    TASK_SWEEP_ALPHA,
    TASK_NARROW_REGION,
    TASK_DECAY_INFINITY,
)

# Sections a task cannot run without (the kernel section is always required).
_REQUIRED_SECTIONS = {
    TASK_SOLVE_BALL: ("domain",),
    TASK_VERIFY_SYMMETRY: ("domain",),
}


def _condition_is(name):
    return lambda s, e: s["conditions"].get(name) == bool(e)


def _at_most(name):
    return lambda s, e: s[name] <= float(e)


def _is(name):
    return lambda s, e: s[name] == bool(e)


# The expectations the suite runner checks: task -> key -> check(summary,
# expected value), in reporting order.  A key not listed for its task in a
# config's ``expect`` section is a config error, caught at load time.
EXPECTATIONS = {
    TASK_CHECK_KERNEL: {
        **{name: _condition_is(name) for name in (
            "LevyKhintchine", "K1", "K2", "Evenness", "G1", "G2", "G2prime")},
        "mvt_ratio_min": lambda s, e: (
            s.get("mvt_ratio_min") is not None and s["mvt_ratio_min"] > float(e)),
    },
    TASK_EVAL_OPERATOR: {
        "all_values_negative": lambda s, e: (s["max_value"] < 0.0) == bool(e),
        "all_values_positive": lambda s, e: (s["min_value"] > 0.0) == bool(e),
        "max_abs": lambda s, e: (
            max(abs(s["min_value"]), abs(s["max_value"])) <= float(e)),
    },
    TASK_SOLVE_BALL: {
        "max_residual": _at_most("final_residual_sup"),
        "max_sup": _at_most("sup_norm"),
    },
    TASK_VERIFY_SYMMETRY: {
        "symmetric": _is("symmetric"),
        "max_residual": _at_most("final_residual_sup"),
    },
    TASK_SWEEP_ALPHA: {
        "rel_error_max": _at_most("rel_error"),
        "abs_error_max": _at_most("abs_error"),
        "not_flagged": lambda s, e: s["flagged"] != bool(e),
    },
    TASK_NARROW_REGION: {"slope_rtol": _at_most("slope_rel_dev")},
    TASK_DECAY_INFINITY: {
        "slope_rtol": _at_most("slope_rel_dev"),
        "exceeds_bound": _is("exceeds_bound"),
    },
}

FIELD_GAUSSIAN = "gaussian"
FIELD_COMPACT = "compact"
FIELD_ODD_PAIR = "odd-pair"


@dataclass(frozen=True)
class FieldSpec:
    """Built-in analytic test field for evaluation tasks.

    ``scale`` is the Gaussian width or the compact-bump support radius;
    ``amplitude`` the peak height (depth for the compact bump).  The
    ``odd-pair`` shape is a bump at ``center`` minus its mirror image about
    the first-coordinate plane — an anti-symmetric deficit with a negative
    dip at the mirrored center, the test field for comparison principles.
    """

    shape: str = FIELD_GAUSSIAN
    center: tuple = ()
    scale: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.shape not in (FIELD_GAUSSIAN, FIELD_COMPACT, FIELD_ODD_PAIR):
            raise ValidationError(f"field.shape: unknown shape {self.shape!r}")
        if not self.scale > 0.0:
            raise ValidationError("field.scale must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def build(self, dim: int):
        center = np.asarray(self.center if self.center else np.zeros(dim))
        if center.size != dim:
            raise ValidationError("field.center must match the kernel dimension")
        if self.shape == FIELD_GAUSSIAN:
            return fields.gaussian_bump(
                dim, center=center, width=self.scale, amplitude=self.amplitude,
                label="config-gaussian",
            )
        if self.shape == FIELD_ODD_PAIR:
            mirrored = center.copy()
            mirrored[0] = -mirrored[0]
            halves = [
                fields.gaussian_bump(dim, center=center, width=self.scale,
                                     amplitude=self.amplitude),
                fields.gaussian_bump(dim, center=mirrored, width=self.scale,
                                     amplitude=self.amplitude),
            ]
            return fields.linear_combination(halves, [1.0, -1.0],
                                             label="config-odd-pair")
        return fields.compact_bump(
            dim, center=center, radius=self.scale, depth=self.amplitude,
            label="config-compact",
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch experiment.  ``quadrature`` left out means every consumer
    falls back to its own default (solvers pick model balls from the grid
    spacing, so a fixed global eps would be wrong for them)."""

    task: str
    kernel: KernelSpec
    quadrature: QuadratureConfig | None = None
    nonlinearity: NonlinearitySpec | None = None
    domain: DomainSpec | None = None
    field: FieldSpec | None = None
    output_dir: str = "out"
    seed: int = 0
    label: str = ""
    source: float = 1.0
    solve_tol: float = 1e-6
    axis: int = 1
    points: tuple = ()
    point_count: int = 8
    alpha_list: tuple = ()
    delta_list: tuple = ()
    radius_list: tuple = ()
    evenness_shift: float = 0.0
    expect: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(
                f"task: unknown task {self.task!r}; choose from {', '.join(TASKS)}"
            )
        if int(self.seed) != self.seed:
            raise ValidationError("seed must be an integer")
        for name in _REQUIRED_SECTIONS.get(self.task, ()):
            if getattr(self, name) is None:
                raise ValidationError(f"task {self.task} requires the {name!r} section")
        if self.domain is not None and self.domain.dim != self.kernel.dim:
            raise ValidationError("domain.dim must match kernel.dim")
        if not 1 <= self.axis <= self.kernel.dim:
            raise ValidationError("axis must lie in 1..kernel.dim")
        if self.point_count < 1:
            raise ValidationError("point_count must be positive")
        if not self.solve_tol > 0.0:
            raise ValidationError("solve_tol must be positive")
        pts = tuple(tuple(float(v) for v in p) for p in self.points)
        if any(len(p) != self.kernel.dim for p in pts):
            raise ValidationError("points entries must match the kernel dimension")
        object.__setattr__(self, "points", pts)
        for name in ("alpha_list", "delta_list", "radius_list"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name))
            )
        if any(not 0.0 < a < 2.0 for a in self.alpha_list):
            raise ValidationError("alpha_list: alpha must lie in (0,2)")
        for key in self.expect:
            if key not in EXPECTATIONS[self.task]:
                raise ValidationError(
                    f"expect: unknown key {key!r} for task {self.task}"
                )


# ----------------------------------------------------------------------------
# Serialization: one JSON mapping for every spec, driven by its fields
# ----------------------------------------------------------------------------

# The nested sections of a config and the spec each one parses into.
_SECTIONS = {
    "kernel": KernelSpec,
    "quadrature": QuadratureConfig,
    "nonlinearity": NonlinearitySpec,
    "domain": DomainSpec,
    "field": FieldSpec,
}

# A float field also takes a JSON integer, a tuple field a JSON list.
_JSON_TYPES = {float: (int, float), tuple: (list, tuple)}


@functools.cache
def _accepted_types(cls) -> dict:
    """Field name -> the Python types its JSON value may have.  Cached per
    spec class: resolving the annotations costs more than the parse."""
    return {
        name: tuple(t for h in (get_args(hint) or (hint,)) for t in _JSON_TYPES.get(h, (h,)))
        for name, hint in get_type_hints(cls).items()
    }


def to_dict(spec) -> dict:
    """The JSON form of a spec or config: its fields, ``None`` entries dropped
    at every level."""
    return asdict(spec, dict_factory=lambda items: {k: v for k, v in items if v is not None})


def _tuples(v):
    return tuple(_tuples(x) for x in v) if isinstance(v, list) else v


def from_dict(cls, d, section: str = "config"):
    """Build ``cls`` from its JSON form; every error names the key at fault.

    The keys are the dataclass fields of ``cls``: an unknown key, a missing
    field without a default, or a value of the wrong JSON type is a
    ``ValidationError``.  Lists become tuples; the nested sections of a
    config parse through ``_SECTIONS``.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"{section}: must be a JSON object")
    declared = {f.name: f for f in dc_fields(cls)}
    unknown = sorted(set(d) - set(declared))
    if unknown:
        raise ValidationError(f"unknown {section} keys {unknown}")
    accepted = _accepted_types(cls)
    kw = {}
    for name, f in declared.items():
        if name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{section}.{name}: missing required key")
            continue
        value = d[name]
        if cls is ExperimentConfig and name in _SECTIONS and value is not None:
            kw[name] = from_dict(_SECTIONS[name], value, name)
            continue
        if not isinstance(value, accepted[name]):
            raise ValidationError(
                f"{section}.{name}: expected {f.type}, got {type(value).__name__}"
            )
        kw[name] = _tuples(value)
    try:
        return cls(**kw)
    except (TypeError, ValueError) as exc:
        if cls is ExperimentConfig and isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"{section}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return from_dict(ExperimentConfig, raw)


def save_config(config: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def with_overrides(config: ExperimentConfig, task=None, seed=None, output_dir=None):
    """A copy with CLI-level overrides applied (None leaves a field alone)."""
    kw = {}
    if task is not None:
        kw["task"] = task
    if seed is not None:
        kw["seed"] = int(seed)
    if output_dir is not None:
        kw["output_dir"] = str(output_dir)
    return replace(config, **kw) if kw else config
