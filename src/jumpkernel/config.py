"""Experiment configuration: plain-JSON round-trip and validation.

One config file describes one batch experiment: which task to run, the
kernel (and optionally nonlinearity / solve domain) it runs on, quadrature
settings, and where artifacts go.  Section names mirror the library
dataclasses so a config is readable next to the code.  ``load_config`` /
``save_config`` round-trip exactly: parsing the saved form reproduces the
original object field for field.

Validation messages always name the offending key or section, because the
batch front-end surfaces them verbatim as the exit-1 diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, asdict, replace

import numpy as np

from .errors import ValidationError
from .kernels import KernelSpec, kernel_to_dict, kernel_from_dict
from .nonlinearity import (
    NonlinearitySpec,
    nonlinearity_to_dict,
    nonlinearity_from_dict,
)
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
# Serialization
# ----------------------------------------------------------------------------


def _quadrature_to_dict(cfg: QuadratureConfig) -> dict:
    return asdict(cfg)


def _quadrature_from_dict(d: dict) -> QuadratureConfig:
    known = {"eps_inner", "r_outer", "rel_tol", "max_depth"}
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"quadrature: unknown fields {sorted(unknown)}")
    return QuadratureConfig(**d)


def _domain_to_dict(dom: DomainSpec) -> dict:
    return asdict(dom)


def _domain_from_dict(d: dict) -> DomainSpec:
    known = {"dim", "radius", "grid_n"}
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"domain: unknown fields {sorted(unknown)}")
    return DomainSpec(**d)


def _field_to_dict(fs: FieldSpec) -> dict:
    d = asdict(fs)
    d["center"] = list(d["center"])
    return d


def _field_from_dict(d: dict) -> FieldSpec:
    known = {"shape", "center", "scale", "amplitude"}
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"field: unknown fields {sorted(unknown)}")
    return FieldSpec(**d)


def config_to_dict(config: ExperimentConfig) -> dict:
    d = {
        "task": config.task,
        "kernel": kernel_to_dict(config.kernel),
        "output_dir": config.output_dir,
        "seed": config.seed,
        "label": config.label,
        "source": config.source,
        "solve_tol": config.solve_tol,
        "axis": config.axis,
        "points": [list(p) for p in config.points],
        "point_count": config.point_count,
        "alpha_list": list(config.alpha_list),
        "delta_list": list(config.delta_list),
        "radius_list": list(config.radius_list),
        "evenness_shift": config.evenness_shift,
        "expect": dict(config.expect),
    }
    if config.quadrature is not None:
        d["quadrature"] = _quadrature_to_dict(config.quadrature)
    if config.nonlinearity is not None:
        d["nonlinearity"] = nonlinearity_to_dict(config.nonlinearity)
    if config.domain is not None:
        d["domain"] = _domain_to_dict(config.domain)
    if config.field is not None:
        d["field"] = _field_to_dict(config.field)
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ValidationError("config must be a JSON object")
    known = {
        "task", "kernel", "quadrature", "nonlinearity", "domain", "field",
        "output_dir", "seed", "label", "source", "solve_tol", "axis",
        "points", "point_count", "alpha_list", "delta_list", "radius_list",
        "evenness_shift", "expect",
    }
    unknown = set(d) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "task" not in d:
        raise ValidationError("task: missing required key")
    if "kernel" not in d:
        raise ValidationError("kernel: missing required section")
    kw = dict(d)
    try:
        kw["kernel"] = kernel_from_dict(d["kernel"])
    except ValidationError as exc:
        raise ValidationError(f"kernel: {exc}") from exc
    if "quadrature" in d:
        kw["quadrature"] = _quadrature_from_dict(d["quadrature"])
    if "nonlinearity" in d:
        try:
            kw["nonlinearity"] = nonlinearity_from_dict(d["nonlinearity"])
        except ValidationError as exc:
            raise ValidationError(f"nonlinearity: {exc}") from exc
    if "domain" in d:
        kw["domain"] = _domain_from_dict(d["domain"])
    if "field" in d:
        kw["field"] = _field_from_dict(d["field"])
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def save_config(config: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
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
