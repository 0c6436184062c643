"""Batch front-end: run experiments from config files, emit artifacts.

Each run executes one task from an :class:`~jumpkernel.config.ExperimentConfig`
and writes its artifacts plus a ``manifest.json`` listing every file with a
SHA-256 content hash.  Exit codes: 0 success, 1 config/validation error
(the message names the offending key), 2 numeric non-convergence (partial
artifacts are still written and the manifest marks them partial).

``verify_suite`` runs a directory of configs — concurrently up to a job
bound — and prints a pass/fail matrix keyed by each config's label.  A row
passes when the run exits 0 and every declared expectation holds.

All numeric output uses 17 significant digits, so CSVs round-trip doubles
exactly and a fixed seed reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ValidationError, NonConvergenceError
from . import kernels
from .kernels import (
    eval_kernel,
    check_levy_khintchine,
    check_K1,
    check_monotone_K2,
)
from .nonlinearity import (
    NonlinearitySpec,
    G_IDENTITY,
    G_POWER,
    F_CONSTANT,
    check_G1,
    check_G2,
    check_G2prime,
    mvt_min_ratio,
)
from .quadrature import eval_LK, eval_FGK
from .solver import solve_dirichlet, solve_dirichlet_nonlinear
from .moving_planes import (
    PlaneReflection,
    sweep_lambda,
    narrow_region_bound,
    decay_at_infinity_bound,
    verify_radial_symmetry,
)
from . import alpha_limit
from .fields import save_grid_field
from .quadrules import richardson_fit
from .config import (
    EXPECTATIONS,
    ExperimentConfig,
    FieldSpec,
    load_config,
    to_dict,
    with_overrides,
    TASKS,
    TASK_CHECK_KERNEL,
    TASK_EVAL_OPERATOR,
    TASK_SOLVE_BALL,
    TASK_VERIFY_SYMMETRY,
    TASK_SWEEP_ALPHA,
    TASK_NARROW_REGION,
    TASK_DECAY_INFINITY,
)

_DEFAULT_RADII = (2.0, 4.0, 8.0, 16.0, 32.0)


# ----------------------------------------------------------------------------
# Deterministic artifact writers
# ----------------------------------------------------------------------------


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
            fh.write("\n")


def _sanitize(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    return obj


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------------
# Task bodies.  Each writes its artifacts into ``outdir``, appends their
# names to ``written``, and returns a summary dict for the manifest.
# ----------------------------------------------------------------------------


def _check_evenness(config, sample_count=10000):
    """K(y) = K(-y) at random points; an axis shift breaks it on purpose."""
    spec = config.kernel
    rng = np.random.default_rng(config.seed)
    pts = rng.uniform(-3.0, 3.0, size=(sample_count, spec.dim))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
    shift = np.zeros(spec.dim)
    shift[0] = config.evenness_shift
    a = eval_kernel(spec, pts - shift)
    b = eval_kernel(spec, -pts - shift)
    diff = np.abs(a - b)
    holds = bool(np.all(diff == 0.0))
    witness = None if holds else tuple(pts[int(np.argmax(diff > 0.0))])
    return kernels.ConditionReport(
        condition="Evenness",
        holds=holds,
        witness=witness,
        estimate=float(np.max(diff)),
        detail={"samples": int(pts.shape[0]), "shift": config.evenness_shift},
    )


def _run_check_kernel(config, outdir, written):
    spec = config.kernel
    seed = config.seed
    reports = [
        check_levy_khintchine(spec),
        check_K1(spec, seed=seed),
        check_monotone_K2(spec, axis=config.axis, seed=seed),
        _check_evenness(config),
    ]
    conditions = {"LevyKhintchine": reports[0], "K1": reports[1],
                  "K2": reports[2], "Evenness": reports[3]}
    payload = {
        "kernel": to_dict(spec),
        "conditions": [dataclasses.asdict(r) for r in conditions.values()],
    }
    holds = {name: bool(rep.holds) for name, rep in conditions.items()}
    mvt = None
    gspec = config.nonlinearity
    if gspec is not None:
        ok, wit = check_G1(gspec, seed=seed)
        g2 = check_G2(gspec)
        nl = [
            {"condition": "G1", "holds": bool(ok),
             "witness": None if wit is None else _sanitize(wit)},
            {"condition": "G2", "holds": bool(g2["holds"]),
             "witness": g2["witness"], "slope": g2["slope"]},
        ]
        holds["G1"] = bool(ok)
        holds["G2"] = bool(g2["holds"])
        if gspec.eps_g2 is not None:
            g2p = check_G2prime(gspec, seed=seed)
            nl.append({"condition": "G2prime", "holds": bool(g2p["holds"]),
                       "C1_fit": g2p["C1_fit"], "C2_fit": g2p["C2_fit"]})
            holds["G2prime"] = bool(g2p["holds"])
        if gspec.g_kind == G_POWER and gspec.gamma > 0.0:
            mvt = mvt_min_ratio(gspec.gamma, seed=seed)
            nl.append({"condition": "MvtRatio", "min_ratio": mvt})
        payload["nonlinearity_conditions"] = nl
    _write_json(outdir / "kernel_report.json", payload)
    written.append("kernel_report.json")
    return {"conditions": holds, "mvt_ratio_min": mvt}


def _eval_points(config):
    n = config.kernel.dim
    if config.points:
        return np.asarray(config.points, dtype=float)
    rng = np.random.default_rng(config.seed)
    return rng.uniform(-0.5, 0.5, size=(config.point_count, n))


def _run_eval_operator(config, outdir, written):
    spec = config.kernel
    u = (config.field or FieldSpec()).build(spec.dim)
    pts = _eval_points(config)
    gspec = config.nonlinearity
    rows = []
    for x in pts:
        if gspec is not None:
            res = eval_FGK(u, gspec, spec, x, config.quadrature)
        else:
            res = eval_LK(u, spec, x, config.quadrature)
        rows.append(tuple(x) + (res.value, res.err_estimate,
                                res.tail_bound, res.inner_contribution))
    header = [f"x{i + 1}[1]" for i in range(spec.dim)] + [
        "value[1]", "err_estimate[1]", "tail_bound[1]", "inner_contribution[1]",
    ]
    _write_csv(outdir / "eval.csv", header, rows)
    written.append("eval.csv")
    values = [r[spec.dim] for r in rows]
    return {
        "count": len(rows),
        "min_value": min(values),
        "max_value": max(values),
        "max_err": max(r[spec.dim + 1] for r in rows),
    }


def _write_solution(outdir, written, u, report):
    if u is not None:
        save_grid_field(u, outdir / "solution.grid")
        written.append("solution.grid")
    if report is not None:
        _write_csv(
            outdir / "solve_report.csv",
            ["iteration[1]", "residual_sup[1]"],
            list(enumerate(report.residual_history)),
        )
        written.append("solve_report.csv")


def _solve(config, outdir, written):
    """The solution field and its report.  On non-convergence the partial
    solution the error carries is written before the error propagates."""
    gspec = config.nonlinearity
    if gspec is None:
        gspec = NonlinearitySpec(f_kind=F_CONSTANT, f_offset=config.source)
    try:
        if gspec.g_kind == G_IDENTITY:
            return solve_dirichlet(
                config.kernel, gspec, config.domain, config.quadrature,
                solve_tol=config.solve_tol,
            )
        return solve_dirichlet_nonlinear(
            gspec, config.kernel, config.domain, config.quadrature,
            solve_tol=config.solve_tol,
        )
    except NonConvergenceError as exc:
        _write_solution(outdir, written,
                        getattr(exc, "field", None), getattr(exc, "report", None))
        raise


def _run_solve_ball(config, outdir, written):
    u, report = _solve(config, outdir, written)
    _write_solution(outdir, written, u, report)
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "final_residual_sup": report.final_residual_sup,
        "sup_norm": float(np.max(np.abs(u.grid.values))),
    }


def _interp_budget(u):
    """Half the largest adjacent-node jump: radial variation a symmetric
    field may legitimately show between nodes of nearly equal radius."""
    biggest = 0.0
    for ax in range(u.grid.values.ndim):
        biggest = max(biggest, float(np.max(np.abs(np.diff(u.grid.values, axis=ax)))))
    return 0.5 * biggest


def _run_verify_symmetry(config, outdir, written):
    u, report = _solve(config, outdir, written)
    n = config.kernel.dim
    sweep_tol = max(1e-12, 5.0 * config.solve_tol)
    rows, axes = [], []
    for axis in range(1, n + 1):
        mp = sweep_lambda(u, axis, tolerance=sweep_tol)
        rows.extend((axis, lam, mw) for lam, mw in zip(mp.lambda_grid, mp.min_w))
        axes.append({
            "axis": axis,
            "lambda_o": mp.lambda_o,
            "symmetric_verdict": mp.symmetric_verdict,
            "tolerance": mp.tolerance,
        })
    radial_tol = 5.0 * config.solve_tol + _interp_budget(u)
    rad = verify_radial_symmetry(u, np.zeros(n), tolerance=radial_tol)
    _write_csv(outdir / "moving_plane.csv",
               ["axis[1]", "lambda[1]", "min_w[1]"], rows)
    written.append("moving_plane.csv")
    _write_json(outdir / "certificates.json", {
        "axes": axes,
        "radial": {
            "max_deviation": rad.max_deviation,
            "monotone_violations": rad.monotone_violations,
            "pair_count": rad.pair_count,
            "ray_count": rad.ray_count,
            "tolerance": radial_tol,
        },
        "solve": {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual_sup": report.final_residual_sup,
        },
    })
    written.append("certificates.json")
    symmetric = (all(a["symmetric_verdict"] for a in axes)
                 and rad.monotone_violations == 0)
    return {
        "symmetric": symmetric,
        "lambda_o": [a["lambda_o"] for a in axes],
        "max_abs_lambda_o": max(abs(a["lambda_o"]) for a in axes),
        "radial_max_deviation": rad.max_deviation,
        "final_residual_sup": report.final_residual_sup,
        "grid_h": config.domain.h,
    }


def _run_sweep_alpha(config, outdir, written):
    spec = config.kernel
    u = (config.field or FieldSpec()).build(spec.dim)
    x = np.asarray(config.points[0]) if config.points else np.zeros(spec.dim)
    alphas = config.alpha_list or alpha_limit.DEFAULT_ALPHAS
    rep = alpha_limit.sweep_alpha(u, spec, x, alphas, cfg=config.quadrature)
    gaps = [2.0 - a for a in rep.alpha_list]
    running = [rep.values[0]]
    for k in range(2, len(gaps) + 1):
        if k == 2:
            g0, g1 = gaps[0], gaps[1]
            y0, y1 = rep.values[0], rep.values[1]
            running.append(y0 - g0 * (y1 - y0) / (g1 - g0))
        else:
            running.append(richardson_fit(gaps[:k], rep.values[:k])[0])
    _write_csv(
        outdir / "alpha_sweep.csv",
        ["alpha[1]", "value[1]", "running_extrapolation[1]"],
        list(zip(rep.alpha_list, rep.values, running)),
    )
    written.append("alpha_sweep.csv")
    abs_error = abs(rep.extrapolated_limit - rep.reference)
    return {
        "family": rep.family,
        "extrapolated_limit": rep.extrapolated_limit,
        "reference": rep.reference,
        "rel_error": rep.rel_error,
        "abs_error": abs_error,
        "flagged": rep.flagged,
    }


def _run_narrow_region(config, outdir, written):
    spec = config.kernel
    plane = PlaneReflection(axis=config.axis, lam=0.0)
    x0 = np.asarray(config.points[0]) if config.points else np.zeros(spec.dim)
    if config.delta_list:
        rows = narrow_region_bound(spec, x0, plane, config.delta_list)
    else:
        rows = narrow_region_bound(spec, x0, plane)
    _write_csv(outdir / "bounds.csv",
               ["delta[1]", "halfspace_mass[1]", "fit_slope[1]"], rows)
    written.append("bounds.csv")
    slope = rows[0][2]
    return {
        "slope": slope,
        "target_slope": -spec.alpha,
        "slope_rel_dev": abs(slope + spec.alpha) / spec.alpha,
    }


def _run_decay_infinity(config, outdir, written):
    spec = config.kernel
    plane = PlaneReflection(axis=config.axis, lam=0.0)
    radii = config.radius_list or _DEFAULT_RADII
    rows = decay_at_infinity_bound(spec, plane, radii)
    _write_csv(outdir / "bounds.csv",
               ["radius[1]", "halfspace_mass[1]", "reference_bound[1]"], rows)
    written.append("bounds.csv")
    logr = np.log([r for r, _, _ in rows])
    logm = np.log([m for _, m, _ in rows])
    slope = float(np.polyfit(logr, logm, 1)[0])
    exceeds = all(m >= b * (1.0 - 1e-9) for _, m, b in rows)
    return {
        "slope": slope,
        "target_slope": -spec.alpha,
        "slope_rel_dev": abs(slope + spec.alpha) / spec.alpha,
        "exceeds_bound": exceeds,
    }


_TASK_RUNNERS = {
    TASK_CHECK_KERNEL: _run_check_kernel,
    TASK_EVAL_OPERATOR: _run_eval_operator,
    TASK_SOLVE_BALL: _run_solve_ball,
    TASK_VERIFY_SYMMETRY: _run_verify_symmetry,
    TASK_SWEEP_ALPHA: _run_sweep_alpha,
    TASK_NARROW_REGION: _run_narrow_region,
    TASK_DECAY_INFINITY: _run_decay_infinity,
}


# ----------------------------------------------------------------------------
# Expectations — the declarative pass criteria behind the suite matrix
# ----------------------------------------------------------------------------


def _expectation_failures(config, summary):
    return [
        key for key, holds in EXPECTATIONS[config.task].items()
        if key in config.expect and not holds(summary, config.expect[key])
    ]


# ----------------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------------


def run(config: ExperimentConfig, output_dir=None) -> int:
    """Execute one task; write artifacts and the manifest.  Returns the
    exit code (0 ok, 2 non-convergence); validation errors raise."""
    outdir = Path(
        output_dir
        or os.environ.get("JUMPKERNEL_OUTPUT_DIR")
        or config.output_dir
    )
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        summary = _TASK_RUNNERS[config.task](config, outdir, written)
        code = 0
        fails = _expectation_failures(config, summary)
    except NonConvergenceError as exc:
        summary = {"error": str(exc)}
        code = 2
        fails = ["non-convergence"]
    partial = code != 0
    manifest = {
        "task": config.task,
        "label": config.label,
        "seed": config.seed,
        "status": "partial" if partial else "complete",
        "files": [
            {"name": name, "sha256": _sha256(outdir / name), "partial": partial}
            for name in written
        ],
        "summary": summary,
        "expect_met": code == 0 and not fails,
        "expect_failures": fails,
    }
    _write_json(outdir / "manifest.json", manifest)
    return code


def verify_suite(config_dir, output_dir=None, jobs=1, seed=None, task=None):
    """Run every config in a directory; print the pass/fail matrix.

    Returns 0 when every row passes, 1 otherwise (including an empty
    directory, which is reported as an error)."""
    paths = sorted(p for p in Path(config_dir).iterdir()
                   if p.is_file() and p.suffix == ".json")
    if not paths:
        print(f"error: no config files found in {config_dir}", file=sys.stderr)
        return 1
    base = Path(
        output_dir
        or os.environ.get("JUMPKERNEL_OUTPUT_DIR")
        or "suite-out"
    )

    def one(path):
        try:
            cfg = with_overrides(load_config(path), task=task, seed=seed)
        except ValidationError as exc:
            return (path.stem, "-", "FAIL", str(exc))
        label = cfg.label or path.stem
        try:
            code = run(cfg, base / path.stem)
        except ValidationError as exc:
            return (label, cfg.task, "FAIL", str(exc))
        manifest = json.loads((base / path.stem / "manifest.json").read_text())
        if code != 0:
            return (label, cfg.task, "FAIL", f"exit {code}")
        if not manifest["expect_met"]:
            return (label, cfg.task, "FAIL",
                    "expect: " + ",".join(manifest["expect_failures"]))
        return (label, cfg.task, "PASS", "")

    with ThreadPoolExecutor(max_workers=max(1, int(jobs))) as pool:
        rows = list(pool.map(one, paths))
    wl = max(len(r[0]) for r in rows + [("label",)])
    wt = max(len(r[1]) for r in rows + [("", "task")])
    print(f"{'label':<{wl}}  {'task':<{wt}}  status  note")
    for label, tname, status, note in rows:
        print(f"{label:<{wl}}  {tname:<{wt}}  {status:<6}  {note}".rstrip())
    failed = sum(r[2] != "PASS" for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpkernel",
        description="Run jump-kernel experiments from JSON configs.",
    )
    parser.add_argument(
        "--config", required=True,
        help="config file, or a directory of configs to run as a suite",
    )
    parser.add_argument("--output", default=None, help="artifact directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent runs in suite mode")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--task", default=None, choices=TASKS,
                        help="override the config task")
    args = parser.parse_args(argv)
    out = args.output or os.environ.get("JUMPKERNEL_OUTPUT_DIR")
    path = Path(args.config)
    try:
        if path.is_dir():
            return verify_suite(path, out, jobs=args.jobs,
                                seed=args.seed, task=args.task)
        config = with_overrides(load_config(path), task=args.task, seed=args.seed)
        code = run(config, out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    where = out or config.output_dir
    verdict = "ok" if code == 0 else "non-convergence (partial artifacts)"
    print(f"[{config.label or path.stem}] {config.task}: {verdict} -> {where}")
    return code


if __name__ == "__main__":
    sys.exit(main())
