"""Spans and counters recorded around calls into jumpkernel's layers.

The benchmark never edits the program: ``Tracer.install`` replaces public
functions at the module attribute each caller looks them up through (for
example ``jumpkernel.solver.eval_LK``, which the solver imported by name)
and ``uninstall`` puts the originals back.  Layer boundaries that are
entered a few thousand times per round become spans (name, start, end,
parent), kept in memory and written as JSON lines when the run ends.  The
innermost helpers (``Field.value``, ``radial_profile``, ``outer_mass``,
``eval_kernel``) are entered hundreds of thousands of times, so they only
add to a call count and a busy time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import time

import numpy as np

# Span names, one per layer boundary.
EVAL_LK = "quadrature.eval_LK"
EVAL_FGK = "quadrature.eval_FGK"
ADAPTIVE = "quadrules.adaptive_interval"
SWEEP_ALPHA = "alpha_limit.sweep_alpha"
TENSOR_CELL = "quadrules.tensor_gauss_cell"
ASSEMBLE = "solver.assemble_LK_matrix"
SOLVE = "solver.solve_dirichlet"
SOLVE_NL = "solver.solve_dirichlet_nonlinear"
SWEEP_LAMBDA = "moving_planes.sweep_lambda"
RADIAL = "moving_planes.verify_radial_symmetry"
CLI_RUN = "cli.run"
LOAD_CONFIG = "config.load_config"

# (module, attribute, span name): every lookup site of each traced function.
_SPAN_SITES = [
    ("quadrature", "eval_LK", EVAL_LK),
    ("solver", "eval_LK", EVAL_LK),
    ("cli", "eval_LK", EVAL_LK),
    ("alpha_limit", "eval_LK", EVAL_LK),
    ("moving_planes", "eval_LK", EVAL_LK),
    ("quadrature", "eval_FGK", EVAL_FGK),
    ("solver", "eval_FGK", EVAL_FGK),
    ("cli", "eval_FGK", EVAL_FGK),
    ("quadrature", "adaptive_interval", ADAPTIVE),
    ("alpha_limit", "sweep_alpha", SWEEP_ALPHA),
    ("solver", "tensor_gauss_cell", TENSOR_CELL),
    ("solver", "assemble_LK_matrix", ASSEMBLE),
    ("solver", "solve_dirichlet", SOLVE),
    ("cli", "solve_dirichlet", SOLVE),
    ("cli", "solve_dirichlet_nonlinear", SOLVE_NL),
    ("cli", "sweep_lambda", SWEEP_LAMBDA),
    ("cli", "verify_radial_symmetry", RADIAL),
    ("cli", "run", CLI_RUN),
    ("config", "load_config", LOAD_CONFIG),
    ("cli", "load_config", LOAD_CONFIG),
]

# (module, attribute, counter name) for the hot helpers.
_LEAF_SITES = [
    ("quadrature", "radial_profile", "kernels.radial_profile"),
    ("quadrature", "outer_mass", "kernels.outer_mass"),
    ("solver", "eval_kernel", "kernels.eval_kernel"),
]


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self, jk):
        for mod in {site[0] for site in _SPAN_SITES + _LEAF_SITES} | {"errors", "fields"}:
            importlib.import_module(f"{jk.__name__}.{mod}")
        self.jk = jk  # the jumpkernel package
        self.spans = []  # (id, parent id, name, start, end, dim or None)
        self.counts = collections.Counter()
        self.busy = collections.Counter()
        self._stack = []  # (id, name) of the open spans
        self._ids = itertools.count(1)
        self._saved = []
        self._last_residual_field = None

    # -- installation ---------------------------------------------------------

    def install(self):
        jk = self.jk
        for mod, attr, name in _SPAN_SITES:
            self._patch(getattr(jk, mod), attr, self._span_wrapper(name))
        for mod, attr, name in _LEAF_SITES:
            self._patch(getattr(jk, mod), attr, self._leaf_wrapper(name))
        self._patch(jk.fields.Field, "value", self._value_wrapper())

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name):
        nonconv = self.jk.errors.NonConvergenceError

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent, parent_name = self._stack[-1] if self._stack else (0, None)
                self._note_call(name, parent_name, args)
                sid = next(self._ids)
                self._stack.append((sid, name))
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                except nonconv:
                    self._note_nonconvergence(name, parent_name)
                    raise
                finally:
                    t1 = time.perf_counter()
                    self._stack.pop()
                    dim = args[1].dim if name == ASSEMBLE else None
                    self.spans.append((sid, parent, name, t0, t1, dim))
                if name == SOLVE_NL:
                    self.counts["solver.nonlinear.sweeps"] += out[1].iterations
                elif name == ADAPTIVE:
                    self.counts["quadrules.adaptive_interval.nodes"] += out[3]
                return out

            return wrapper

        return make

    def _note_call(self, name, parent_name, args):
        # One residual evaluation of the nonlinear solver is one pass of
        # eval_FGK over the nodes, all on one freshly built lattice field.
        if name == EVAL_FGK and parent_name == SOLVE_NL:
            if args[0] is not self._last_residual_field:
                self._last_residual_field = args[0]
                self.counts["solver.nonlinear.residual_evals"] += 1

    def _note_nonconvergence(self, name, parent_name):
        if name not in (EVAL_LK, EVAL_FGK):
            return
        self.counts["quadrature.nonconverged"] += 1
        if parent_name == SWEEP_ALPHA:
            self.counts["alpha_limit.sweep_alpha.retries"] += 1
        if parent_name == SOLVE_NL:
            self.counts["solver.nonlinear.suppressed_nonconvergence"] += 1

    def _leaf_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.busy[name] += time.perf_counter() - t0
                    self.counts[name + ".calls"] += 1

            return wrapper

        return make

    def _value_wrapper(self):
        def make(fn):
            @functools.wraps(fn)
            def value(field, pts):
                t0 = time.perf_counter()
                try:
                    return fn(field, pts)
                finally:
                    self.busy["fields.value"] += time.perf_counter() - t0
                    self.counts["fields.value.calls"] += 1
                    self.counts["fields.value.points"] += np.size(pts) // field.dim

            return value

        return make

    # -- reduction -------------------------------------------------------------

    def metrics(self):
        """Per-layer totals: ``{name: (value, unit)}``."""
        total = collections.Counter()
        calls = collections.Counter()
        child = collections.Counter()  # span id -> time covered by its children
        by_id = {}
        for sid, parent, name, t0, t1, dim in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            child[parent] += t1 - t0
            by_id[sid] = (name, dim)
        near_n = near_s = far_s = far_entries = 0.0
        for sid, parent, name, t0, t1, _ in self.spans:
            pname, pdim = by_id.get(parent, (None, None))
            if pname != ASSEMBLE:
                continue
            if name == EVAL_LK:
                near_n += 1
                near_s += t1 - t0
            elif name == TENSOR_CELL:
                far_s += t1 - t0
                far_entries += 1.0 / 2 ** pdim  # each far entry integrates 2^dim cells

        def self_time(which):
            return sum(t1 - t0 - child[sid] for sid, _, name, t0, t1, _ in self.spans if name == which)

        c = self.counts
        out = {
            "quadrature.eval_LK.calls": (calls[EVAL_LK], "count"),
            "quadrature.eval_LK.s": (total[EVAL_LK], "s"),
            "quadrature.eval_FGK.calls": (calls[EVAL_FGK], "count"),
            "quadrature.eval_FGK.s": (total[EVAL_FGK], "s"),
            "quadrature.nonconverged": (c["quadrature.nonconverged"], "count"),
            "quadrules.adaptive_interval.calls": (calls[ADAPTIVE], "count"),
            "quadrules.adaptive_interval.nodes": (c["quadrules.adaptive_interval.nodes"], "count"),
            "quadrules.adaptive_interval.s": (total[ADAPTIVE], "s"),
            "fields.value.calls": (c["fields.value.calls"], "count"),
            "fields.value.points": (c["fields.value.points"], "count"),
            "fields.value.s": (self.busy["fields.value"], "s"),
            "kernels.radial_profile.calls": (c["kernels.radial_profile.calls"], "count"),
            "kernels.radial_profile.s": (self.busy["kernels.radial_profile"], "s"),
            "kernels.outer_mass.calls": (c["kernels.outer_mass.calls"], "count"),
            "kernels.outer_mass.s": (self.busy["kernels.outer_mass"], "s"),
            "alpha_limit.sweep_alpha.s": (total[SWEEP_ALPHA], "s"),
            "alpha_limit.sweep_alpha.retries": (c["alpha_limit.sweep_alpha.retries"], "count"),
            "quadrules.tensor_gauss_cell.calls": (calls[TENSOR_CELL], "count"),
            "quadrules.tensor_gauss_cell.s": (total[TENSOR_CELL], "s"),
            "kernels.eval_kernel.calls": (c["kernels.eval_kernel.calls"], "count"),
            "kernels.eval_kernel.s": (self.busy["kernels.eval_kernel"], "s"),
            "solver.assemble_LK_matrix.s": (total[ASSEMBLE], "s"),
            "solver.assemble_LK_matrix.self_s": (self_time(ASSEMBLE), "s"),
            "solver.assemble.near_entries": (int(near_n), "count"),
            "solver.assemble.near_s": (near_s, "s"),
            "solver.assemble.far_entries": (int(round(far_entries)), "count"),
            "solver.assemble.far_s": (far_s, "s"),
            "solver.solve_dirichlet.s": (total[SOLVE], "s"),
            "solver.solve_dirichlet_nonlinear.s": (total[SOLVE_NL], "s"),
            "solver.nonlinear.sweeps": (c["solver.nonlinear.sweeps"], "count"),
            "solver.nonlinear.residual_evals": (c["solver.nonlinear.residual_evals"], "count"),
            "solver.nonlinear.suppressed_nonconvergence": (
                c["solver.nonlinear.suppressed_nonconvergence"], "count"),
            "moving_planes.sweep_lambda.s": (total[SWEEP_LAMBDA], "s"),
            "moving_planes.verify_radial_symmetry.s": (total[RADIAL], "s"),
            "cli.run.s": (total[CLI_RUN], "s"),
            "cli.run.self_s": (self_time(CLI_RUN), "s"),
            "config.load_config.s": (total[LOAD_CONFIG], "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        return out

    def write_jsonl(self, path):
        """One JSON object per span, then one with the counters."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, _ in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0 - origin, "end": t1 - origin}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts),
                                 "busy_s": dict(self.busy)}, sort_keys=True) + "\n")
