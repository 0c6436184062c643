"""The benchmark's three workloads: inputs made from a seed, rounds, checks.

A run repeats whole rounds.  Round ``k`` takes its inputs from the seed and
``k`` alone (points from ``PointStream`` blocks, sources and task order from
``numpy.random.default_rng([seed, k])``), so a round can be replayed (the
traced run does).  Every round holds the same operations in the same number;
only points, sources and task order change with the seed.

Every operation calls the program through a module attribute looked up at
call time (``quadrature.eval_LK``, ``cli.run``, ...), so the tracer's
wrappers see it.  Every output is checked against ``reference`` or against
an exact property of the operator; a failed check makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jumpkernel import cli, config, errors, fields, kernels, nonlinearity, quadrature

import reference as ref

# The relative tolerance the engine is asked for by default.  Analytic
# values are accepted within err_estimate + REL_TOL * |exact|: near
# alpha = 2 the engine's err_estimate alone is not a bound (CHANGES.md).
REL_TOL = quadrature.QuadratureConfig().rel_tol
G_HALF = nonlinearity.NonlinearitySpec(g_kind=nonlinearity.G_POWER, gamma=0.5)
GAMMA = G_HALF.gamma

# The one operation kept although it fails: eval_LK on a lattice whose box
# faces miss the exterior value, at a fixed point (see CHANGES.md, FOUND).
PROBE_X = np.array([-0.99701983, 0.94692055])


@dataclass
class Round:
    analytic_ms: list = field(default_factory=list)
    lattice_ms: list = field(default_factory=list)
    task_ms: list = field(default_factory=list)
    torsion_err: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the round without the failing probe
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed output checks
    errors: list = field(default_factory=list)  # unexpected exceptions

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def call(self, bucket, fn, *args):
        """One timed operation; its latency in ms goes to ``bucket``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted and reported, the run goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None
        if bucket is not None:
            bucket.append(1e3 * (time.perf_counter() - t0))
        return out


def zoo(dim):
    """Every kernel kind, PowerLaw at four orders."""
    k = kernels
    lam = (1.7,) if dim == 1 else (1.0, 2.0)
    return [k.KernelSpec(k.POWER_LAW, dim, a) for a in (0.5, 1.0, 1.5, 1.9)] + [
        k.KernelSpec(k.EXPONENTIAL, dim, 1.2),
        k.KernelSpec(k.ANISOTROPIC_P, dim, 1.2, p_norm=4.0),
        k.KernelSpec(k.MATRIX_TRANSFORMED, dim, 1.2, lambda_diag=lam),
        k.KernelSpec(k.DIAG_QUADRATIC, dim, 1.2, lambda_diag=lam),
        k.KernelSpec(k.VARIABLE_ORDER, dim, 1.2, beta_order=1.5),
    ]


def closed_form_LK(spec, x):
    """L_K of the Gaussian where a closed form exists, else None."""
    if spec.dim == 1:
        lam = spec.lambda_diag[0] if spec.lambda_diag else 1.0
        mult = ref.powerlaw_multiple_1d(spec.kind, spec.alpha, lam)
    else:
        mult = 1.0 if spec.kind == kernels.POWER_LAW else None
    if mult is None:
        return None
    return mult * float(ref.gaussian_LK(x, spec.alpha))


def torsion_lattice(n_nodes, alpha):
    """Getoor's torsion function sampled on [-1, 1] with the exterior 0."""
    xs = np.linspace(-1.0, 1.0, n_nodes)
    return fields.grid_field(ref.torsion(xs[:, None], alpha), (-1.0,), 2.0 / (n_nodes - 1),
                             exterior_value=0.0, label="torsion")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Shared machinery: the task directory and the CLI task path."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tasks = self.workdir / "tasks"
        self.tasks.mkdir(parents=True, exist_ok=True)
        self.solutions = []  # lattice fields the CLI solved, captured on return
        self._install_capture()

    def _install_capture(self):
        """Keep the solution each CLI ball task computes (the VerifySymmetry
        task writes certificates, not the field)."""
        for attr in ("solve_dirichlet", "solve_dirichlet_nonlinear"):
            original = getattr(cli, attr)

            def capture(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                self.solutions.append(out[0])
                return out

            setattr(cli, attr, capture)

    def cli_task(self, rnd, tag, cfg_dict):
        """config file -> cli.run -> artifacts; returns (manifest, outdir)."""
        path = self.tasks / f"{tag}.json"
        outdir = self.tasks / tag
        path.write_text(json.dumps(cfg_dict, sort_keys=True))

        def task():
            return cli.run(config.load_config(path), outdir)

        code = rnd.call(rnd.task_ms, task)
        if code is None:
            return None, outdir
        rnd.check(code == 0, f"{tag}: exit code {code}")
        manifest = json.loads((outdir / "manifest.json").read_text())
        rnd.check(manifest["status"] == "complete", f"{tag}: manifest not complete")
        rnd.check(manifest["expect_met"], f"{tag}: expectations {manifest['expect_failures']}")
        for entry in manifest["files"]:
            rnd.check(entry["sha256"] == _sha256(outdir / entry["name"]),
                      f"{tag}: hash mismatch for {entry['name']}")
        return manifest, outdir

    def finish_round(self):
        shutil.rmtree(self.tasks, ignore_errors=True)
        self.tasks.mkdir(parents=True, exist_ok=True)
        self.solutions.clear()


# ----------------------------------------------------------------------------
# pv_eval
# ----------------------------------------------------------------------------

SWEEPS = [
    ("exp1", "ExponentialScaled", {"kind": "Exponential", "dim": 1, "alpha": 1.9}),
    ("exp2", "ExponentialScaled", {"kind": "Exponential", "dim": 2, "alpha": 1.9}),
    ("aniso4", "Anisotropic", {"kind": "AnisotropicPNorm", "dim": 2, "alpha": 1.9, "p_norm": 4.0}),
    ("diag12", "MatrixDiag", {"kind": "MatrixTransformed", "dim": 2, "alpha": 1.9,
                              "lambda_diag": [1.0, 2.0]}),
]


class PointStream:
    """Quasi-random points in [-1, 1]^dim, a fixed block per round.

    The additive recurrence x_i = frac(shift + i g), with g built from the
    generalized golden ratio (Roberts' R_d sequence) and the shift drawn
    from the seed, fills the square evenly for every seed.  So the mix of
    cheap and expensive evaluation points (a PV evaluation costs more where
    its value is small) repeats from run to run.  Round k reads block k
    (modulo the pool), so a round can be replayed.
    """

    ROUNDS = 64

    def __init__(self, seed, stream, dim, per_round):
        phi = 2.0
        for _ in range(64):  # the root of phi^(dim+1) = phi + 1
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        g = phi ** -np.arange(1.0, dim + 1)
        shift = np.random.default_rng([seed, stream]).uniform(size=dim)
        i = np.arange(self.ROUNDS * per_round)[:, None]
        self.per_round = per_round
        self.pool = 2.0 * np.mod(shift + i * g, 1.0) - 1.0

    def block(self, k):
        i = (k % self.ROUNDS) * self.per_round
        return self.pool[i:i + self.per_round]


class CellMidpoints:
    """The midpoints of m equal cells of [-1, 1], the same in every round.

    One-dimensional values are checked against closed forms only at these
    seed-independent points: at about 1 in 10^4 random points the engine
    returns a 1-D value off by up to 380 times its err_estimate (CHANGES.md,
    FOUND), which would make ``correct`` depend on the seed.
    """

    def __init__(self, m):
        self.pts = (-1.0 + 2.0 * (np.arange(m) + 0.5) / m)[:, None]

    def block(self, k):
        return self.pts


class PvEval(Workload):
    """One-shot operator evaluations: analytic fields over the kernel zoo,
    2-D lattice fields, alpha -> 2 sweeps (as CLI tasks) and the probe."""

    name = "pv_eval"
    # Fresh points per kernel and round, after the peak.  With m1 = 2 and
    # m2 = 3 the 1-D calls are 108 of 252 analytic evaluations and the
    # median falls mid-way through the 36 2-D eval_LK calls, inside one
    # cluster of similar latencies rather than on the edge between two.
    POINTS = {1: 2, 2: 3}
    LATTICE_ALPHAS = (1.0, 1.5)
    LATTICE_POINTS = 4  # per alpha and round
    SWEEP_POINTS = 2  # per family and round
    TORSION_ALPHAS = (0.5, 1.0, 1.5)
    TORSION_X = (0.0, 0.5)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.zoo = {d: zoo(d) for d in (1, 2)}
        self.u = {d: fields.gaussian_bump(d) for d in (1, 2)}
        self.neg = {d: fields.gaussian_bump(d, amplitude=-1.0) for d in (1, 2)}
        self.dbl = {d: fields.gaussian_bump(d, amplitude=2.0) for d in (1, 2)}
        # exp(-36) < 1e-15: the box faces meet the exterior value 0.
        self.lattice = fields.sample_to_grid(self.u[2], (-6.0, -6.0), 12.0 / 128, (129, 129))
        self.probe_field = fields.sample_to_grid(self.u[2], (-3.0, -3.0), 6.0 / 64, (65, 65))
        self.probe_spec = kernels.KernelSpec(kernels.POWER_LAW, 2, 1.0)
        self.torsion = {a: torsion_lattice(129, a) for a in self.TORSION_ALPHAS}
        self.points = {d: PointStream(seed, d, d, len(self.zoo[d]) * self.POINTS[d])
                       for d in (1, 2)}
        self.lk_points = {1: CellMidpoints(len(self.zoo[1]) * self.POINTS[1]),
                          2: self.points[2]}
        self.lattice_points = PointStream(
            seed, 3, 2, len(self.LATTICE_ALPHAS) * self.LATTICE_POINTS)
        self.sweep_points = {
            tag: PointStream(seed, 4 + i, 2, self.SWEEP_POINTS) if kd["dim"] == 2
            else CellMidpoints(self.SWEEP_POINTS)
            for i, (tag, _, kd) in enumerate(SWEEPS)
        }

    def round(self, k):
        rnd = Round()
        t0 = time.perf_counter()
        for dim in (1, 2):
            pts = iter(self.points[dim].block(k))
            lk_pts = iter(self.lk_points[dim].block(k))
            for spec in self.zoo[dim]:
                self._analytic(rnd, spec, np.zeros(dim), np.zeros(dim))
                for _ in range(self.POINTS[dim]):
                    self._analytic(rnd, spec, next(lk_pts), next(pts))
        self._lattice(rnd, self.lattice_points.block(k))
        self._torsion(rnd)
        for tag, family, kd in SWEEPS:
            for j, x in enumerate(self.sweep_points[tag].block(k)):
                self._sweep(rnd, f"r{k}-{tag}-{j}", family, kd, x)
        rnd.seconds = time.perf_counter() - t0
        rnd.seconds -= self._probe(rnd)
        return rnd

    def _analytic(self, rnd, spec, x_lk, x):
        """eval_LK at ``x_lk`` against the closed form; eval_FGK of u, -u
        and 2u at ``x`` against its exact symmetries."""
        dim = spec.dim
        q = quadrature
        lk = rnd.call(rnd.analytic_ms, q.eval_LK, self.u[dim], spec, x_lk)
        f = rnd.call(rnd.analytic_ms, q.eval_FGK, self.u[dim], G_HALF, spec, x)
        fn = rnd.call(rnd.analytic_ms, q.eval_FGK, self.neg[dim], G_HALF, spec, x)
        f2 = rnd.call(rnd.analytic_ms, q.eval_FGK, self.dbl[dim], G_HALF, spec, x)
        tag = f"{spec.kind}(n={dim},a={spec.alpha})"
        if lk is not None:
            exact = closed_form_LK(spec, x_lk)
            if exact is not None:
                rnd.check(abs(lk.value - exact) <= lk.err_estimate + REL_TOL * abs(exact),
                          f"L_K {tag} at {x_lk.tolist()}: {lk.value!r} vs closed form {exact!r}")
            if not np.any(x_lk):
                rnd.check(lk.value > 0.0, f"L_K {tag} not positive at the peak")
        tag += f" at {x.tolist()}"
        if f is None or fn is None or f2 is None:
            return
        rnd.check(abs(fn.value + f.value) <= fn.err_estimate + f.err_estimate,
                  f"F(-u) != -F(u) {tag}: {fn.value!r}, {f.value!r}")
        c = 2.0 ** (1.0 + GAMMA)
        rnd.check(abs(f2.value - c * f.value) <= f2.err_estimate + c * f.err_estimate,
                  f"F(2u) != 2^(1+g) F(u) {tag}: {f2.value!r}, {f.value!r}")
        if not np.any(x):
            rnd.check(f.value > 0.0, f"F {tag} not positive at the peak")

    def _lattice(self, rnd, pts):
        # Points evenly over the unit disk (area-preserving map of the
        # square): the cost of a lattice evaluation grows with |x|.
        for j, (a, b) in enumerate(pts):
            alpha = self.LATTICE_ALPHAS[j % len(self.LATTICE_ALPHAS)]
            r, phi = math.sqrt(0.5 * (a + 1.0)), math.pi * (b + 1.0)
            x = np.array([r * math.cos(phi), r * math.sin(phi)])
            spec = kernels.KernelSpec(kernels.POWER_LAW, 2, alpha)
            res = rnd.call(rnd.lattice_ms, quadrature.eval_LK, self.lattice, spec, x)
            if res is None:
                continue
            exact = float(ref.gaussian_LK(x, alpha))
            rnd.check(abs(res.value - exact) <= res.err_estimate,
                      f"lattice L_K(a={alpha}) at {x.tolist()}: {res.value!r} vs {exact!r} "
                      f"(err_estimate {res.err_estimate!r})")

    def _torsion(self, rnd):
        for alpha in self.TORSION_ALPHAS:
            spec = kernels.KernelSpec(kernels.POWER_LAW, 1, alpha)
            for x in self.TORSION_X:
                res = rnd.call(None, quadrature.eval_LK, self.torsion[alpha], spec, np.array([x]))
                if res is None:
                    continue
                rnd.torsion_err.append(abs(res.value - 1.0))
                rnd.check(abs(res.value - 1.0) <= res.err_estimate,
                          f"L_K(torsion, a={alpha}) at {x}: {res.value!r} vs 1")

    def _sweep(self, rnd, tag, family, kd, x):
        cfg = {"task": "SweepAlpha", "kernel": kd, "points": [x.tolist()],
               "label": f"sweep-{tag}", "seed": self.seed, "expect": {}}
        manifest, outdir = self.cli_task(rnd, tag, cfg)
        if manifest is None:
            return
        got = manifest["summary"]["extrapolated_limit"]
        exact = ref.alpha_limit(family, x, kd.get("lambda_diag", (1.0, 2.0)))
        rnd.check(abs(got - exact) <= 1e-4 * max(1.0, abs(exact)),
                  f"sweep {tag} at {x.tolist()}: limit {got!r} vs {exact!r}")

    def _probe(self, rnd):
        """The kept failure; returns its wall time, which no metric counts."""
        t0 = time.perf_counter()
        rnd.attempted += 1
        try:
            res = quadrature.eval_LK(self.probe_field, self.probe_spec, PROBE_X)
        except Exception as exc:  # expected: NonConvergenceError
            rnd.failed += 1
            if not isinstance(exc, errors.NonConvergenceError):
                rnd.errors.append(f"probe: {type(exc).__name__}: {exc}")
        else:  # repaired: then its value must be right too
            exact = float(ref.gaussian_LK(PROBE_X, 1.0))
            rnd.check(abs(res.value - exact) <= res.err_estimate,
                      f"probe: {res.value!r} vs {exact!r}")
        return time.perf_counter() - t0


# ----------------------------------------------------------------------------
# Ball workloads
# ----------------------------------------------------------------------------


class Ball(Workload):
    """Generated VerifySymmetry configs run in-process through cli.run.

    ``TASKS`` entries start with (dim, grid_n).  Around each task the round
    checks the task's kernel on the Gaussian (``ANALYTIC_POINTS[dim]``
    calls) and evaluates the operator of the computed solution
    (``RESIDUAL_POINTS[dim]`` calls): in 1-D at fixed cell midpoints (the
    cost of these short calls varies with x, and fixed points keep that out
    of the run-to-run spread), in 2-D at quasi-random points.
    """

    # 90 fast 1-D and 32 slower 2-D calls per ball_linear round: the median
    # falls inside the 1-D cluster, the p90 inside the 2-D one.
    ANALYTIC_POINTS = {1: 30, 2: 16}
    RESIDUAL_POINTS = {1: 12, 2: 2}
    TASKS = []

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.check_points = [
            PointStream(seed, 10 + i, 2, self.ANALYTIC_POINTS[2]) if t[0] == 2
            else CellMidpoints(self.ANALYTIC_POINTS[1])
            for i, t in enumerate(self.TASKS)
        ]
        self.residual_points = [
            PointStream(seed, 20 + i, 2, self.RESIDUAL_POINTS[2]) if t[0] == 2
            else CellMidpoints(self.RESIDUAL_POINTS[1])
            for i, t in enumerate(self.TASKS)
        ]

    def task_config(self, tag, dim, grid_n, alpha, source):
        raise NotImplementedError

    def ball_task(self, rnd, k, i, alpha, source):
        """Kernel check on the Gaussian, the CLI task, then its checks.
        Returns the captured solution (None when the task failed)."""
        dim, grid_n = self.TASKS[i][:2]
        spec = kernels.KernelSpec(kernels.POWER_LAW, dim, alpha)
        self.kernel_check(rnd, k, i, spec)
        tag = f"r{k}-t{i}-n{dim}-g{grid_n}-a{alpha}"
        n_before = len(self.solutions)
        manifest, outdir = self.cli_task(rnd, tag, self.task_config(tag, dim, grid_n, alpha, source))
        if manifest is None or len(self.solutions) == n_before:
            return None
        cert = json.loads((outdir / "certificates.json").read_text())
        rnd.check(all(a["symmetric_verdict"] for a in cert["axes"]), f"{tag}: not symmetric")
        rnd.check(cert["radial"]["monotone_violations"] == 0, f"{tag}: radial violations")
        u = self.solutions[-1]
        self.residual_check(rnd, self.residual_points[i].block(k), u, spec, source, tag)
        return u

    def kernel_check(self, rnd, k, i, spec):
        u = fields.gaussian_bump(spec.dim)
        for x in self.check_points[i].block(k):
            res = rnd.call(rnd.analytic_ms, quadrature.eval_LK, u, spec, x)
            if res is not None:
                exact = closed_form_LK(spec, x)
                rnd.check(abs(res.value - exact) <= res.err_estimate + REL_TOL * abs(exact),
                          f"L_K Gaussian a={spec.alpha} at {x.tolist()}: {res.value!r} vs {exact!r}")

    def residual_check(self, rnd, pts, u, spec, source, tag):
        """The operator of the computed solution inside the ball, with the
        solver's own model-ball radius, must return the source."""
        cfg = quadrature.QuadratureConfig(eps_inner=max(2.0 * u.grid.h, 1e-3))
        for p in pts:
            if spec.dim == 1:
                x = 0.9 * p
            else:  # evenly over the disk of radius 0.9
                r, phi = 0.9 * math.sqrt(0.5 * (p[0] + 1.0)), math.pi * (p[1] + 1.0)
                x = np.array([r * math.cos(phi), r * math.sin(phi)])
            res = rnd.call(rnd.lattice_ms, *self.residual_call(u, spec, x, cfg))
            if res is not None:
                rnd.check(abs(res.value - source) <= res.err_estimate,
                          f"{tag}: operator of the solution at {x.tolist()} is {res.value!r}, "
                          f"source {source!r} (err_estimate {res.err_estimate!r})")


class BallLinear(Ball):
    name = "ball_linear"
    TASKS = [(1, 513, 0.5), (1, 513, 1.0), (1, 513, 1.5), (2, 33, 1.0), (2, 33, 1.5)]

    def task_config(self, tag, dim, grid_n, alpha, source):
        return {"task": "VerifySymmetry", "label": tag, "seed": self.seed,
                "kernel": {"kind": "PowerLaw", "dim": dim, "alpha": alpha},
                "domain": {"dim": dim, "grid_n": grid_n, "radius": 1.0},
                "source": source, "solve_tol": 1e-10,
                "expect": {"symmetric": True, "max_residual": 1e-8}}

    def residual_call(self, u, spec, x, cfg):
        return quadrature.eval_LK, u, spec, x, cfg

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        rnd = Round()
        t0 = time.perf_counter()
        order = rng.permutation(len(self.TASKS))
        for i in order:
            dim, grid_n, alpha = self.TASKS[i]
            source = float(rng.uniform(0.5, 2.0))
            u = self.ball_task(rnd, k, i, alpha, source)
            if u is None:
                continue
            # Relative discrete L2 error against Getoor over the lattice;
            # the sup error sits at the node nearest the sphere and does not
            # fall with the grid in 2-D (CHANGES.md).
            g = u.grid
            axes = [g.origin[d] + g.h * np.arange(g.shape[d]) for d in range(dim)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            exact = ref.torsion(pts, alpha, source)
            err = float(np.linalg.norm(g.values - exact) / np.linalg.norm(exact))
            rnd.torsion_err.append(err)
            rnd.check(err <= 0.05, f"torsion error {err:.4f} (n={dim}, grid_n={grid_n}, a={alpha})")
        rnd.seconds = time.perf_counter() - t0
        return rnd


class BallNonlinear(Ball):
    name = "ball_nonlinear"
    # 4 eval_LK and 12 slower eval_FGK calls per task: the median falls a
    # third of the way into the eval_FGK cluster.
    ANALYTIC_POINTS = {1: 4}
    FGK_POINTS = 4  # the peak and three quasi-random points
    TASKS = [(1, 33, 1.0), (1, 33, 2.0), (1, 49, 1.0)]  # (dim, grid_n, source)
    ALPHA = 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fgk_points = [PointStream(seed, 30 + i, 1, self.FGK_POINTS - 1)
                           for i in range(len(self.TASKS))]

    def task_config(self, tag, dim, grid_n, alpha, source):
        return {"task": "VerifySymmetry", "label": tag, "seed": self.seed,
                "kernel": {"kind": "PowerLaw", "dim": dim, "alpha": alpha},
                "domain": {"dim": dim, "grid_n": grid_n, "radius": 1.0},
                "nonlinearity": {"g_kind": "PowerG", "gamma": GAMMA,
                                 "f_kind": "Constant", "f_offset": source},
                "solve_tol": 1e-6, "expect": {"symmetric": True, "max_residual": 1e-6}}

    def residual_call(self, u, spec, x, cfg):
        return quadrature.eval_FGK, u, G_HALF, spec, x, cfg

    def kernel_check(self, rnd, k, i, spec):
        # L_K against the closed form, F_{G,K} against its exact symmetries.
        super().kernel_check(rnd, k, i, spec)
        u, neg, dbl = (fields.gaussian_bump(1, amplitude=a) for a in (1.0, -1.0, 2.0))
        for j, x in enumerate([np.zeros(1)] + list(self.fgk_points[i].block(k))):
            f = rnd.call(rnd.analytic_ms, quadrature.eval_FGK, u, G_HALF, spec, x)
            fn = rnd.call(rnd.analytic_ms, quadrature.eval_FGK, neg, G_HALF, spec, x)
            f2 = rnd.call(rnd.analytic_ms, quadrature.eval_FGK, dbl, G_HALF, spec, x)
            if f is None or fn is None or f2 is None:
                continue
            rnd.check(abs(fn.value + f.value) <= fn.err_estimate + f.err_estimate,
                      f"F(-u) != -F(u) at {x.tolist()}")
            c = 2.0 ** (1.0 + GAMMA)
            rnd.check(abs(f2.value - c * f.value) <= f2.err_estimate + c * f.err_estimate,
                      f"F(2u) != 2^(1+g) F(u) at {x.tolist()}")
            if j == 0:
                rnd.check(f.value > 0.0, "F_{G,K} not positive at the peak")

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        rnd = Round()
        t0 = time.perf_counter()
        solved = {}
        for i in rng.permutation(len(self.TASKS)):
            _, grid_n, source = self.TASKS[i]
            u = self.ball_task(rnd, k, i, self.ALPHA, source)
            if u is None:
                continue
            interior = u.grid.values[1:-1]
            rnd.check(bool(np.all(interior > 0.0)), f"grid_n={grid_n}, c={source}: not positive")
            solved[(grid_n, source)] = u.grid.values
        if (33, 1.0) in solved and (33, 2.0) in solved:
            # F is (1 + gamma)-homogeneous: the c = 2 solution is 2^(1/(1+gamma)) times c = 1.
            u1, u2 = solved[(33, 1.0)], solved[(33, 2.0)]
            scale = 2.0 ** (1.0 / (1.0 + GAMMA))
            rnd.check(float(np.max(np.abs(u2 - scale * u1))) <= 1e-5 * float(np.max(u2)),
                      "c = 2 solution is not 2^(1/(1+gamma)) times the c = 1 solution")
        # Torsion check on the same lattices: L_K of Getoor's function, sampled.
        spec = kernels.KernelSpec(kernels.POWER_LAW, 1, self.ALPHA)
        for grid_n in sorted({t[1] for t in self.TASKS}):
            lat = torsion_lattice(grid_n, self.ALPHA)
            res = rnd.call(None, quadrature.eval_LK, lat, spec, np.zeros(1))
            if res is not None:
                rnd.torsion_err.append(abs(res.value - 1.0))
                rnd.check(abs(res.value - 1.0) <= res.err_estimate,
                          f"L_K(torsion) on grid_n={grid_n}: {res.value!r}")
        rnd.seconds = time.perf_counter() - t0
        return rnd


WORKLOADS = {w.name: w for w in (PvEval, BallLinear, BallNonlinear)}
