"""jumpkernel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pv_eval --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with nothing
wrapped; with ``--trace 1`` they are the per-layer ones (see README.md).
Scratch files go to ``.perfbench/`` in the checkout; the traced run leaves
its spans there as ``trace-<workload>-s<seed>.jsonl``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import prepare

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# Rounds replayed with tracing on; fixed, so the traced counts repeat exactly.
TRACED_ROUNDS = {"pv_eval": 3, "ball_linear": 1, "ball_nonlinear": 1}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def time_setups(workload, seed, rundir):
    """Median set-up time over fresh interpreters."""
    env = dict(os.environ)
    env.update({var: "1" for var in prepare.THREAD_VARS})
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(rundir / f"setup-{i}")],
            capture_output=True, text=True, timeout=120, env=env, cwd=str(prepare.ROOT))
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def run_round(wl, k):
    t0 = time.perf_counter()
    rnd = wl.round(k)
    wl.finish_round()
    return rnd, time.perf_counter() - t0


def measure(wl, seconds):
    """Whole rounds until the next one would end past ``seconds``."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        rnd, wall = run_round(wl, len(rounds))
        rounds.append(rnd)
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return rounds


def measure_traced(wl, tracer, n_rounds):
    """Each traced round replays the inputs of an untraced one just before
    it; the time ratio of the pairs is the tracing overhead."""
    rounds, plain, traced = [], 0.0, 0.0
    for k in range(n_rounds):
        rnd, wall = run_round(wl, k)
        rounds.append(rnd)
        plain += wall
        tracer.install()
        try:
            rnd, wall = run_round(wl, k)
        finally:
            tracer.uninstall()
        rounds.append(rnd)
        traced += wall
    return rounds, 100.0 * (traced / plain - 1.0)


def end_to_end(rounds, setup_s):
    analytic = [v for r in rounds for v in r.analytic_ms]
    lattice = [v for r in rounds for v in r.lattice_ms]
    tasks = [v for r in rounds for v in r.task_ms]
    torsion = [v for r in rounds for v in r.torsion_err]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.seconds for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "eval_analytic_ms": (statistics.median(analytic), "ms"),
        "eval_analytic_ms_p90": (statistics.quantiles(analytic, n=10)[-1], "ms"),
        "eval_lattice_ms": (statistics.median(lattice), "ms"),
        "solve_s": (statistics.median(tasks) / 1e3, "s"),
        "torsion_err": (statistics.fmean(torsion), "1"),
    }


def main():
    parser = argparse.ArgumentParser(description="jumpkernel benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in TRACED_ROUNDS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(TRACED_ROUNDS)}")

    prepare.pin_threads()
    try:
        prepare.import_program()
    except prepare.MissingProgram as exc:
        fail(str(exc))
    base = prepare.ROOT / ".perfbench"
    rundir = base / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        setup_s = time_setups(args.workload, args.seed, rundir)
        wl = prepare.prepare(args.workload, args.seed, rundir / "main")
        if args.trace:
            import jumpkernel
            from spans import Tracer

            tracer = Tracer(jumpkernel)
            rounds, overhead = measure_traced(wl, tracer, TRACED_ROUNDS[args.workload])
            metrics = tracer.metrics()
            metrics["trace.overhead_pct"] = (overhead, "%")
            tracer.write_jsonl(base / f"trace-{args.workload}-s{args.seed}.jsonl")
        else:
            rounds = measure(wl, args.seconds)
            metrics = end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    errors = [e for r in rounds for e in r.errors]
    for line in (problems + errors)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"rounds: {len(rounds)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
