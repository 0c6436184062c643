"""Set-up of one benchmark run: import, input generation, omega-cache fill.

``run.py`` times this set-up in fresh interpreters (so the import is paid
each time) and runs it once more in its own process to get the inputs:

    python3 perfbench/prepare.py --workload pv_eval --seed 1 --workdir DIR

prints ``{"setup_s": ...}``, the seconds from before the first import of
numpy to inputs ready.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Single-threaded BLAS and OpenMP: the host has two cores and the
# benchmark measures one closed-loop client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import jumpkernel from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "jumpkernel" / "__init__.py").is_file():
        raise MissingProgram(f"no jumpkernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jumpkernel

    if Path(jumpkernel.__file__).resolve().parent != (SRC / "jumpkernel").resolve():
        raise MissingProgram(f"jumpkernel imported from {jumpkernel.__file__}, not {SRC}")
    import workloads

    return workloads


def prepare(workload, seed, workdir):
    """Import the program, fill the omega cache in a private directory and
    build the workload's inputs.  Returns the workload object."""
    pin_threads()
    workloads = import_program()
    workdir = Path(workdir)
    os.environ["JUMPKERNEL_CACHE_DIR"] = str(workdir / "cache")
    from jumpkernel import alpha_limit

    for n in (1, 2):  # the sphere-measure calibration the exponential sweeps read
        alpha_limit.calibrate_omega_n(n)
    return workloads.WORKLOADS[workload](seed, workdir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    prepare(args.workload, args.seed, args.workdir)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


if __name__ == "__main__":
    main()
