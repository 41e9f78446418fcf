"""sparsekit benchmark: one workload per process.

    python3 perfbench/run.py --workload mc-dense --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass and the tracing overhead.  The last line of
standard output is one JSON object; the exit code is 1 when an output
check fails and 2 when the checkout has no ``src/sparsekit``.
"""

import os

# One BLAS thread: the 2-thread sweep pool plus multithreaded BLAS would
# oversubscribe the two cores this benchmark is sized for.  Set before
# numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 7
# Never used while tuning the benchmark; a gain claimed on DEFAULT_SEED
# must also hold here.
HELD_OUT_SEED = 1009

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import sparsekit\n"
    "sparsekit.TrialConfig('omp', 'gaussian', 512, 2048, 32, 100, 7).validate()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc-dense", "mc-dct", "sweep-phase"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup_s() -> float:
    """Median over fresh interpreters of importing sparsekit and validating a config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def blas_info():
    """OpenBLAS version and thread count from the libraries numpy loaded."""
    import numpy as np

    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    threads = []
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads.append(getter())
                break
    return version, ",".join(str(t) for t in threads) or "unknown"


def environment_line(args, workload_name):
    import numpy
    import scipy

    from harness import master_seed

    blas_version, blas_threads = blas_info()
    fields = {
        "workload": workload_name,
        "trace": args.trace,
        "seed": args.seed,
        "master_seed": master_seed(args.seed),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
    }
    return "env " + " ".join(f"{k}={v}" for k, v in fields.items())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsekit" / "__init__.py").is_file():
        print(f"error: no sparsekit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sparsekit

    if Path(sparsekit.__file__).resolve().parent != (SRC / "sparsekit").resolve():
        print(f"error: sparsekit was imported from {sparsekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    workload = harness.make_workload(args.workload, args.seed, OUT_DIR)
    print(environment_line(args, workload.name))
    if args.trace:
        result, metrics = harness.traced_run(workload, OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv")
    else:
        result, metrics = harness.end_to_end_run(workload, args.seconds, measure_setup_s())
    for message in result.failures:
        print(f"FAIL {message}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared_metrics]
    missing = [m["name"] for m in declared_metrics if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if missing:
        print(f"error: {workload.name} did not measure {', '.join(missing)} in the declared unit", file=sys.stderr)
        return 1
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
