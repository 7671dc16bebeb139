"""tailrho benchmark: one workload of the public CLI, run in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Each workload drives `tailrho.cli.main(argv)` as one closed-loop client (the
next command starts when the previous one returns) and checks every output
against the independent oracles in `oracles.py`.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with `--trace 0`, the per-layer metrics of `layers.py`
with `--trace 1`.  The package is imported from `src/` of the checkout and
from nowhere else; without it the benchmark exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
UNITS = {
    "throughput_per_s": "1/s",
    "cmd_ms_p50": "ms",
    "cmd_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import tailrho.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(tailrho.cli.__file__)\n"
    "print(repr(elapsed))\n"
)


def import_package():
    """Import tailrho.cli from this checkout's src/, or exit with code 1."""
    package = SRC / "tailrho"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no tailrho package at {package}")
    sys.path.insert(0, str(SRC))
    import tailrho.cli

    if Path(tailrho.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tailrho from {tailrho.cli.__file__}, not {package}")
    return tailrho.cli


def setup_seconds() -> float:
    """Median wall time of `import tailrho.cli` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        module_file, elapsed = probe.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            sys.exit(f"perfbench: fresh interpreter imported {module_file}")
        if attempt:  # the first import also compiles bytecode; users pay that once
            samples.append(float(elapsed))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def machine_record(workers: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpus_allowed": workers,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "TAILRHO_THREADS": os.environ.get("TAILRHO_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_package()
    import numpy as np

    import layers
    from workloads import WORKLOADS, Tally, closed_loop, end_to_end, run_command, tail

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # the default worker count is os.cpu_count(), which can exceed the CPUs allowed
    workers = len(os.sched_getaffinity(0))
    os.environ["TAILRHO_THREADS"] = str(workers)
    print("machine: " + json.dumps(machine_record(workers)))

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    tally = Tally()
    try:
        setup = None if args.trace else setup_seconds()
        rng = np.random.default_rng(args.seed)
        workload = WORKLOADS[args.workload](rng, run_dir, tally)
        if args.trace:
            metrics = layers.traced_run(
                cli.main, workload, args.seconds, tally, rng, run_dir, workers
            )
        else:
            warm = workload.next_command()  # lazy imports and caches fill here
            tally.add(warm.ops, run_command(cli.main, warm)[1])
            latencies, units = closed_loop(workload, cli.main, args.seconds, tally)
            metrics = end_to_end(latencies, units)
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = setup
            _, percentile = tail(latencies)
            print(
                f"{args.workload}: {len(latencies)} commands, {units} {workload.unit}, "
                f"tail = p{percentile:.1f} of {len(latencies)} commands"
            )
            for name, value in metrics.items():
                print(f"  {name} = {value:.6g} {UNITS[name]}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"error_rate = {tally.failed}/{tally.attempted}")
    if tally.digests:
        # how many CSVs a run writes depends on machine speed; the first depends on the seed alone
        print(f"first csv sha256: {tally.digests[0]}")
        print(f"csv sha256 over {len(tally.digests)} files: {tally.fingerprint()}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or layers.UNITS[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
