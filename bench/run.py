"""precboot benchmark: runs one workload through ``precboot.cli.main`` in a
closed loop and prints one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` it reports the end-to-end metrics (op_s,
peak_rss_mb, setup_s); with ``--trace 1`` it records spans around the calls
into each module, runs the layer checks and reports the per-layer metrics.
See bench/README.md.
"""
from __future__ import annotations

import os

# one BLAS thread, set before NumPy loads: the figures are single-core ones
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120


def setup(workload_name: str, seed: int, work: Path):
    """What a fresh process pays before its first operation: importing
    precboot, writing the inputs, and one tiny CLI call for the first-call
    costs (LAPACK, FFT). Returns (workload, argv)."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from precboot import cli
    from workloads import WORKLOADS, ar1_sample, structure_a

    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name]()
    argv = workload.prepare(work, seed)
    tiny = work / "warmup.csv"
    sigma, _ = structure_a(4)
    np.savetxt(tiny, ar1_sample(sigma, 40, np.random.default_rng(0)),
               delimiter=",")
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main(["recover", "--data", str(tiny), "--set", "offdiag",
                       "--boot-M", "20", "--out", str(work / "warmup.out")])
    if rc != 0:
        raise RuntimeError(f"warm-up call exited {rc}")
    return workload, argv


def time_setups(args, work: Path):
    """Median wall time of SETUP_RUNS fresh processes that only set up."""
    times = []
    for k in range(SETUP_RUNS):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                  "--workload", args.workload,
                                  "--seed", str(args.seed), "--setup-only",
                                  str(work / f"setup{k}")])
        # a blocking wait: wait(timeout) polls and rounds up to 50 ms steps
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            rc = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up process exited {rc}")
    return statistics.median(times)


def run_op(cli, workload, argv, tracer=None):
    """One CLI command; returns (seconds, problems, output bytes)."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is one failed operation
            rc = f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, [f"exit code {rc}"], None
    problems = workload.check()
    if tracer is not None:
        problems += tracer.run_checks()
    return elapsed, problems, workload.out.read_bytes()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "precboot" / "__init__.py").is_file():
        sys.exit(f"error: no precboot sources under {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        return

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = None if args.trace else time_setups(args, work)
        workload, argv = setup(args.workload, args.seed, work)
        from precboot import cli
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        times, failed, problems, first = [], 0, [], None
        deadline = time.perf_counter() + args.seconds
        while True:
            elapsed, op_problems, out = run_op(cli, workload, argv, tracer)
            if out is not None and first is not None and out != first:
                op_problems.append("output differs from the first operation")
            first = first if first is not None else out
            times.append(elapsed)
            failed += bool(op_problems)
            problems += op_problems
            print(f"op {len(times)}: {elapsed:.3f} s"
                  + (f" FAILED: {'; '.join(op_problems)}" if op_problems
                     else ""), file=sys.stderr)
            # start another operation only if it should end by the deadline
            if time.perf_counter() + statistics.median(times) > deadline:
                break
            if tracer is not None:
                tracer.op += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if tracer is not None:
        metrics = tracer.metrics(range(len(times)))
        TRACES.mkdir(exist_ok=True)
        with open(TRACES / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": not problems, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
