#!/usr/bin/env python3
"""drtrack benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

``--trace 0`` runs untraced rounds for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics, including the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine and software the numbers come from.  Spans and
a full result file go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1
# Set before numpy loads, so OpenBLAS starts with this many threads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Imports and input builds per run; setup_s adds their medians.
SETUP_REPEATS = 5
# Rounds per run at least, even when one round outlasts --seconds.
MIN_ROUNDS = 2
FAILED = object()

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "objective": "1",
    "nonconverged_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads(numpy) -> int | None:
    """Threads OpenBLAS actually runs with, queried from numpy's own copy."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(numpy, args, grid_threads: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "grid_threads": grid_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


def import_seconds() -> float:
    """Median time to import numpy and drtrack in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import numpy, drtrack; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def run_round(workload, inputs, calibrator, cal, tracer=None, runs=None):
    """One pass per input, with the calibration kernel timed after each.

    Returns each pass's wall seconds, its seconds rescaled by the
    kernel's speed before and after it, its outcome (None for a pass
    that raised or whose result could not be read; the traceback goes
    to standard error), and the last calibration, which is the next
    pass's "before".
    """
    walls, scaled, outcomes = [], [], []
    for inp in inputs:
        if tracer is not None:
            tracer.run += 1
            runs.append(tracer.run)
        begin = time.perf_counter()
        try:
            raw = workload.run(inp)
        except Exception:  # a failed pass is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            raw = FAILED
        wall = time.perf_counter() - begin
        after = calibrator.measure()
        walls.append(wall)
        scaled.append(wall * workload.speed_ref_s / (0.5 * (cal + after)))
        cal = after
        outcome = None
        if raw is not FAILED:
            try:
                outcome = workload.collect(inp, raw)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        outcomes.append(outcome)
    return walls, scaled, outcomes, cal


def per_pass(rounds: list[list[float]]) -> float:
    """Seconds of one pass: each panel's median over rounds, averaged."""
    return statistics.mean(statistics.median(col) for col in zip(*rounds))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drtrack" / "__init__.py").is_file():
        print(f"error: no drtrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy

    import layers
    import workloads
    from calibrate import Calibrator
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)

    calibrator = Calibrator(*workload.calibration_shape)
    before = calibrator.measure()
    import_s = import_seconds()
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(args.seed, WORK)
        build_s.append(time.perf_counter() - t0)
    cal = calibrator.measure()
    wall_setup_s = import_s + statistics.median(build_s)
    setup_s = wall_setup_s * workload.speed_ref_s / (0.5 * (before + cal))

    tracer = Tracer() if args.trace else None
    traced_runs: list[list[int]] = []
    round_s = {False: [], True: []}
    wall_s = {False: [], True: []}
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(round_s[False]) > len(round_s[True])
        t0 = time.perf_counter()
        if traced:
            runs: list[int] = []
            with tracer.installed(layers.targets()):
                walls, scaled, got, cal = run_round(
                    workload, inputs, calibrator, cal, tracer, runs
                )
            traced_runs.append(runs)
        else:
            walls, scaled, got, cal = run_round(workload, inputs, calibrator, cal)
        elapsed = time.perf_counter() - t0
        wall_s[traced].append(walls)
        round_s[traced].append(scaled)
        outcomes.extend(got)
        done = len(round_s[False]) + len(round_s[True])
        enough = done >= MIN_ROUNDS and (not args.trace or round_s[True])
        if enough and time.perf_counter() + elapsed > deadline:
            break

    attempted = len(outcomes)
    failed = 0
    statuses: list[str] = []
    first: dict[int, float] = {}
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            failed += 1
            continue
        problems = list(outcome.failures)
        panel = i % len(inputs)
        first.setdefault(panel, outcome.objective)
        if outcome.objective != first[panel]:  # must repeat exactly
            problems.append(f"objective of panel {panel} changed between rounds")
        if problems:
            failed += 1
            print("check failed: " + "; ".join(problems), file=sys.stderr)
        statuses.extend(outcome.statuses)
    panel_objectives = [first[k] for k in sorted(first)]
    fits = len(statuses)

    if args.trace:
        read = [o.output_bytes for o in outcomes if o is not None]
        output_bytes = statistics.mean(read) if read else 0.0
        per_round = [
            layers.layer_metrics(tracer, runs, workload.grid_threads, output_bytes)
            for runs in traced_runs
        ]
        values = {
            name: statistics.median(m[name] for m in per_round)
            for name in per_round[0]
        }
        values["trace.run_s"] = per_pass(round_s[True])
        values["trace.untraced_run_s"] = per_pass(round_s[False])
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        values = {
            "run_s": per_pass(round_s[False]),
            "setup_s": setup_s,
            "objective": statistics.mean(panel_objectives) if panel_objectives else float("nan"),
            "nonconverged_frac": (
                sum(s != "converged" for s in statuses) / fits if fits else 1.0
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }

    env = environment(numpy, args, workload.grid_threads)
    detail = {
        "env": env,
        "passes_per_round": len(inputs),
        "pass_s": round_s[False],
        "traced_pass_s": round_s[True],
        "wall_pass_s": wall_s[False],
        "wall_traced_pass_s": wall_s[True],
        "wall_run_s": per_pass(wall_s[False]),
        "wall_setup_s": wall_setup_s,
        "import_s": import_s,
        "build_s": build_s,
        "fits": fits,
        "panel_objectives": panel_objectives,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, **result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
