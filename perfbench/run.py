#!/usr/bin/env python3
"""Benchmark of the tiadc calibrate -> design -> correct -> analyze flow.

Run from the repository root:

    python3 perfbench/run.py --workload bringup_m4 --seed 1 --seconds 25 --trace 0

One closed-loop client in this process runs ops back to back for --seconds.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 ops alternate between untraced and traced
and it holds the per-layer metrics. A fuller record of the run, with the
environment stamp, goes to .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 1811  # kept for validating later claims; never tune against it
SETUP_REPS = 5
# A shared cloud host can switch its cores between two speeds (about 1.5x
# apart, both cores at once, in phases of seconds to minutes, on the 2-vCPU
# Xeon the bounds were chosen on). The median of a two-level mix jumps between
# the levels as the share of each crosses one half, so the typical op time is
# read at the 75th percentile, which stays on the slow level while that level
# holds a quarter of the run or more. Set-up time is read the same way.
TYPICAL_PERCENTILE = 75
TAIL_OPS_BEYOND = 10
# Above the 90th percentile the tail of a run of short ops reads the
# host's sporadic stalls (a few percent of ops taking twice as long, in some
# minutes and not others) rather than the program.
TAIL_MAX_PERCENTILE = 90
# one client, so one BLAS/OpenMP thread keeps the load within the cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# the keys of workloads.WORKLOADS, which cannot be imported before the
# thread variables are set
WORKLOAD_NAMES = ("bringup_m4", "correct_m16")
END_TO_END_UNITS = {
    "setup_s": "s", "op_ms_p75": "ms", "op_ms_tail": "ms",
    "msamples_per_s": "Msamples/s", "enob_after_min_bits": "bits",
    "image_rejection_min_db": "dB", "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; at least one op (two when traced) runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    import numpy
    import tiadc
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": tiadc.KERNEL_BACKEND,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def tail(times_ms):
    """Value at the highest percentile, up to TAIL_MAX_PERCENTILE, with at
    least TAIL_OPS_BEYOND ops above it, with that percentile; the median when
    there are too few ops."""
    ordered = sorted(times_ms)
    n = len(ordered)
    idx = n - 1 - TAIL_OPS_BEYOND if n > TAIL_OPS_BEYOND else (n - 1) // 2
    idx = min(idx, max(n * TAIL_MAX_PERCENTILE // 100 - 1, 0))
    return ordered[idx], 100.0 * (idx + 1) / n


def run_workload(args, tracer, work_dir):
    from workloads import WORKLOADS, Outcome

    wl = WORKLOADS[args.workload](args.seed, work_dir)  # seeded inputs, untimed
    setup_s = []

    def set_up():
        t0 = time.perf_counter()
        with tracer.installed(f"setup{len(setup_s)}") if tracer else nullcontext():
            wl.setup()
        setup_s.append(time.perf_counter() - t0)

    set_up()
    plain_ms, traced_ms, outcomes, failures = [], [], [], []
    # Traced runs give each input to an untraced op and then a traced one, so
    # both sides see the same inputs.
    ops_per_input = 1 if tracer is None else 2
    measured = 0.0  # seconds of the op loop, set-ups excluded
    i = 0
    while i % ops_per_input or i < ops_per_input or measured < args.seconds:
        # The host's speed drifts over seconds, so the set-ups are spread over
        # the measuring time instead of being timed back to back; a traced
        # run sets up only between inputs.
        due = len(setup_s) * args.seconds / SETUP_REPS
        if (len(setup_s) < SETUP_REPS and due <= measured < args.seconds
                and i % ops_per_input == 0):
            result = None  # the last op's output is not held through set-up
            set_up()
        t_loop = time.perf_counter()
        traced = tracer is not None and i % 2 == 1
        k = i // ops_per_input
        error = None
        with tracer.installed(f"op{i}") if traced else nullcontext(), \
                tracer.span("op") if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                result = wl.run(k)
            except Exception:  # a failed op is counted, and the run goes on
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        (traced_ms if traced else plain_ms).append(elapsed * 1e3)
        outcome = wl.check(k, result) if error is None else Outcome(
            ok=False, samples=0, enob_after_min=0.0, image_dbc_after_max=0.0,
            reason=error)
        outcomes.append((elapsed, outcome))
        if not outcome.ok:
            failures.append(f"op {i}: {outcome.reason.strip()}")
        measured += time.perf_counter() - t_loop
        i += 1
    return setup_s, plain_ms, traced_ms, outcomes, failures


def end_to_end(setup_s, plain_ms, outcomes):
    import numpy as np
    from workloads import Outcome

    tail_ms, tail_pct = tail(plain_ms)
    # ops that raised delivered nothing to judge the output quality by
    delivered = [o for _, o in outcomes if o.samples] or [Outcome(False, 0, 0.0, 0.0)]
    values = {
        "setup_s": float(np.percentile(setup_s, TYPICAL_PERCENTILE)),
        "op_ms_p75": float(np.percentile(plain_ms, TYPICAL_PERCENTILE)),
        "op_ms_tail": tail_ms,
        # the throughput that three ops in four reach
        "msamples_per_s": float(np.percentile(
            [o.samples / elapsed / 1e6 for elapsed, o in outcomes],
            100 - TYPICAL_PERCENTILE)),
        "enob_after_min_bits": min(o.enob_after_min for o in delivered),
        "image_rejection_min_db": -max(o.image_dbc_after_max for o in delivered),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(o.ok for _, o in outcomes) / len(outcomes),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"op_ms_p50": statistics.median(plain_ms),
              "setup_s_p50": statistics.median(setup_s),
              "op_ms_tail_percentile": tail_pct, "ops_timed": len(plain_ms),
              "setup_s_each": setup_s}
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tiadc" / "__init__.py").is_file():
        print(f"error: no tiadc sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import tiadc
    if Path(tiadc.__file__).resolve().parent != (src / "tiadc").resolve():
        print(f"error: imported tiadc from {tiadc.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics

    env = environment(args)
    print(json.dumps({"environment": env}))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        setup_s, plain_ms, traced_ms, outcomes, failures = run_workload(
            args, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics, detail = end_to_end(setup_s, plain_ms, outcomes)
    else:
        metrics = layer_metrics(tracer, traced_ms, plain_ms)
        detail = {"ops_traced": len(traced_ms), "ops_untraced": len(plain_ms),
                  "missing_boundaries": tracer.missing}
        tracer.write(out_dir / f"spans-{stem}.json")
    result = {"correct": not failures, "attempted": len(outcomes),
              "failed": len(failures), "metrics": metrics}
    with open(out_dir / f"result-{stem}.json", "w") as fh:
        json.dump({"environment": env, "detail": detail, "failures": failures,
                   "op_ms": plain_ms, "traced_op_ms": traced_ms, "result": result},
                  fh, indent=1)
    for line in failures[:5]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
