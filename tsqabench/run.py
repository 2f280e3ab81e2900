"""tsqa benchmark: one workload, one seed, one timed closed loop.

    python3 tsqabench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Prints the pinned environment, every correctness check and every
metric by name with its unit, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` the run times half its
seconds untraced, then a fixed number of ops traced (so span counts repeat
exactly for a seed), and reports per-layer spans, counters and the tracing
overhead: the untraced over the traced throughput. Exit status is 0 on a completed run, 1 when the trace
coverage guard fails, and 2 when the package is not found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".tsqabench_work")
# One BLAS thread, at most nproc: steadier than two on a shared 2-core box
# and bit-reproducible, so train_loss_final repeats for a seed.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "eval", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal corpus and a single set-up, for the smoke test")
    return parser.parse_args(argv)


def environment(args, numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing(log):
    """End-to-end timings of one untraced phase, under generic names."""
    ms = [1000.0 * s for s in log.seconds]
    return {
        "items_per_s": (log.rate, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
    }


# The issue-facing name of each generic end-to-end metric, per workload.
NAMED = {
    "train": {"items_per_s": "train_records_per_s", "op_ms_p50": "train_step_ms_p50",
              "op_ms_p90": "train_step_ms_p90"},
    "eval": {"items_per_s": "eval_records_per_s", "op_ms_p50": "eval_record_ms_p50",
             "op_ms_p90": "eval_record_ms_p90"},
    "ingest": {"items_per_s": "ingest_series_per_s", "op_ms_p50": "ingest_window_ms_p50",
               "op_ms_p90": "ingest_window_ms_p90"},
}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tsqa", "__init__.py")):
        print(f"error: tsqa package not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import numpy

    import workloads
    from tracing import Tracer

    env = environment(args, numpy)
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        wl, setup_times = workloads.set_up(args.workload, args.seed, work_dir, args.smoke)
        gc.collect()
        logs = []
        if args.trace:
            logs.append(workloads.OpLog())
            wl.run(logs[-1], workloads.for_seconds(args.seconds / 2))
            gc.collect()
            logs.append(workloads.OpLog())
            with Tracer() as tracer:
                wl.run(logs[-1], workloads.for_ops(wl.size.traced_ops))
        else:
            logs.append(workloads.OpLog())
            wl.run(logs[-1], workloads.for_seconds(args.seconds))
        run_failures = wl.final_failures()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    attempted = sum(log.attempted for log in logs)
    failures = [f for log in logs for f in log.failures] + run_failures
    print(f"check op_failures {len(failures)} of {attempted} ops "
          f"({wl.op}s) {'ok' if not failures else 'FAILED'}")
    for failure in failures[:20]:
        print(f"check failure: {failure}")
    correct = not failures

    if args.trace:
        untraced, traced = (log.rate for log in logs)
        out = tracer.metrics()
        out["trace.ops"] = (logs[-1].attempted, "count")
        out["trace.overhead_pct"] = (100.0 * (untraced / traced - 1.0), "%")
        print(f"trace untraced {untraced:.4f} vs traced {traced:.4f} {wl.item}/s "
              f"over {logs[0].attempted} and {logs[-1].attempted} {wl.op}s")
        problems = tracer.guard(args.workload)
        for problem in problems:
            print(f"check trace_coverage FAILED: {problem}")
        if not problems:
            print("check trace_coverage ok")
        correct = correct and not problems
    else:
        problems = []
        out = timing(logs[0])
        out["setup_s"] = (statistics.median(setup_times), "s")
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        print(f"setup times {' '.join(f'{t:.4f}' for t in setup_times)} s; "
              f"{logs[0].attempted} timed {wl.op}s")
        for generic, name in NAMED[args.workload].items():
            value, unit = out[generic]
            print(f"metric {name} {value:.6g} {unit}")
        for name, value, unit in wl.quality():
            print(f"metric {name} {value:.6g} {unit}")
    print(f"metric ops_attempted {attempted} count")
    print(f"metric ops_failed {len(failures)} count")
    for name, (value, unit) in out.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
