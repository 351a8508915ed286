"""Benchmark entry point: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload eq-small --seed 1 --seconds 25 --trace 0

Run from the repository root.  Without tracing it prints the end-to-end
metrics (training and evaluation throughput, set-up time, peak memory);
with ``--trace 1`` it prints the per-layer metrics instead and writes the
spans and a per-layer table under ``perfbench/out/``.

This process only orchestrates: it starts ``SETUP_REPEATS`` processes that
each set the workload up and exit, for the median set-up time, then one
process that sets up, measures and checks.  Each child runs with one BLAS
thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 2  # set-up-only processes; the measuring process adds a third sample
MIN_ROUNDS = 3
AFTER_BLOCKS = 5
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------- orchestrator

def _spawn(args, role):
    """Run one child; return (its result dict, its other stdout lines)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--child", role,
    ]
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def orchestrate(args) -> int:
    if not (ROOT / "src" / "convcnp" / "__init__.py").is_file():
        print(f"error: no convcnp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setups = []
    if not args.trace:
        setups = [_spawn(args, "setup")[0]["setup_s"] for _ in range(SETUP_REPEATS)]
    result, lines = _spawn(args, "measure")
    for line in lines:
        print(line)
    if args.trace:
        metrics = result["per_layer"]
    else:
        setups.append(result["setup_s"])
        print(f"# setup_s samples: {[round(s, 4) for s in setups]}")
        metrics = {
            "train_tasks_per_s": {"value": result["train_tasks_per_s"], "unit": "1/s"},
            "eval_tasks_per_s": {"value": result["eval_tasks_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------- child process

def machine_info():
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


@contextlib.contextmanager
def phase(tracer, name):
    """With a tracer: wrappers installed and a span ``name`` open; else nothing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.uninstall()


def child(args) -> int:
    import resource

    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    w = workloads.WORKLOADS[args.workload]()
    with phase(tracer, "bench.setup"):
        w.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Timed loop: one eval block gives the NLL before training (its rate is
    # not used), then rounds of (train block, eval block) until the time is
    # up.  With tracing, even rounds are traced and odd ones are not; the
    # odd ones give the untraced reference for the overhead.
    start = time.perf_counter()
    n_before, ll_before = w.eval_block()
    attempted = n_before
    rates = {True: ([], []), False: ([], [])}  # traced -> (train, eval)
    lls = []  # held-out mean LL after each round
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and rounds % 2 == 0
        with phase(tracer if traced else None, "bench.train_block"):
            t = time.perf_counter()
            n = w.train_block(rounds)
            rates[traced][0].append(n / (time.perf_counter() - t))
        with phase(tracer if traced else None, "bench.eval_block"):
            t = time.perf_counter()
            n_eval, ll = w.eval_block()
            rates[traced][1].append(n_eval / (time.perf_counter() - t))
        lls.append(ll)
        attempted += n + n_eval
        rounds += 1

    # One training block can make the held-out NLL spike (README.md, "training"
    # check), so "after the run" is the median over the last AFTER_BLOCKS blocks.
    ll_after = statistics.median(lls[-AFTER_BLOCKS:])
    OUT_DIR.mkdir(exist_ok=True)
    with phase(tracer, "bench.checks"):
        results = w.checks(-ll_before, -ll_after, OUT_DIR)
    attempted += len(results)
    correct = all(ok for _, ok, _ in results)
    for name, ok, detail in results:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        if not ok:
            print(f"CHECK FAILED: {args.workload} {name}: {detail}", file=sys.stderr)
    print("# machine: " + json.dumps(machine_info()))

    out = {"setup_s": setup_s, "correct": correct, "attempted": attempted, "failed": 0}
    untraced_train, untraced_eval = rates[False]
    print(f"# rounds {rounds}; train tasks/s per block: "
          f"{[round(r, 3) for r in untraced_train]}; eval tasks/s per block: "
          f"{[round(r, 3) for r in untraced_eval]}")
    if tracer:
        traced_train, traced_eval = rates[True]
        overhead = {
            "train_pct": 100.0 * (np.median(untraced_train) / np.median(traced_train) - 1.0),
            "eval_pct": 100.0 * (np.median(untraced_eval) / np.median(traced_eval) - 1.0),
        }
        print("# tracing overhead: " + json.dumps(overhead))
        if tracer.missing:
            print(f"# absent layers: {tracer.absent}; missing functions: {tracer.missing}")
        out["per_layer"] = tracing.per_layer_metrics(tracer.spans, tracer.absent)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".spans.jsonl"))
        write_table(stem.with_suffix(".layers.txt"), tracer.spans, out["per_layer"], overhead)
    else:
        out["train_tasks_per_s"] = float(np.median(untraced_train))
        out["eval_tasks_per_s"] = float(np.median(untraced_eval))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def write_table(path, spans, per_layer, overhead):
    import tracing

    rows = sorted(tracing.layer_table(spans).items(), key=lambda kv: -kv[1][2])
    with open(path, "w") as f:
        f.write(f"{'span':32s} {'calls':>8s} {'total ms':>12s} {'self ms':>12s}\n")
        for name, (calls, total, own) in rows:
            f.write(f"{name:32s} {calls:8d} {total:12.1f} {own:12.1f}\n")
        f.write("\n")
        for name, m in per_layer.items():
            f.write(f"{name:36s} {m['value']:14.6g} {m['unit']}\n")
        f.write(f"\ntracing overhead: {json.dumps(overhead)}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
