#!/usr/bin/env python3
"""
Benchmark of the blochhomog pipeline, driven from outside through its public API.

    python3 perfbench/run.py --workload exact_1d --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50     # every workload

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy.  One process per workload, closed loop: one pass at a
time, no threads of the benchmark's own (BLAS keeps its default thread
count).  Passes repeat until the next one would not fit in --seconds; every
pass checks its outputs, and the first is a warm-up left out of the
timings.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (timed with tracing off):
    wall_s       median wall seconds per pass after the warm-up
    setup_s      median over SETUP_REPEATS fresh processes of the time to
                 import numpy/scipy/blochhomog and build the workload inputs
    peak_rss_mb  peak resident memory of this process (MiB)
    ok_frac      passes that ran and passed every check / passes attempted
    oracle_err   the workload's relative L2 error against its independent
                 finite-difference reference (median over passes)
--trace 1 alternates untraced and traced passes and reports per-layer span
metrics (median over traced passes) plus trace.overhead_s, the traced minus
the untraced median pass time.

Result files (environment record, per-pass data, spans) go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import environment
from spans import REPORTED, UNITS, Recorder, layer_metrics, traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_frac": "ratio", "oracle_err": "rel_l2"}


def import_package():
    """Put this checkout's src/ first on the path and import blochhomog."""
    init = os.path.join(SRC, "blochhomog", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from a repository checkout")
    sys.path.insert(0, SRC)
    import blochhomog
    if os.path.abspath(blochhomog.__file__) != init:
        sys.exit(f"perfbench: imported {blochhomog.__file__}, expected {init}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="exact_1d, converge_cli_1d, pipeline_2d, or all")
    p.add_argument("--seed", type=int, default=0,
                   help="0 = unperturbed medium; others perturb it slightly")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measuring time; passes that would overrun it are "
                        "not started (at least two always run, three when "
                        "traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size (self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)   # one fresh-process setup sample
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def one_pass(run_pass, inputs, recorder=None) -> dict:
    """Run and time one pass; a pass that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        if recorder is None:
            res = run_pass(inputs)
        else:
            with traced(recorder):
                res = run_pass(inputs)
    except Exception:
        traceback.print_exc()
        return {"wall_s": time.perf_counter() - t0, "ok": False,
                "oracle_err": None, "problems": ["raised"], "notes": []}
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ok": not res.problems,
            "oracle_err": res.oracle_err, "problems": res.problems,
            "notes": res.notes}


def pass_loop(seconds: float, min_passes: int, do_pass) -> list[dict]:
    """Closed loop: start pass i only if it is expected to end in time.

    Pass 0 is the warm-up: it carries the heap growth and first-call costs
    (it was often up to ~10 % slower), so it is checked and counted
    as attempted but left out of the timings.
    """
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(do_pass(len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh processes that import and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def plain_run(args, make_inputs, run_pass, workdir) -> dict:
    setup_times = measure_setup(args)
    inputs = make_inputs(args.seed, args.tiny, workdir)
    passes = pass_loop(args.seconds, 2,
                       lambda i: one_pass(run_pass, inputs))
    ok = sum(p["ok"] for p in passes)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed = passes[1:]                       # after the warm-up pass
    errs = [p["oracle_err"] for p in passes if p["ok"]]
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in timed),
               "setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_kib / 1024.0,
               "ok_frac": ok / len(passes),
               "oracle_err": statistics.median(errs) if errs else None}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "passes": passes,
            "setup_times": setup_times, "problems": []}


def traced_run(args, make_inputs, run_pass, workdir) -> dict:
    inputs = make_inputs(args.seed, args.tiny, workdir)
    recorders = []

    def do_pass(i):
        if i == 0 or i % 2:      # the warm-up, then every other pass untraced
            return one_pass(run_pass, inputs)
        recorders.append(Recorder())
        rec = one_pass(run_pass, inputs, recorders[-1])
        rec["traced"] = True
        return rec

    passes = pass_loop(args.seconds, 3, do_pass)
    problems = [v for rec in recorders for v in rec.nesting_violations()]
    aggregates = [rec.aggregate() for rec in recorders]
    per_pass = [layer_metrics(agg) for agg in aggregates]
    counts = {k for k in per_pass[0] if k.endswith((".calls", ".M3_sum"))}
    for k in sorted(counts):
        if len({m[k] for m in per_pass}) != 1:
            problems.append(f"{k} differs between traced passes")
    metrics = {k: per_pass[0][k] if k in counts
               else statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    plain = [p["wall_s"] for p in passes[1:] if not p.get("traced")]
    traced_walls = [p["wall_s"] for p in passes if p.get("traced")]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain))
    units = {f"{name}.{key}": UNITS[key]
             for name, keys in REPORTED.items() for key in keys}
    units["trace.overhead_s"] = "s"
    return {"metrics": metrics, "units": units, "passes": passes,
            "problems": problems,
            "spans": [r.spans for r in recorders], "aggregates": aggregates}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)} or all")
    make_inputs, run_pass = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        if args.setup_only:
            make_inputs(args.seed, args.tiny, workdir)
            return 0
        run = (traced_run if args.trace else plain_run)(
            args, make_inputs, run_pass, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not p["ok"] for p in run["passes"])
    correct = failed == 0 and not run["problems"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "environment": environment.record(),
              "correct": correct, **run}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{'spans' if args.trace else 'result'}-{tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for i, p in enumerate(run["passes"]):
        kind = "warm-up" if i == 0 else "traced" if p.get("traced") else "plain"
        print(f"pass {i} ({kind}): {p['wall_s']:.3f} s, oracle_err "
              f"{p['oracle_err']}, {'ok' if p['ok'] else p['problems']}"
              + "".join(f"; note: {n}" for n in p["notes"]))
    for problem in run["problems"]:
        print(f"problem: {problem}")
    env = record["environment"]
    print(f"environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']} ({env['numpy_blas']}), scipy {env['scipy']} "
          f"({env['scipy_blas']})")
    for name, value in run["metrics"].items():
        print(f"{args.workload} {name} = {value} {run['units'][name]}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(run["passes"]), "failed": failed,
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in run["metrics"].items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); prints
    every metric by name with its unit."""
    import_package()
    from workloads import WORKLOADS
    all_correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']!r:>24} {m['unit']}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
