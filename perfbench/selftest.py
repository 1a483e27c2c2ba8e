#!/usr/bin/env python3
"""
Fast self-test of the benchmark (tiny sizes, about a minute in all).

    python3 perfbench/selftest.py

For every workload of workloads.py (those in BENCHMARK.json and
pipeline_2d) it runs run.py --tiny once untraced and twice traced, and
asserts that

* the run is correct, every pass attempted passed its output checks;
* exactly the end-to-end (untraced) or per-layer (traced) metrics named in
  BENCHMARK.json are emitted, each with its unit and a numeric value;
* the .calls and .M3_sum counts of the two traced runs agree exactly;
* the result and spans files carry the environment record.

It also checks that run.py fails, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(ROOT, ".perfbench_out")


def run(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=180)


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict, what: str):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        raise AssertionError(f"{what}: not correct: {result}")
    got = result["metrics"]
    if set(got) != set(expected):
        raise AssertionError(f"{what}: missing {sorted(set(expected) - set(got))}"
                             f", unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got[name]
        if m["unit"] != unit or not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} = {m} (unit {unit})")


def check_record(path: str, what: str):
    with open(path) as fh:
        env = json.load(fh)["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "numpy_blas",
                "scipy_blas"):
        if env.get(key) is None:
            raise AssertionError(f"{what}: environment record lacks {key}")
    if env["scipy_blas"].get("threads") is None:
        raise AssertionError(f"{what}: BLAS thread count not recorded")


def check_bare_directory():
    """Without src/ the benchmark must exit nonzero and print no result."""
    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("exact_1d", 0, cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise AssertionError("bare directory: benchmark did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check_bare_directory()
    print("bare directory: fails as required")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS
    for w in WORKLOADS:
        check_result(result_of(run(w, 0), f"{w} untraced"), end_to_end,
                     f"{w} untraced")
        check_record(os.path.join(OUT, f"result-{w}-seed0-tiny.json"), w)
        counts = []
        for attempt in (1, 2):
            what = f"{w} traced #{attempt}"
            result = result_of(run(w, 1), what)
            check_result(result, per_layer, what)
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if k.endswith((".calls", ".M3_sum"))})
        if counts[0] != counts[1]:
            raise AssertionError(f"{w}: call counts differ between runs")
        check_record(os.path.join(OUT, f"spans-{w}-seed0-tiny.json"), w)
        print(f"{w}: metrics, units, checks and call counts OK")
    print("selftest PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
