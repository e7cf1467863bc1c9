#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at minimal size, both modes.

Run from the root of a checkout:  python3 cimbench/smoke_test.py

Checks that each run exits 0 and ends with the result line (exactly the
keys correct/attempted/failed/metrics), that the printed metrics are
exactly the ones BENCHMARK.json names for the mode, each with its unit and
a finite value, that every name matches [A-Za-z0-9_.-]+, that the report
line carries the workload's own named metrics, and that the benchmark
refuses to run, without a result line, in a copy holding only
BENCHMARK.json and the benchmark's files. Exits 1 on the first failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# The workload-specific end-to-end metrics the report line must name.
REPORT_METRICS = {
    "serve_steady": ["setup_s", "req_per_s", "peak_rss_mb", "error_frac",
                     "sim_p50_us", "sim_p99_us", "sim_slo_frac",
                     "sim_energy_nj_per_req"],
    "campaign_program": ["setup_s", "trials_per_s", "peak_rss_mb",
                         "error_frac"],
    "eda_suite": ["setup_s", "flows_per_s", "peak_rss_mb", "error_frac",
                  "map_devices", "map_delay_steps"],
}


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}: "
          f"{proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(REPORT_METRICS), "workload set")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            check(NAME.match(m["name"]), f"bad metric name {m['name']!r}")
    for name in workloads:
        check(NAME.match(name), f"bad workload name {name!r}")

    for workload in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{tag}: result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: output checks failed: {report['checks']}")
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1, f"{tag}: attempted")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            check(set(got) == set(want),
                  f"{tag}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                check(m["unit"] == want[name], f"{tag}: unit of {name}")
                check(isinstance(m["value"], (int, float))
                      and math.isfinite(m["value"]), f"{tag}: value of {name}")
            for name in REPORT_METRICS[workload]:
                m = report["metrics"].get(name)
                check(m is not None and NAME.match(m["unit"].replace("/", "_")),
                      f"{tag}: report lacks {name} with a unit")
            if workload == "serve_steady":
                why = next(w["why"] for w in spec["workloads"]
                           if w["name"] == workload)
                p = report["params"]
                check(f"{p['slo_limit_us']:g} us" in why and
                      f"{p['result_tol_frac'] * 100:g}%" in why,
                      "serve_steady why must state the SLO limit and the "
                      "result tolerance the binary uses")
            print(f"ok  {tag}  ({len(got)} metrics, "
                  f"{result['attempted']} ops checked)")

    # Without the library sources the benchmark must fail, not report.
    bare = ROOT / ".bench_build" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", workloads[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run without library sources must fail without a result")
    print("ok  bare copy refused")
    print("smoke test passed")


if __name__ == "__main__":
    main()
