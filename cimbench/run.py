#!/usr/bin/env python3
"""Build and run the cimlib benchmark, or compare two saved results.

Run from the root of a checkout:

    python3 cimbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0
    python3 cimbench/run.py compare OLD.json NEW.json

A run configures and builds `cimbench` (Release) from `cimbench/` and `src/`
into the build directory (`$CARGO_TARGET_DIR`, default `.bench_build`),
runs it at a pinned CIM_THREADS with every other CIM_* variable removed,
stamps the provenance block into the report, saves the result under
`<build>/results/`, and prints the report line followed by the result line
(always the last line of stdout). It exits non-zero without a result line
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve_steady", "campaign_program", "eda_suite")
MAX_THREADS = 4
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Results are only comparable when these provenance fields agree.
COMPARE_KEYS = ("threads", "simd_isa", "build_type")


def fail(msg, code=2):
    print(f"cimbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    cmake_dir = out / "cimbench"
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "cimbench",
                  "-j", jobs])
    with open(log, "w") as fh:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})")
    return cmake_dir / "cimbench"


def git_provenance():
    """HEAD sha and dirty flag, read now; 'unknown' outside a git tree."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return {"git_sha": "unknown", "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or "unknown",
            "git_dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}


def source_sha256():
    """Content hash of the library and benchmark sources: identifies the code
    that ran even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def run(args):
    binary = build(build_dir())
    threads = min(MAX_THREADS, os.cpu_count() or 1)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIM_")}
    env["CIM_THREADS"] = str(threads)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"cimbench exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        fail(f"unreadable benchmark output: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")

    prov = report["provenance"]
    prov.update(git_provenance())
    prov["source_sha256"] = source_sha256()
    prov["cim_threads"] = threads
    prov["workload"] = args.workload
    prov["trace"] = args.trace
    prov["unix_time"] = time.time()

    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}_s{args.seed}_t{args.trace}_"
            f"{time.time_ns()}.json")
    (out / name).write_text(json.dumps({"report": report, "result": result},
                                       indent=1) + "\n")
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"report": report}))
    print(json.dumps(result))


def compare(old_path, new_path):
    """Side-by-side metrics of two saved results; refuses unlike pairs."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    po, pn = old["report"]["provenance"], new["report"]["provenance"]
    for key in COMPARE_KEYS + ("workload", "trace"):
        if po.get(key) != pn.get(key):
            fail(f"refusing to compare: {key} differs "
                 f"({po.get(key)!r} vs {pn.get(key)!r})", 3)
    mo, mn = old["result"]["metrics"], new["result"]["metrics"]
    print(f"{'metric':34} {'old':>14} {'new':>14} {'new/old':>9}")
    for name in mo:
        if name not in mn:
            continue
        a, b = mo[name]["value"], mn[name]["value"]
        r = f"{b / a:9.3f}" if a else f"{'-':>9}"
        print(f"{name:34} {a:14.6g} {b:14.6g} {r}  {mn[name]['unit']}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare OLD.json NEW.json")
        compare(sys.argv[2], sys.argv[3])
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal input sizes (self-test only)")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")
    run(args)


if __name__ == "__main__":
    main()
