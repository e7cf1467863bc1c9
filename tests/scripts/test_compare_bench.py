#!/usr/bin/env python3
"""scripts/compare_bench.py compares only like-for-like runs.

Two bench-history files that differ only in `threads` must be refused
with exit status 2 and an error naming the field; the same pair with
matching fields must compare cleanly (exit 0).

Usage: test_compare_bench.py PATH/TO/compare_bench.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROW = {"bench": "bench_demo", "wall_ms": 50.0, "ops": 10, "threads": 1,
       "peak_rss_mb": 4.0, "simd_isa": "avx2", "build_type": "Release"}


def run_pair(script: str, cur_threads: int) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory() as d:
        Path(d, "BENCH_PR1.json").write_text(json.dumps([ROW]))
        Path(d, "BENCH_PR2.json").write_text(
            json.dumps([dict(ROW, threads=cur_threads)]))
        return subprocess.run(
            [sys.executable, script, "--history-dir", d],
            capture_output=True, text=True, check=False)


def main() -> int:
    script = sys.argv[1]
    same = run_pair(script, 1)
    if same.returncode != 0:
        print(f"like-for-like pair: expected exit 0, got {same.returncode}\n"
              f"{same.stdout}{same.stderr}")
        return 1
    mixed = run_pair(script, 4)
    if mixed.returncode != 2 or "threads" not in mixed.stderr:
        print(f"threads 1 vs 4: expected exit 2 naming 'threads', got "
              f"{mixed.returncode}\n{mixed.stdout}{mixed.stderr}")
        return 1
    print("compare_bench refuses runs that differ in threads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
