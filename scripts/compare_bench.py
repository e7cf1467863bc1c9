#!/usr/bin/env python3
"""Bench-history regression gate.

Compares the newest BENCH_PR<N>.json against the previous one (by PR
number) and fails loudly when a bench that exists in both runs regressed:

  * wall-time:  > 15% slower
  * peak RSS:   > 10% larger

Benches present in only one of the two files are reported but never fail
the gate (new benches appear, old ones get retired). Sub-millisecond wall
times are pure noise on shared CI hardware, so rows where *both* runs are
under 1.0 ms are compared on RSS only; on top of that the wall gate
requires an *absolute* slowdown of at least 1.0 ms, because few-ms
benches carry ms-scale constant offsets between container instances
(loader, page cache) that the relative threshold misreads as
regressions.

Only like-for-like runs are compared: when a shared bench differs between
the two files in `threads`, `simd_isa` or `build_type`, the tool refuses
the pair (exit 2, naming the field) instead of guessing a correction —
such runs time different programs, and no scalar host-speed factor makes
them comparable.

A PR that deliberately changes what a bench measures declares it in
WAIVERS below; the waiver only applies to the exact PR that declared it,
so entries go stale harmlessly and the next run re-arms the gate.

Usage:
    scripts/compare_bench.py [CURRENT.json] [--history-dir DIR]

With no argument the newest BENCH_PR<N>.json in the history dir (default:
repo root) is the current run. Exit status: 0 = no regression (or nothing
to compare against), 1 = regression, 2 = usage/parse error or runs that
are not like for like.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

WALL_REGRESSION_FRAC = 0.15
RSS_REGRESSION_FRAC = 0.10
WALL_NOISE_FLOOR_MS = 1.0
WALL_ABS_SLACK_MS = 1.0
# Run fields that must match for two runs of a bench to be compared.
LIKE_FOR_LIKE_FIELDS = ("threads", "simd_isa", "build_type")

# Deliberate scope changes: bench -> (PR number, reason). The wall gate is
# skipped for that bench only when the *current* file is that PR's run.
WAIVERS: dict[str, tuple[int, str]] = {
    "bench_fig4_crossbar_vmm": (
        7, "added fidelity-dial sweep: 3 tiers x 3 passes x 400 VMMs "
           "+ deviation statistics"),
    "bench_accuracy_vs_yield": (
        10, "migrated onto the adaptive Monte-Carlo campaign runner: "
            "per-yield replication counts are now CI-driven"),
    "bench_retraining_ablation": (
        10, "migrated onto the adaptive Monte-Carlo campaign runner: "
            "retrains replicate per yield until the recovery CI tightens"),
    "bench_technology_sweep": (
        10, "migrated onto the adaptive Monte-Carlo campaign runner: "
            "per-technology VMM-error statistics replace the single "
            "fixed-seed array"),
}

_BENCH_RE = re.compile(r"^BENCH_PR(\d+)\.json$")


def pr_number(path: Path) -> int | None:
    m = _BENCH_RE.match(path.name)
    return int(m.group(1)) if m else None


def load_entries(path: Path) -> dict[str, dict]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot parse {path}: {e}")
    if not isinstance(data, list):
        sys.exit(f"error: {path} is not a JSON array")
    entries: dict[str, dict] = {}
    for obj in data:
        if not isinstance(obj, dict) or "bench" not in obj:
            sys.exit(f"error: {path} contains a non-bench entry: {obj!r}")
        name = obj["bench"]
        if name in entries:
            sys.exit(f"error: {path} has duplicate bench '{name}'")
        entries[name] = obj
    return entries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", nargs="?", default=None,
                    help="current BENCH_PR<N>.json (default: newest in history dir)")
    ap.add_argument("--history-dir", default=".",
                    help="directory holding BENCH_PR<N>.json history (default: .)")
    args = ap.parse_args()

    hist_dir = Path(args.history_dir)
    history = sorted(
        (p for p in hist_dir.glob("BENCH_PR*.json") if pr_number(p) is not None),
        key=pr_number,
    )

    if args.current is not None:
        cur_path = Path(args.current)
        if pr_number(cur_path) is None:
            print(f"error: {cur_path.name} does not match BENCH_PR<N>.json",
                  file=sys.stderr)
            return 2
        history = [p for p in history if p.resolve() != cur_path.resolve()
                   and pr_number(p) < pr_number(cur_path)]
    else:
        if not history:
            print("compare_bench: no BENCH_PR<N>.json history found; nothing to do")
            return 0
        cur_path = history.pop()

    if not history:
        print(f"compare_bench: {cur_path.name} has no earlier run to compare "
              "against; skipping")
        return 0
    prev_path = history[-1]

    cur = load_entries(cur_path)
    prev = load_entries(prev_path)
    shared = sorted(cur.keys() & prev.keys())
    only_cur = sorted(cur.keys() - prev.keys())
    only_prev = sorted(prev.keys() - cur.keys())

    print(f"compare_bench: {prev_path.name} -> {cur_path.name} "
          f"({len(shared)} shared benches)")
    # First-appearance benches are informational: their numbers become the
    # baseline the *next* PR is gated against, so print them rather than
    # just naming them — a wild first wall/RSS should be visible in the
    # collection log, not discovered one PR later as a mystery regression.
    for name in only_cur:
        obj = cur[name]
        wall = obj.get("wall_ms", float("nan"))
        rss = obj.get("peak_rss_mb", float("nan"))
        print(f"  new bench (informational, baseline for next run): {name} "
              f"wall_ms={wall:.2f} peak_rss_mb={rss:.1f}")
    if only_prev:
        print(f"  retired benches (not compared): {', '.join(only_prev)}")

    def walls(name: str) -> tuple[float, float, float, float]:
        c, p = cur[name], prev[name]
        try:
            return (float(c["wall_ms"]), float(p["wall_ms"]),
                    float(c["peak_rss_mb"]), float(p["peak_rss_mb"]))
        except (KeyError, TypeError, ValueError) as e:
            sys.exit(f"error: bench '{name}' has malformed wall_ms/peak_rss_mb: {e}")

    for name in shared:
        for field in LIKE_FOR_LIKE_FIELDS:
            p_val, c_val = prev[name].get(field), cur[name].get(field)
            if p_val != c_val:
                print(f"error: not like for like: bench '{name}' has "
                      f"{field}={p_val!r} in {prev_path.name} but "
                      f"{field}={c_val!r} in {cur_path.name}; refusing to "
                      "compare", file=sys.stderr)
                return 2

    cur_pr = pr_number(cur_path)

    regressions: list[str] = []
    for name in shared:
        cw, pw, cr, pr = walls(name)
        notes = []
        if name in WAIVERS and WAIVERS[name][0] == cur_pr:
            print(f"  waived (PR {cur_pr}) {name}: {WAIVERS[name][1]}")
        elif max(cw, pw) >= WALL_NOISE_FLOOR_MS and pw > 0.0:
            dw = (cw - pw) / pw
            if dw > WALL_REGRESSION_FRAC and cw - pw > WALL_ABS_SLACK_MS:
                notes.append(f"wall_ms {pw:.2f} -> {cw:.2f} (+{100*dw:.1f}%)")
        if pr > 0.0:
            dr = (cr - pr) / pr
            if dr > RSS_REGRESSION_FRAC:
                notes.append(f"peak_rss_mb {pr:.1f} -> {cr:.1f} (+{100*dr:.1f}%)")
        if notes:
            regressions.append(f"  REGRESSION {name}: " + "; ".join(notes))

    if regressions:
        print(f"compare_bench: {len(regressions)} regression(s) vs "
              f"{prev_path.name} (gates: wall +{100*WALL_REGRESSION_FRAC:.0f}%, "
              f"rss +{100*RSS_REGRESSION_FRAC:.0f}%):", file=sys.stderr)
        for r in regressions:
            print(r, file=sys.stderr)
        return 1

    print("compare_bench: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
