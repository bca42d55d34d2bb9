#!/usr/bin/env python3
"""bench_check: guard the committed perf-trajectory files against regressions.

Compares a freshly produced bench JSON (e.g. /tmp/cluster.json from CI) against the committed
baseline (BENCH_cluster.json or BENCH_vmm.json). Replay throughput is not guarded here: the
repository benchmark (perfbench/, workload storm-1m, traced replay.ns_per_op.<kind>) measures
it. Two classes of keys:

  * volatile keys — wall-clock and derived throughput numbers (wall_seconds, ops_per_sec,
    speedup, best_wall_seconds, *_latency_us, *_ms — including the per-phase timing keys
    profile_ms/plan_ms/replay_ms/report_ms/total_ms that RunRecord "phases" blocks carry).
    These legitimately wobble run to run, so
    they are compared by relative threshold (default 20%), and only in the slow direction:
    a fresh run that is FASTER than the baseline never fails. Time-like keys whose baseline is
    below --min-seconds (default 0.5) are skipped entirely — sub-second cells are dominated by
    scheduling noise, and the multi-second scale-sweep rows are the real trajectory.
  * everything else — behavioral output (digests, counts, efficiencies, integrals). The
    simulators are deterministic on pinned seeds, so these must match exactly.

Usage:
  tools/bench_check.py BASELINE FRESH [--threshold 0.20]

Exit status 0 when the fresh run is within bounds, 1 with a per-path report otherwise.
Refresh a baseline deliberately by re-running the bench with its pinned flags (see
bench/README.md) and committing the new file.
"""

import argparse
import json
import sys

# Keys whose values measure host speed rather than simulator behavior. Matched by exact name
# or suffix anywhere in the document. The phase-timing keys (profile_ms, plan_ms, replay_ms,
# report_ms, total_ms) are listed explicitly even though the _ms suffix already covers them:
# they are wall-clock attribution, never behavioral, and must stay thresholded.
VOLATILE_KEYS = {"wall_seconds", "ops_per_sec", "speedup", "best_wall_seconds", "mops",
                 "profile_ms", "plan_ms", "replay_ms", "report_ms", "total_ms"}
# *_rss_bytes keys (peak process RSS sampled around a bench phase) depend on the host's page
# accounting and prior allocator behavior, not just the simulator — thresholded, grow-is-worse,
# with an absolute floor (see time_floor) so tiny-footprint cells cannot fail on noise.
VOLATILE_SUFFIXES = ("_latency_us", "_ms", "_per_sec", "_rss_bytes")

# Throughput-like keys regress when the fresh value DROPS; time-like keys when it GROWS.
TIME_LIKE = {"wall_seconds", "best_wall_seconds",
             "profile_ms", "plan_ms", "replay_ms", "report_ms", "total_ms"}
TIME_LIKE_SUFFIXES = ("_latency_us", "_ms", "_rss_bytes")


def is_volatile(key):
    return key in VOLATILE_KEYS or key.endswith(VOLATILE_SUFFIXES)


def is_time_like(key):
    return key in TIME_LIKE or key.endswith(TIME_LIKE_SUFFIXES)


def compare(base, fresh, threshold, min_seconds, path, errors, deltas):
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(set(base) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            if key not in base:
                errors.append(f"{sub}: new key (not in baseline)")
            elif key not in fresh:
                errors.append(f"{sub}: missing from fresh run")
            elif is_volatile(key):
                compare_volatile(key, base[key], fresh[key], threshold, min_seconds, sub,
                                 errors, deltas, siblings=base)
            else:
                compare(base[key], fresh[key], threshold, min_seconds, sub, errors, deltas)
    elif isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            errors.append(f"{path}: length {len(base)} -> {len(fresh)}")
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            compare(b, f, threshold, min_seconds, f"{path}[{i}]", errors, deltas)
    elif base != fresh:
        errors.append(f"{path}: {base!r} -> {fresh!r}")


def time_floor(key, min_seconds):
    if key.endswith("_rss_bytes"):  # absolute floor: sub-32MiB footprints are all noise
        return 32 * 1024 * 1024
    return min_seconds * (1e6 if key.endswith("_latency_us")
                          else 1e3 if key.endswith("_ms") else 1.0)


def compare_volatile(key, base, fresh, threshold, min_seconds, path, errors, deltas,
                     siblings=None):
    if not isinstance(base, (int, float)) or not isinstance(fresh, (int, float)):
        if base != fresh:
            errors.append(f"{path}: {base!r} -> {fresh!r}")
        return
    if base > 0:
        deltas.append((path, base, fresh, (fresh - base) / base))
    if base <= 0:  # nothing to regress against (e.g. sub-resolution wall time)
        return
    if is_time_like(key):
        if base < time_floor(key, min_seconds):  # noise-dominated cell
            return
    elif siblings:
        # A throughput number is only as solid as the timing window it was measured over:
        # when the same record's time-like keys are all below the floor, skip it too.
        windows = [v for k, v in siblings.items()
                   if is_time_like(k) and isinstance(v, (int, float))
                   and v >= time_floor(k, min_seconds)]
        has_timer = any(is_time_like(k) for k in siblings)
        if has_timer and not windows:
            return
    delta = (fresh - base) / base if is_time_like(key) else (base - fresh) / base
    if delta > threshold:
        errors.append(
            f"{path}: {base:g} -> {fresh:g} ({delta:+.0%} worse, threshold {threshold:.0%})"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="JSON from the run under test")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed relative slowdown on volatile keys (default 0.20)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        help="skip time-like keys whose baseline is below this (default 0.5s)",
    )
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    errors = []
    deltas = []
    compare(base, fresh, args.threshold, args.min_seconds, "", errors, deltas)
    # Per-key delta table on every run (pass or fail): the trend is the point of keeping
    # trajectory files, not just the breach. Enforcement above is unchanged — skipped
    # sub-floor cells still show here, they just cannot fail the run.
    if deltas:
        width = max(len(p) for p, *_ in deltas)
        print(f"bench_check: volatile key deltas ({args.baseline} -> {args.fresh}):")
        print(f"  {'key'.ljust(width)}  {'baseline':>12}  {'fresh':>12}  {'delta':>8}")
        for p, b, f, pct in deltas:
            print(f"  {p.ljust(width)}  {b:>12g}  {f:>12g}  {pct:>+8.1%}")
    if errors:
        print(f"bench_check: {args.fresh} regressed against {args.baseline}:")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"bench_check: {args.fresh} within bounds of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
