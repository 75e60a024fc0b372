#!/usr/bin/env python3
"""Seed and determinism check of the benchmark's deterministic metrics.

Runs one workload five times through ``run.py`` and compares the
``deterministic`` line each run prints:

1. seed ``S``, untraced, twice: every deterministic metric is identical;
2. seed ``S``, traced, twice: identical again, per-layer counts
   (slack queries, ACFG builds, cache counters) included, and every
   metric shared with (1) is identical;
3. seed ``S + 1``, untraced: metrics of the static analysis and the
   optimizer (τ_w, candidates, prefetches, passes) are identical, so
   only simulation-derived metrics (ACET, energy, executed instructions,
   bound coverage) may move.

Usage, from the repository root::

    python3 perfbench/determinism.py --workload optimize --seed 1 --seconds 5

Exits 0 when every comparison holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Decided by the static analysis and the optimizer alone.
SEED_INDEPENDENT = ("wcet_ratio_pct", "tau_w_sum", "candidates", "rejected",
                    "passes", "prefetches")


def deterministic(workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"run.py failed for seed {seed} trace {trace}")
    for line in completed.stdout.splitlines():
        if line.startswith("deterministic "):
            return json.loads(line[len("deterministic "):])
    raise SystemExit("run.py printed no deterministic line")


def compare(name: str, left: dict, right: dict, keys) -> bool:
    differing = [k for k in keys if left.get(k) != right.get(k)]
    print(f"{name}: {len(keys) - len(differing)}/{len(keys)} identical")
    for key in differing:
        print(f"  {key}: {left.get(key)!r} != {right.get(key)!r}")
    return not differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()

    first = deterministic(args.workload, args.seed, args.seconds, 0)
    again = deterministic(args.workload, args.seed, args.seconds, 0)
    traced = deterministic(args.workload, args.seed, args.seconds, 1)
    traced_again = deterministic(args.workload, args.seed, args.seconds, 1)
    other = deterministic(args.workload, args.seed + 1, args.seconds, 0)

    ok = compare("same seed, two runs", first, again,
                 sorted(set(first) | set(again)))
    ok &= compare("same seed, two traced runs", traced, traced_again,
                  sorted(set(traced) | set(traced_again)))
    ok &= compare("traced vs untraced", first, traced,
                  sorted(set(first) & set(traced)))
    ok &= compare(f"seed {args.seed} vs {args.seed + 1} (static metrics)",
                  first, other, SEED_INDEPENDENT)
    moved = sorted(k for k in first if first[k] != other.get(k))
    print(f"moved by the seed: {', '.join(moved) or 'nothing'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
