"""Microbenchmark of the analysis pipeline.

Times the full multi-pass ``optimize`` loop — the workload the pipeline
exists to accelerate — on three Mälardalen programs, verifies that the
outcomes equal the pinned ones below, and writes
``BENCH_pipeline.json``.  Any outcome mismatch exits non-zero.

``speedup_estimated`` is the one speed figure, measured in the same run
on the same machine: ``cold_analyze_s × (candidates + 1)`` — one
standalone :func:`~repro.analysis.wcet.analyze_wcet` per candidate plus
the initial one — over the measured ``optimize`` time.  It shows what
the pipeline's caches and ACFG splicing save against analysing every
candidate from scratch.

Usage::

    python benchmarks/bench_pipeline.py [--output BENCH_pipeline.json]
        [--budget 120]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Dict

from repro.analysis.wcet import analyze_wcet
from repro.bench.registry import load
from repro.cache.config import TABLE2
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.program.acfg import build_acfg

CONFIG_ID = "k1"
TECH = "45nm"
BUDGET = 120

#: Pinned ``optimize`` outcomes with the parameters above; every change
#: to the pipeline must reproduce them bit-identically.
OUTCOMES = {
    "fdct": {
        "tau_final": 21537.0,
        "misses_final": 555,
        "passes": 34,
        "prefetches": 33,
    },
    "ndes": {
        "tau_final": 51123.0,
        "misses_final": 1164,
        "passes": 7,
        "prefetches": 6,
    },
    "adpcm": {
        "tau_final": 67730.0,
        "misses_final": 1649,
    },
}


def bench_program(name: str, budget: int) -> Dict[str, Any]:
    """Time one multi-pass optimize run and its cold-analysis yardstick."""
    config = TABLE2[CONFIG_ID]
    timing = cacti_model(config, technology(TECH)).timing_model()
    cfg = load(name)

    start = time.perf_counter()
    acfg = build_acfg(cfg, config.block_size)
    analyze_wcet(acfg, config, timing, with_may=False)
    cold_analyze_s = time.perf_counter() - start

    options = OptimizerOptions(max_evaluations=budget)
    start = time.perf_counter()
    _, report = optimize(load(name), config, timing, options=options)
    optimize_s = time.perf_counter() - start

    all_cold_s = cold_analyze_s * (report.candidates_evaluated + 1)
    row: Dict[str, Any] = {
        "program": name,
        "optimize_s": round(optimize_s, 3),
        "cold_analyze_s": round(cold_analyze_s, 4),
        "candidates_evaluated": report.candidates_evaluated,
        "passes": report.passes,
        "prefetches": report.prefetch_count,
        "tau_final": report.tau_final,
        "misses_final": report.misses_final,
        "pipeline": dict(report.pipeline),
        "all_cold_estimated_s": round(all_cold_s, 3),
        "speedup_estimated": round(all_cold_s / optimize_s, 2),
    }

    mismatches = []
    for key in ("tau_final", "misses_final", "passes", "prefetches"):
        expected = OUTCOMES[name].get(key)
        if expected is not None and row[key] != expected:
            mismatches.append(f"{key}: expected {expected}, got {row[key]}")
    row["outcome_matches"] = not mismatches
    row["mismatches"] = mismatches
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_pipeline.json")
    parser.add_argument("--budget", type=int, default=BUDGET)
    args = parser.parse_args(argv)

    rows = []
    for name in OUTCOMES:
        print(f"benchmarking optimize on {name} "
              f"({CONFIG_ID}/{TECH}, budget {args.budget})...",
              file=sys.stderr)
        row = bench_program(name, args.budget)
        print(
            f"  {row['optimize_s']:.2f}s "
            f"({row['speedup_estimated']:.2f}x estimated), "
            f"outcome match: {row['outcome_matches']}",
            file=sys.stderr,
        )
        rows.append(row)

    document = {
        "bench": "pipeline",
        "config": CONFIG_ID,
        "tech": TECH,
        "budget": args.budget,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "programs": rows,
        "min_speedup_estimated": min(r["speedup_estimated"] for r in rows),
        "all_outcomes_match": all(r["outcome_matches"] for r in rows),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)

    failures = [
        f"{row['program']}: {mismatch}"
        for row in rows
        for mismatch in row["mismatches"]
    ]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
