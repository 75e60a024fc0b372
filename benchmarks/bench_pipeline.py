"""Microbenchmark of the analysis pipeline: a two-arm A/B.

Times the full multi-pass ``optimize`` loop — the workload the pipeline
exists to accelerate — on three Mälardalen programs, verifies that the
outcomes equal the pinned ones below, and writes
``BENCH_pipeline.json``.  Any outcome mismatch exits non-zero.

Both arms run in the same process on the same machine:

* **pipeline** — the timed ``optimize`` run.  Its pipeline records a
  copy of every program it analyses; the copying is timed separately
  and left out of ``optimize_s``.
* **cold** — :func:`~repro.analysis.wcet.analyze_wcet` on a fresh
  :func:`~repro.program.acfg.build_acfg` of each recorded program, with
  the pipeline's settings.  Every cold τ_w must equal the pipeline's.

``speedup`` is ``cold_s / optimize_s``: what the pipeline's memos and
ACFG splicing save against analysing every program from scratch.  The
cold arm leaves out the optimizer's own work (candidate search, update
analysis), which the pipeline arm includes.

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

from repro.analysis.pipeline import AnalysisPipeline
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


class RecordingPipeline(AnalysisPipeline):
    """A pipeline that keeps a copy of every program it analyses.

    ``analyses`` holds ``(program copy, with_may, τ_w)`` per call;
    ``record_s`` is the time spent copying.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.analyses = []
        self.record_s = 0.0

    def analyze(self, cfg, with_may=True, base=None, inserted=None):
        start = time.perf_counter()
        program = cfg.clone()
        self.record_s += time.perf_counter() - start
        result = super().analyze(
            cfg, with_may=with_may, base=base, inserted=inserted
        )
        self.analyses.append((program, with_may, result.wcet.tau_w))
        return result


def cold_arm(pipeline: RecordingPipeline):
    """Time ``analyze_wcet(build_acfg(...))`` on every recorded program.

    Returns ``(seconds, number of τ_w mismatches)``.
    """
    mismatches = 0
    start = time.perf_counter()
    for program, with_may, tau_w in pipeline.analyses:
        wcet = analyze_wcet(
            build_acfg(program, pipeline.config.block_size,
                       pipeline.base_address),
            pipeline.config,
            pipeline.timing,
            with_may=with_may,
            with_persistence=pipeline.with_persistence,
            locked_blocks=pipeline.locked_blocks or None,
            hierarchy=pipeline.hierarchy,
            refine=pipeline.refine,
            refine_budget=pipeline.refine_budget,
        )
        mismatches += wcet.tau_w != tau_w
    return time.perf_counter() - start, mismatches


def bench_program(name: str, budget: int) -> Dict[str, Any]:
    """Time one multi-pass optimize run against its cold analyses."""
    config = TABLE2[CONFIG_ID]
    timing = cacti_model(config, technology(TECH)).timing_model()
    options = OptimizerOptions(max_evaluations=budget)
    pipeline = RecordingPipeline.for_options(config, timing, options)

    start = time.perf_counter()
    _, report = optimize(
        load(name), config, timing, options=options, pipeline=pipeline
    )
    optimize_s = time.perf_counter() - start - pipeline.record_s
    cold_s, cold_mismatches = cold_arm(pipeline)

    row: Dict[str, Any] = {
        "program": name,
        "optimize_s": round(optimize_s, 3),
        "cold_s": round(cold_s, 3),
        "analyses": len(pipeline.analyses),
        "speedup": round(cold_s / optimize_s, 2),
        "candidates_evaluated": report.candidates_evaluated,
        "passes": report.passes,
        "prefetches": report.prefetch_count,
        "tau_final": report.tau_final,
        "misses_final": report.misses_final,
        "pipeline": dict(report.pipeline),
    }

    mismatches = []
    for key in ("tau_final", "misses_final", "passes", "prefetches"):
        expected = OUTCOMES[name].get(key)
        if expected is not None and row[key] != expected:
            mismatches.append(f"{key}: expected {expected}, got {row[key]}")
    if cold_mismatches:
        mismatches.append(
            f"cold τ_w differs on {cold_mismatches} of "
            f"{row['analyses']} analyses"
        )
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
            f"  pipeline {row['optimize_s']:.2f}s, cold {row['cold_s']:.2f}s "
            f"({row['speedup']:.2f}x), outcome match: "
            f"{row['outcome_matches']}",
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
        "min_speedup": min(r["speedup"] for r in rows),
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
