"""Output checks against independent references, run outside the timed region.

Every operation's outcome is checked three ways:

* **Theorem 1** (τ_w of the optimized program never exceeds the
  original's), re-derived by ``verify_wcet_guarantee`` with the
  baseline, hierarchy and refine flags the optimizer used.
* **Prefetch equivalence** on the concrete executor: with the same
  seed, the optimized program's non-prefetch fetch count
  (``fetches - prefetch_instructions``) equals the original's.  The
  same runs must reproduce the ACET the operation reported.
* **Oracle τ_w**: τ_w of the original and the optimized program,
  recomputed with the pure-Python ``python`` kernel, equals what the
  vectorized kernel produced.

Analysis-only operations (``analyze``) have no optimized program, so
only the oracle τ_w applies.
"""

from __future__ import annotations

from typing import List

from repro.analysis.pipeline import AnalysisPipeline
from repro.cache.config import TABLE2, hierarchy_for
from repro.core.guarantees import verify_wcet_guarantee
from repro.sim.machine import simulate

#: τ_w values are whole cycles summed in float64; equality is exact.
ORACLE_KERNEL = "python"


def check_outcome(workload, context: dict, outcome, seed: int) -> List[str]:
    """Failure messages for one outcome (empty when every check passes)."""
    failures = list(outcome.problems)
    config = TABLE2[outcome.config_id]
    hierarchy = hierarchy_for(config, workload.l2)
    multi_level = hierarchy if hierarchy.multi_level else None
    timing = context["timing"][outcome.config_id]

    if outcome.optimizes:
        theorem1 = outcome.theorem1
        if theorem1 is None:
            theorem1 = verify_wcet_guarantee(
                outcome.original, outcome.optimized, config, timing,
                with_persistence=workload.with_persistence,
                hierarchy=multi_level, refine=workload.refine, strict=False,
            ).theorem1_holds
        if not theorem1:
            failures.append("Theorem 1 does not hold")

    oracle = AnalysisPipeline(
        config, timing,
        with_persistence=workload.with_persistence,
        kernel=ORACLE_KERNEL,
        hierarchy=multi_level,
        refine=workload.refine,
    )
    sides = [("original", outcome.original)]
    if outcome.optimizes:
        sides.append(("optimized", outcome.optimized))
    for index, (side, program) in enumerate(sides):
        expected = oracle.analyze(program).wcet.tau_w
        if expected != outcome.tau_w[index]:
            failures.append(f"{side}: oracle τ_w {expected}, vectorized "
                            f"kernel {outcome.tau_w[index]}")
    if not outcome.optimizes:
        return failures

    level2 = hierarchy.l2_level
    l2_config = level2.config if level2 is not None else None
    runs = [
        simulate(program, config, timing, seed=seed, l2_config=l2_config)
        for _, program in sides
    ]
    for index, (side, _) in enumerate(sides):
        # Confirms the replayed optimized program is the one measured.
        reproduced = (runs[index].memory_cycles, runs[index].fetches)
        reported = (outcome.tau_a[index], outcome.fetches[index])
        if reproduced != reported:
            failures.append(f"{side}: executor gives {reproduced} "
                            f"(cycles, fetches), operation reported "
                            f"{reported}")
    demand = runs[1].fetches - runs[1].prefetch_instructions
    if demand != runs[0].fetches:
        failures.append(
            f"prefetch equivalence: {demand} non-prefetch fetches, "
            f"original has {runs[0].fetches}"
        )
    return failures
