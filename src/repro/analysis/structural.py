"""Exact WCET-path computation on the ACFG (structural IPET).

The paper determines the WCET scenario with IPET (Section 3.2-3.3): an
ILP maximising ``Σ t_bb · n_bb`` under flow conservation.  On the
VIVU-expanded ACFG that optimum has a closed form: because every loop is
represented by a FIRST instance (executes once per entry) and a REST
instance (executes ``bound - 1`` times per entry), the IPET optimum is a
*maximum-weight source→sink path* through the DAG where each vertex
weighs ``t_w(r) × multiplier(r)`` — the multiplier being the product of
``bound - 1`` factors of the enclosing REST contexts
(:func:`repro.program.vivu.execution_multiplier`).

:func:`solve_wcet_path` computes that optimum by dynamic programming in
``O(|R| + |E|)`` and returns both the bound and the per-vertex execution
counts ``n^w`` (the paper's ``n_bb^w`` at reference granularity:
``multiplier`` on the chosen path, ``0`` elsewhere).

:mod:`repro.analysis.ipet` solves the same problem as an explicit ILP
(scipy/HiGHS) — the test suite asserts both agree, which is the
repository's substitute for validating against a commercial IPET
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import AnalysisError
from repro.program.acfg import ACFG


@dataclass
class PathSolution:
    """Result of the WCET-path computation.

    Attributes:
        objective: The IPET optimum ``Σ t_w(r) · n^w(r)`` — the memory
            system's contribution to the WCET (``τ^p_w``, Eq. 3).
        n_w: Per-rid execution count in the WCET scenario.
        on_path: Per-rid indicator of membership in the WCET path.
        path: Vertex ids of the WCET path, source to sink.
    """

    objective: float
    n_w: List[int]
    on_path: List[bool]
    path: List[int]

    def count(self, rid: int) -> int:
        """``n^w`` of one vertex."""
        return self.n_w[rid]


def solve_wcet_path(acfg: ACFG, per_exec_time: Sequence[float]) -> PathSolution:
    """Maximum-weight path through the ACFG.

    Args:
        acfg: The program's ACFG (validated DAG).
        per_exec_time: ``t_w(r)`` for every rid — the per-execution
            worst-case memory time of the reference (0 for JOIN/SOURCE/
            SINK vertices).

    Returns:
        The WCET :class:`PathSolution`.
    """
    n = len(acfg)
    if len(per_exec_time) != n:
        raise AnalysisError(
            f"per_exec_time has {len(per_exec_time)} entries, ACFG has {n}"
        )
    multiplier = acfg.multiplier
    weight = [t * m for t, m in zip(per_exec_time, multiplier)]
    best = [float("-inf")] * n
    best_pred = [-1] * n
    best[acfg.source] = weight[acfg.source]
    ptr = acfg.columns.pred_ptr.tolist()
    pred_idx = acfg.columns.pred_idx.tolist()
    for rid in range(n):
        if rid == acfg.source:
            continue
        lo = ptr[rid]
        hi = ptr[rid + 1]
        if hi - lo == 1:
            chosen = pred_idx[lo]
        elif hi == lo:
            raise AnalysisError(f"vertex {rid} has no predecessors")
        else:
            # Deterministic tie-break: smallest rid among maximal
            # predecessors.
            chosen = max(pred_idx[lo:hi], key=lambda p: (best[p], -p))
        best[rid] = best[chosen] + weight[rid]
        best_pred[rid] = chosen

    path: List[int] = []
    cursor = acfg.sink
    while cursor != -1:
        path.append(cursor)
        cursor = best_pred[cursor]
    path.reverse()
    if path[0] != acfg.source:
        raise AnalysisError("WCET path does not start at the source")

    on_path = [False] * n
    for rid in path:
        on_path[rid] = True
    n_w = [m if on else 0 for m, on in zip(multiplier, on_path)]
    return PathSolution(
        objective=best[acfg.sink],
        n_w=n_w,
        on_path=on_path,
        path=path,
    )
