"""End-to-end WCET analysis driver.

Composes the pieces the paper's preliminary analysis provides to the
optimizer (Section 4.4 preconditions):

1. cache classification of every reference (must/may abstract
   interpretation, :mod:`repro.cache.classify`),
2. per-reference worst-case memory times ``t_w(r)``,
3. the WCET scenario — execution counts ``n^w`` and the memory
   contribution ``τ^p_w`` (Eqs. 1-3), via the structural solver or the
   explicit ILP.

The result object is the interface the optimizer's joint improvement
criterion (:mod:`repro.core.profit`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.analysis.ipet import solve_ipet
from repro.analysis.slack import rest_instance_spans
from repro.analysis.structural import PathSolution, solve_wcet_path
from repro.analysis.timing import TimingModel
from repro.cache.classify import (
    HIT_RANK,
    PERSISTENT_RANK,
    CacheAnalysis,
    analyze_cache,
    analyze_l2_must,
    l2_guaranteed_hits,
)
from repro.cache.config import CacheConfig
from repro.errors import AnalysisError
from repro.program.acfg import ACFG


def compute_ref_times(
    acfg: ACFG, analysis: CacheAnalysis, timing: TimingModel
) -> List[float]:
    """Per-execution worst-case memory time ``t_w(r)`` for every vertex.

    References classified always-hit cost the hit latency; always-miss
    and not-classified references are conservatively charged the miss
    latency — unless the second-level analysis proved the block resident
    in L2 (``analysis.l2_hits``), in which case the L2 service time
    bounds the worst case.  When the model-checking refinement
    (:mod:`repro.analysis.refine`) ran, ``analysis.classifications``
    already carries its NC->AH promotions, so those references are
    charged the hit latency here — and dropped from the L2 access plan
    — without any special casing.  A software prefetch additionally
    occupies its issue slot (its block transfer is non-blocking and not
    charged here).  Non-reference vertices cost nothing.
    """
    cols = acfg.columns
    hit = analysis.ranks() >= HIT_RANK
    times = np.where(hit, float(timing.hit_cycles), float(timing.miss_cycles))
    if timing.l2_hit_penalty_cycles is not None and analysis.l2_hits:
        l2 = np.zeros(len(acfg), dtype=bool)
        l2[list(analysis.l2_hits)] = True
        times[l2 & ~hit] = float(timing.l2_hit_cycles)
    times[cols.is_prefetch] += float(timing.prefetch_issue_cycles)
    times[~cols.is_ref] = 0.0
    return times.tolist()


@dataclass
class WCETResult:
    """The paper's preliminary-analysis bundle for one program/config.

    Attributes:
        acfg: The analysed ACFG.
        cache: Cache classification results.
        timing: Timing model used.
        t_w: Per-rid per-execution worst-case time.
        solution: WCET path and counts (``n^w``).
        persistent_charged_blocks: Memory blocks classified persistent
            (first-miss) whose one-time miss penalty is charged on top
            of the path objective.  A block already paying a full
            always-miss/not-classified reference on the path is not
            charged again.
    """

    acfg: ACFG
    cache: CacheAnalysis
    timing: TimingModel
    t_w: List[float]
    solution: PathSolution
    persistent_charged_blocks: frozenset = frozenset()
    #: References charged the miss latency by the prefetch-latency
    #: guard: they would hit only thanks to a prefetch issued less than
    #: Λ before them, which the hardware cannot guarantee.
    latency_guarded: frozenset = frozenset()

    @property
    def persistence_penalty(self) -> float:
        """One-time first-miss penalties added to the path objective."""
        return float(
            len(self.persistent_charged_blocks) * self.timing.miss_penalty_cycles
        )

    @property
    def tau_w(self) -> float:
        """``τ^p_w`` (Eq. 3): memory contribution to the WCET."""
        return self.solution.objective + self.persistence_penalty

    def tau_of(self, rid: int) -> float:
        """``τ^p_w(r)`` (Eq. 2): one reference's overall contribution."""
        return self.t_w[rid] * self.solution.n_w[rid]

    def n_w(self, rid: int) -> int:
        """``n^w`` of the basic-block instance holding ``rid``."""
        return self.solution.n_w[rid]

    def on_wcet_path(self, rid: int) -> bool:
        """Whether the vertex lies on the WCET path."""
        return self.solution.on_path[rid]

    @property
    def wcet_path_misses(self) -> int:
        """Worst-case number of demand misses (Condition 2 tracking).

        Counts every always-miss/not-classified reference on the WCET
        path weighted by its execution count, plus one first-miss per
        charged persistent block.  Cached after the first computation.
        """
        cached = getattr(self, "_misses_cache", None)
        if cached is not None:
            return cached
        missing = self.cache.ranks() < HIT_RANK
        if self.latency_guarded:
            missing[list(self.latency_guarded)] = True
        n_w = np.asarray(self.solution.n_w, dtype=np.int64)
        total = len(self.persistent_charged_blocks) + int(
            n_w[missing & self.acfg.columns.is_ref].sum()
        )
        self._misses_cache = total
        return total

    @property
    def wcet_path_l2_hits(self) -> int:
        """Worst-case L1 misses served by the L2 cache (hierarchy mode).

        A subset of :attr:`wcet_path_misses`: these references still
        miss L1 in the worst case but never reach DRAM.  Zero for
        single-level analyses.
        """
        l2_hits = self.cache.l2_hits
        if not l2_hits:
            return 0
        n_w = self.solution.n_w
        return sum(
            n_w[rid]
            for rid in l2_hits
            if n_w[rid] and rid not in self.latency_guarded
        )

    @property
    def wcet_path_fetches(self) -> int:
        """Worst-case number of instruction fetches (prefetches included)."""
        n_w = np.asarray(self.solution.n_w, dtype=np.int64)
        return int(n_w[self.acfg.columns.is_ref].sum())

    @property
    def wcet_miss_rate(self) -> float:
        """Miss rate along the WCET scenario."""
        fetches = self.wcet_path_fetches
        if fetches == 0:
            return 0.0
        return self.wcet_path_misses / fetches


def analyze_wcet(
    acfg: ACFG,
    config: CacheConfig,
    timing: TimingModel,
    backend: str = "structural",
    cache_analysis: Optional[CacheAnalysis] = None,
    with_may: bool = True,
    with_persistence: bool = True,
    locked_blocks: Optional[frozenset] = None,
    hierarchy=None,
    refine: bool = False,
    refine_budget: Optional[int] = None,
) -> WCETResult:
    """Run the full preliminary WCET analysis.

    Args:
        acfg: Program ACFG (built with the cache's block size).
        config: Cache configuration.
        timing: Timing model.
        backend: ``"structural"`` (exact DP, default) or ``"ilp"``
            (scipy/HiGHS IPET; slower, used for cross-validation).
        cache_analysis: Optionally reuse an existing classification
            (``refine`` is then the caller's business: the reused
            classification is taken as-is).
        with_may: Forwarded to :func:`repro.cache.classify.analyze_cache`
            (the WCET bound is identical either way; ``False`` is faster).
        with_persistence: Include the persistence ("first miss") domain.
            ``True`` is the tighter modern baseline; ``False`` is the
            classic must/may baseline of the paper's era — see
            EXPERIMENTS.md for the impact of this choice on the
            reproduced improvement magnitudes.
        locked_blocks: Hybrid locking+prefetching: blocks pinned in
            locked ways (always hit; ``config`` must then be the
            reduced-way residual configuration).
        hierarchy: Optional multi-level
            :class:`~repro.cache.config.HierarchyConfig` (its L1 must
            equal ``config`` and ``timing`` must carry the matching
            ``l2_hit_penalty_cycles``); adds the L2 must fixpoint and
            charges proven L2 hits the L2 service time.
        refine: Run the model-checking refinement
            (:mod:`repro.analysis.refine`) on the ``NOT_CLASSIFIED``
            references and apply its NC->AH / NC->AM promotions before
            computing ``t_w`` — and, in hierarchy mode, before deriving
            the L2 access plan, mirroring the staged pipeline's
            classify -> refine -> l2 order exactly.  Skipped when no
            reference is ``NOT_CLASSIFIED`` (nothing to promote).
        refine_budget: Exploration budget override
            (:data:`repro.analysis.refine.DEFAULT_BUDGET` when ``None``).

    Returns:
        The :class:`WCETResult`.
    """
    if cache_analysis is not None:
        cache = cache_analysis
    elif not refine:
        cache = analyze_cache(
            acfg,
            config,
            with_may=with_may,
            with_persistence=with_persistence,
            locked_blocks=locked_blocks,
            hierarchy=hierarchy,
        )
    else:
        from repro.analysis.refine import (
            apply_promotions,
            explore_concrete_states,
            has_unclassified,
            refine_classifications,
        )

        # Promotions must land before the L2 plan is derived (an NC->AH
        # promotion removes the reference from the L2 access stream),
        # so in hierarchy mode the L1 analysis runs alone, refinement
        # is applied, and the L2 stage re-runs on the refined labels —
        # the exact stage order of the analysis pipeline.
        level2 = hierarchy.l2_level if hierarchy is not None else None
        cache = analyze_cache(
            acfg,
            config,
            # A second level implies the may analysis (see analyze_cache);
            # re-force it here since the L1-only call cannot know.
            with_may=with_may or level2 is not None,
            with_persistence=with_persistence,
            locked_blocks=locked_blocks,
            hierarchy=None,
        )
        # Promotions only ever apply to NOT_CLASSIFIED references, so
        # without one the exploration could not change τ_w.
        if has_unclassified(cache):
            exploration = explore_concrete_states(
                acfg, config, locked_blocks=locked_blocks,
                budget=refine_budget,
            )
            promotions = refine_classifications(
                acfg,
                exploration,
                cache.classifications,
                persistence=level2 is None,
            )
            if promotions:
                cache.classifications = apply_promotions(
                    cache.classifications, promotions
                )
        if level2 is not None:
            if hierarchy.l1 != config:
                raise AnalysisError(
                    f"hierarchy L1 {hierarchy.l1.label()} does not match "
                    f"the analysed configuration {config.label()}"
                )
            cache.l2_must = analyze_l2_must(
                acfg,
                level2.config,
                cache.classifications,
                locked_blocks,
                may=cache.may,
            )
            cache.l2_hits = l2_guaranteed_hits(
                acfg, cache.classifications, cache.l2_must
            )
    t_w = compute_ref_times(acfg, cache, timing)
    guarded = _latency_guard(acfg, cache, timing, t_w)
    for rid in guarded:
        t_w[rid] = float(timing.miss_cycles)
    if backend == "structural":
        solution = solve_wcet_path(acfg, t_w)
    elif backend == "ilp":
        ilp = solve_ipet(acfg, t_w)
        on_path = [count > 0 for count in ilp.n_w]
        solution = PathSolution(
            objective=ilp.objective,
            n_w=ilp.n_w,
            on_path=on_path,
            path=[rid for rid, used in enumerate(on_path) if used],
        )
    else:
        raise AnalysisError(f"unknown WCET backend {backend!r}")
    charged = _charged_persistent_blocks(acfg, cache, solution)
    return WCETResult(
        acfg=acfg,
        cache=cache,
        timing=timing,
        t_w=t_w,
        solution=solution,
        persistent_charged_blocks=charged,
        latency_guarded=guarded,
    )


def prefetch_lambda(cache, timing, prefetch_rid: int, target: int) -> int:
    """Λ of one prefetch: the worst-case cycles until its block lands.

    Single-level: always the DRAM transfer time
    (:attr:`TimingModel.prefetch_latency`).  Multi-level: when the L2
    must state entering the prefetch guarantees the target block is
    resident in L2, the transfer is served by L2 and Λ shrinks to the
    L2 hit penalty — the hierarchy's main effect on placement
    profitability (shorter Λ needs less slack to hide).
    """
    if (
        timing.l2_hit_penalty_cycles is not None
        and cache.l2_must is not None
        and cache.l2_must.contains([prefetch_rid], [target])[0]
    ):
        return timing.l2_hit_penalty_cycles
    return timing.prefetch_latency


def _latency_guard(acfg, cache, timing, t_w, spans=None) -> frozenset:
    """References whose hit classification cannot be guaranteed in time.

    The abstract semantics install a prefetched block immediately; the
    hardware needs Λ cycles.  Any hit-classified reference to a
    prefetched block lying (on some path — minimum slack) closer than Λ
    behind the prefetch is therefore charged the miss latency, covering
    both straight-line and loop-carried (wrap-around) proximity.  This
    is the conservative counterpart of the prefetching-aware abstract
    semantics of the paper's ref. [22].

    All slack queries are answered by one multi-source
    :func:`scipy.sparse.csgraph.dijkstra` pass over the forward DAG,
    each edge weighted by its head vertex's ``t_w``.  The sources are
    the prefetches with a hit use of their target and the entry joins of
    the innermost REST instance holding a prefetch with a wrapped use.
    From a prefetch, ``dist(use) - t_w(use)`` is the straight-line slack
    (:func:`~repro.analysis.slack.min_path_slack`) and the minimum of
    ``dist`` over the instance's latches is the wrap-around tail; from
    the join, ``dist(use) - t_w(use)`` is the head
    (:func:`~repro.analysis.slack.wraparound_slack`).  ``t_w`` holds
    integer cycle counts, so the float sums are exact and the verdicts
    equal the pairwise evaluation.

    Args:
        t_w: Per-rid ``t_w`` before guarding (list or float array).
        spans: The ACFG's :func:`~repro.analysis.slack.rest_instance_spans`
            when the caller has them cached.
    """
    cols = acfg.columns
    prefetches = np.flatnonzero(cols.is_prefetch & (cols.target_block >= 0))
    if not len(prefetches):
        return frozenset()  # data prefetches have no instruction-cache effect
    if spans is None:
        spans = rest_instance_spans(acfg)
    n = len(acfg)
    count = len(prefetches)
    targets = cols.target_block[prefetches]
    # Pair every prefetch with the hit uses of its target block.
    uses = np.flatnonzero(
        (cache.ranks() >= HIT_RANK) & cols.is_ref & ~cols.is_prefetch
    )
    uses = uses[np.argsort(cols.ref_block[uses], kind="stable")]
    use_blocks = cols.ref_block[uses]
    first = np.searchsorted(use_blocks, targets, "left")
    per_row = np.searchsorted(use_blocks, targets, "right") - first
    pair_row = np.repeat(np.arange(count), per_row)
    pair_use = uses[
        np.arange(len(pair_row))
        - np.repeat(np.cumsum(per_row) - per_row - first, per_row)
    ]
    # Straight-line uses lie behind the prefetch; wrapped uses at or
    # before it, inside the innermost REST instance holding it (spans
    # are sorted by entry join, so the last containing one).
    prefetch_list = prefetches.tolist()
    join_of = np.full(count, n)
    exits_of = {}
    for row, rid in enumerate(prefetch_list):
        for join_rid, last_rid, exit_rids in reversed(spans):
            if join_rid <= rid <= last_rid:
                join_of[row] = join_rid
                exits_of[row] = list(exit_rids)
                break
    straight = pair_use > prefetches[pair_row]
    keep = straight | (pair_use >= join_of[pair_row])
    pair_row, pair_use, straight = pair_row[keep], pair_use[keep], straight[keep]
    if not len(pair_row):
        return frozenset()
    active = sorted(set(pair_row.tolist()))
    looped = sorted(set(pair_row[~straight].tolist()))

    tw = np.asarray(t_w, dtype=np.float64)
    latency = np.zeros(count)
    latency[active] = [
        prefetch_lambda(cache, timing, prefetch_list[row], int(targets[row]))
        for row in active
    ]
    sources = np.asarray(sorted(
        {prefetch_list[row] for row in active}
        | {int(join_of[row]) for row in looped}
    ))
    succ_idx = cols.succ_idx.astype(np.int32)
    graph = csr_matrix(
        (np.where(cols.is_ref, tw, 0.0)[succ_idx], succ_idx,
         cols.succ_ptr.astype(np.int32)),
        shape=(n, n),
    )
    # A verdict needs dist(use) < Λ + t_w(use) (the tail and head of a
    # wrap-around are both non-negative), so longer paths may read as
    # infinite: the search stops there.
    dist = dijkstra(
        graph, directed=True, indices=sources,
        limit=float(latency.max()) + float(tw.max()),
    )
    last = len(sources) - 1
    from_prefetch = np.minimum(np.searchsorted(sources, prefetches), last)
    from_join = np.minimum(np.searchsorted(sources, join_of), last)
    # An infinite tail (no latch behind the prefetch) guards nothing.
    tail = np.full(count, np.inf)
    for row in looped:
        tail[row] = dist[from_prefetch[row], exits_of[row]].min()
    use_time = tw[pair_use]
    slack = np.where(
        straight,
        dist[from_prefetch[pair_row], pair_use] - use_time,
        tail[pair_row] + dist[from_join[pair_row], pair_use] - use_time,
    )
    return frozenset(pair_use[slack < latency[pair_row]].tolist())


def _charged_persistent_blocks(acfg, cache, solution) -> frozenset:
    """Blocks owing a one-time first-miss penalty.

    A persistent block is charged when it has an on-path PERSISTENT
    reference and no on-path reference already paying a full miss
    (which would cover the single real miss).
    """
    cols = acfg.columns
    ranks = cache.ranks()
    on_path = cols.is_ref & (np.asarray(solution.n_w) != 0)
    persistent = cols.ref_block[on_path & (ranks == PERSISTENT_RANK)]
    fully_charged = cols.ref_block[on_path & (ranks < HIT_RANK)]
    return frozenset(persistent.tolist()) - frozenset(fully_charged.tolist())
