"""Staged WCET analysis with memoised transfers (the analysis pipeline).

:func:`repro.analysis.wcet.analyze_wcet` recomputes everything from the
CFG on every call.  That is the right interface for one-shot analyses,
but the optimizer's loop calls it once per candidate insertion and most
of the transfer work is identical between calls: abstract states along
the regions the insertion left unchanged.  :class:`AnalysisPipeline`
runs the analysis as named stages and memoises that transfer work:

1. **ACFG** — a candidate that differs from its base by one prefetch
   insertion gets its ACFG spliced from the base's
   (:func:`~repro.program.acfg.splice_prefetch`) instead of
   re-expanded; every other program is built with
   :func:`~repro.program.acfg.build_acfg`.
2. **Hash-consed abstract states** — a per-domain
   :class:`TransferCache` interns every
   :class:`~repro.cache.abstract.AbstractCacheState` it produces and
   memoizes ``update``/``join``/``unknown_access`` by value, so the
   fixpoint engine never recomputes a transfer it has already seen —
   across candidates, passes, and use-case phases.
3. **Cold stages** — every analysis runs the fixpoint, classify,
   refine, l2, guard and ipet stages from scratch on its (possibly
   spliced) ACFG, so a candidate's result is the same computation
   :func:`~repro.analysis.wcet.analyze_wcet` performs on a fresh
   :func:`~repro.program.acfg.build_acfg`.  Reuse across analyses
   comes from the memos alone: the :class:`TransferCache` of the
   python kernel and the :class:`~repro.cache.kernel.SegmentMemo` of
   the vectorized kernel replay every transfer or chain whose inputs
   were seen before.  The latency guard answers all of its slack
   queries in one batched shortest-path pass per analysis.

Memo counters (hits/misses/invalidations) and per-stage wall-clock
accumulate in :class:`PipelineStats`; the counters are deterministic
(pure functions of the analysis sequence) and flow into
:class:`~repro.core.optimizer.OptimizationReport`, sweep metrics and the
service's telemetry, while the wall-clock profile stays out of
serialized reports (see ``repro optimize --profile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.refine import (
    RefinementResult,
    apply_promotions,
    explore_concrete_states,
    has_unclassified,
    refine_classifications,
)
from repro.analysis.slack import rest_instance_spans
from repro.analysis.structural import solve_wcet_path
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import (
    WCETResult,
    _charged_persistent_blocks,
    _latency_guard,
    compute_ref_times,
)
from repro.cache.abstract import MayState, MustState
from repro.cache.classify import (
    CacheAnalysis,
    DataflowResult,
    analyze_l2_must,
    classifications_from_ranks,
    classify_references,
    l2_guaranteed_hits,
    propagate,
)
from repro.cache.config import CacheConfig, HierarchyConfig, hierarchy_for
from repro.cache.kernel import (
    BlockUniverse,
    KernelSchedule,
    SegmentMemo,
    dense_classification_ranks,
    propagate_kernel_batch,
    resolve_kernel,
)
from repro.cache.persistence import PersistenceState
from repro.errors import AnalysisError
from repro.obs.trace import active_tracer
from repro.program.acfg import ACFG, build_acfg, splice_prefetch
from repro.program.cfg import ControlFlowGraph


@dataclass
class PipelineStats:
    """Memo counters and stage timings of one :class:`AnalysisPipeline`.

    All counters are deterministic functions of the analysis sequence
    (no wall-clock, no memory addresses), so they can be embedded in
    serialized reports and compared across serial/parallel runs.  The
    wall-clock numbers live only in :attr:`stage_seconds` and are
    surfaced separately (``--profile``).
    """

    # Not in counters(): perfbench/layers.py sums these three by name.
    result_hits: int = 0
    structural_hits: int = 0
    structural_misses: int = 0
    transfer_hits: int = 0
    transfer_misses: int = 0
    kernel_segment_hits: int = 0
    kernel_segment_misses: int = 0
    invalidations: int = 0
    refine_runs: int = 0
    refine_promotions: int = 0
    refine_states: int = 0
    refine_exhausted: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock into one stage bucket."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def counters(self) -> Dict[str, int]:
        """Deterministic counter snapshot (safe to serialize in reports)."""
        data = {
            "transfer_hits": self.transfer_hits,
            "transfer_misses": self.transfer_misses,
            "kernel_segment_hits": self.kernel_segment_hits,
            "kernel_segment_misses": self.kernel_segment_misses,
            "invalidations": self.invalidations,
        }
        # The refinement counters join the snapshot only when the stage
        # ran, so every refine-off report stays byte-identical to the
        # pre-refinement serialization (mirroring the l2 treatment of
        # the service protocol's canonical params).
        if self.refine_runs:
            data["refine_runs"] = self.refine_runs
            data["refine_promotions"] = self.refine_promotions
            data["refine_states"] = self.refine_states
            data["refine_exhausted"] = self.refine_exhausted
        return data

    def profile(self) -> Dict[str, float]:
        """Per-stage wall-clock snapshot (never serialized into reports)."""
        return dict(self.stage_seconds)


class _StageTimer:
    """Span-backed stage clock: the one timing source for the pipeline.

    Wraps a ``pipeline.<stage>`` span (``timed=True``, so a real clock
    exists even with tracing off; ``aggregate=True``, so sinks fold the
    hundreds of per-candidate occurrences into one statistical span per
    parent) and folds its duration into ``stats.stage_seconds`` on exit
    — ``--profile`` and exported traces therefore always agree.
    """

    __slots__ = ("stats", "stage", "span")

    def __init__(self, stats: PipelineStats, stage: str):
        self.stats = stats
        self.stage = stage
        self.span = active_tracer().start_span(
            "pipeline." + stage, timed=True, aggregate=True
        )

    def __enter__(self):
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        if exc_type is not None:
            span.set_status("error", f"{exc_type.__name__}: {exc}")
        span.end()
        self.stats.add_time(self.stage, span.duration_s)
        return False


class TransferCache:
    """Hash-consing interner + transfer memos for one abstract domain.

    ``update``/``join``/``unknown`` are pure functions of immutable
    states, so memoizing them by value is exact.  Results are interned,
    which (a) dedupes state memory and (b) makes the value-keyed memo
    lookups cheap: interned keys hit the ``__eq__`` identity fast path.
    When the combined tables exceed ``max_entries`` everything is
    cleared at once (counted as an invalidation) — correctness never
    depends on residency.

    Plugs into :func:`repro.cache.classify.propagate` via its
    ``transfer`` parameter.
    """

    __slots__ = ("stats", "max_entries", "_intern", "_update", "_join",
                 "_unknown")

    def __init__(self, stats: PipelineStats, max_entries: int = 200_000):
        self.stats = stats
        self.max_entries = max_entries
        self._intern: Dict[Any, Any] = {}
        self._update: Dict[Tuple[Any, int], Any] = {}
        self._join: Dict[Tuple[Any, Any], Any] = {}
        self._unknown: Dict[Any, Any] = {}

    def intern(self, state):
        """The canonical object for ``state``'s value."""
        canonical = self._intern.get(state)
        if canonical is None:
            self._intern[state] = state
            canonical = state
        return canonical

    def update(self, state, block: int):
        """Memoized ``state.update(block)``."""
        key = (state, block)
        hit = self._update.get(key)
        if hit is not None:
            self.stats.transfer_hits += 1
            return hit
        self.stats.transfer_misses += 1
        result = self.intern(state.update(block))
        self._update[key] = result
        self._maybe_clear()
        return result

    def join(self, a, b):
        """Memoized ``a.join(b)``."""
        key = (a, b)
        hit = self._join.get(key)
        if hit is not None:
            self.stats.transfer_hits += 1
            return hit
        self.stats.transfer_misses += 1
        result = self.intern(a.join(b))
        self._join[key] = result
        self._maybe_clear()
        return result

    def unknown(self, state):
        """Memoized ``state.unknown_access()``."""
        hit = self._unknown.get(state)
        if hit is not None:
            self.stats.transfer_hits += 1
            return hit
        self.stats.transfer_misses += 1
        result = self.intern(state.unknown_access())
        self._unknown[state] = result
        self._maybe_clear()
        return result

    def _maybe_clear(self) -> None:
        total = (
            len(self._intern) + len(self._update) + len(self._join)
            + len(self._unknown)
        )
        if total > self.max_entries:
            self._intern.clear()
            self._update.clear()
            self._join.clear()
            self._unknown.clear()
            self.stats.invalidations += 1


@dataclass
class StructuralArtifacts:
    """Stage-1 products: everything derivable from the CFG alone."""

    acfg: ACFG
    #: REST instance spans ``(entry_join, last_rid, exit_rids)`` — the
    #: optimizer's loop ranges and the latency guard's wrap-around scopes.
    loop_spans: List[Tuple[int, int, Tuple[int, ...]]]
    #: Lazily compiled :class:`~repro.cache.kernel.KernelSchedule` of the
    #: vectorized kernel (``None`` until first dense analysis, or when
    #: the pipeline runs the python kernel).  Invalidated implicitly
    #: when the pipeline's block universe is rebuilt (the schedule keeps
    #: a reference to the universe it was compiled against).
    schedule: Optional[KernelSchedule] = None


class PipelineResult:
    """One analysis run: the WCET bundle and its structural artifacts.

    Also carries the optimizer's per-pass derived artifacts
    (:meth:`reverse_events`, :meth:`exec_counts`, :meth:`miss_uses`)
    lazily, so ``_run_pass`` stops recomputing them per pass.

    ``owner`` is the pipeline that produced the result.  The pipeline
    keeps no reference to its results, so there is no cycle.
    """

    __slots__ = ("owner", "artifacts", "wcet", "with_may", "locked_blocks",
                 "_reverse_events", "_exec_counts", "_miss_uses")

    def __init__(self, owner, artifacts, wcet, with_may, locked_blocks):
        self.owner = owner
        self.artifacts = artifacts
        self.wcet = wcet
        self.with_may = with_may
        self.locked_blocks = locked_blocks
        self._reverse_events = None
        self._exec_counts = None
        self._miss_uses = None

    @property
    def acfg(self) -> ACFG:
        """The analysed ACFG."""
        return self.artifacts.acfg

    def loop_ranges(self) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
        """``{entry_join: (last_rid, exit_rids)}`` from the loop spans."""
        return {
            join: (last, exits)
            for join, last, exits in self.artifacts.loop_spans
        }

    def reverse_events(self):
        """Cached replacement events of the WCET path (Property 3)."""
        if self._reverse_events is None:
            from repro.core.update import collect_reverse_events

            self._reverse_events = collect_reverse_events(
                self.artifacts.acfg,
                self.wcet.cache.config,
                self.wcet.solution,
                locked_blocks=self.locked_blocks,
            )
        return self._reverse_events

    def exec_counts(self) -> Dict[int, int]:
        """Cached per-instruction-uid WCET execution counts."""
        if self._exec_counts is None:
            counts: Dict[int, int] = {}
            n_w = self.wcet.solution.n_w
            for vertex in self.artifacts.acfg.ref_vertices():
                counts[vertex.instr.uid] = (
                    counts.get(vertex.instr.uid, 0) + n_w[vertex.rid]
                )
            self._exec_counts = counts
        return self._exec_counts

    def miss_uses(self) -> Dict[int, List[int]]:
        """Per memory block: sorted rids of on-path references still
        paying for a miss — the misses a prefetch could preclude."""
        if self._miss_uses is None:
            uses: Dict[int, List[int]] = {}
            acfg = self.artifacts.acfg
            n_w = self.wcet.solution.n_w
            for vertex in acfg.ref_vertices():
                rid = vertex.rid
                if n_w[rid] == 0:
                    continue
                if self.wcet.cache.classification(rid).is_always_hit:
                    continue
                uses.setdefault(acfg.block_of(rid), []).append(rid)
            self._miss_uses = uses
        return self._miss_uses


class AnalysisPipeline:
    """Staged WCET analysis for one (config, timing) context.

    One pipeline serves one use case: the cache configuration, timing
    model, persistence setting, locked blocks and base address are fixed
    at construction so every memo entry is valid for every call.
    Not thread-safe; sweep workers build one per use case.

    Args:
        config: Cache configuration.
        timing: Timing model.
        with_persistence: Run the persistence domain (must match the
            optimizer options the pipeline is used with).
        locked_blocks: Hybrid-locking pinned blocks.
        base_address: Program load address.
        stats: Optionally share a :class:`PipelineStats` instance.
        kernel: Abstract-domain implementation: ``"python"`` (the
            verified oracle), ``"vectorized"`` (the dense numpy kernel,
            bit-identical by the differential suite), or ``None`` to
            follow ``REPRO_CACHE_KERNEL`` (default ``vectorized``).
        hierarchy: Optional multi-level
            :class:`~repro.cache.config.HierarchyConfig`; its L1 must
            equal ``config``.  Adds an L2 must stage
            (:func:`~repro.cache.classify.analyze_l2_must` over the
            classification-filtered stream on the pipeline's kernel)
            after classification.  ``None`` keeps the single-level
            analysis bit-identical to before.
        refine: Run the model-checking refinement
            (:mod:`repro.analysis.refine`) after classification and
            apply its NC->AH / NC->AM promotions before the L2, guard
            and IPET stages.  The exploration runs only when some
            reference is ``NOT_CLASSIFIED``, and then cold, like every
            stage.
            ``False`` keeps every output byte-identical to before.
        refine_budget: Exploration budget override for the refinement
            (:data:`repro.analysis.refine.DEFAULT_BUDGET` when ``None``).
    """

    def __init__(
        self,
        config: CacheConfig,
        timing: TimingModel,
        with_persistence: bool = True,
        locked_blocks: frozenset = frozenset(),
        base_address: int = 0,
        stats: Optional[PipelineStats] = None,
        kernel: Optional[str] = None,
        hierarchy: Optional[HierarchyConfig] = None,
        refine: bool = False,
        refine_budget: Optional[int] = None,
    ):
        self.config = config
        self.timing = timing
        self.with_persistence = with_persistence
        self.locked_blocks = frozenset(locked_blocks or ())
        self.base_address = base_address
        self.stats = stats if stats is not None else PipelineStats()
        self.kernel = resolve_kernel(kernel)
        self.refine = bool(refine)
        self.refine_budget = refine_budget
        if hierarchy is not None and hierarchy.l1 != config:
            raise AnalysisError(
                f"hierarchy L1 {hierarchy.l1.label()} does not match the "
                f"pipeline configuration {config.label()}"
            )
        self.hierarchy = hierarchy
        self._transfer: Dict[str, TransferCache] = {
            "must": TransferCache(self.stats),
            "may": TransferCache(self.stats),
            "persistence": TransferCache(self.stats),
            "l2-must": TransferCache(self.stats),
        }
        #: Vectorized-kernel state: one block universe shared by every
        #: schedule/dense matrix of this pipeline (rebuilt with headroom
        #: when a program outgrows it) and segment memos keyed by
        #: (domain batch, segment ops, in-state bytes) — one for L1, one
        #: for the L2 must stage, whose op bytes mean a different
        #: transfer under the L2's geometry.
        self._universe: Optional[BlockUniverse] = None
        self._segment_memo = SegmentMemo(stats=self.stats)
        self._l2_segment_memo = SegmentMemo(stats=self.stats)

    @classmethod
    def for_options(cls, config: CacheConfig, timing: TimingModel, options,
                    **kwargs) -> "AnalysisPipeline":
        """A pipeline matching an :class:`~repro.core.optimizer.OptimizerOptions`."""
        l2_spec = getattr(options, "l2", None)
        return cls(
            config,
            timing,
            with_persistence=options.with_persistence,
            locked_blocks=options.locked_blocks,
            base_address=options.base_address,
            kernel=getattr(options, "kernel", None),
            hierarchy=hierarchy_for(config, l2_spec) if l2_spec else None,
            refine=bool(getattr(options, "refine", False)),
            **kwargs,
        )

    def matches_options(self, options) -> bool:
        """Whether this pipeline's fixed context agrees with ``options``."""
        l2_spec = getattr(options, "l2", None)
        wanted = hierarchy_for(self.config, l2_spec) if l2_spec else None
        return (
            self.with_persistence == options.with_persistence
            and self.locked_blocks == frozenset(options.locked_blocks or ())
            and self.base_address == options.base_address
            and self.kernel == resolve_kernel(getattr(options, "kernel", None))
            and self.hierarchy == wanted
            and self.refine == bool(getattr(options, "refine", False))
        )

    # ------------------------------------------------------------------
    # the staged analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        cfg: ControlFlowGraph,
        with_may: bool = True,
        base: Optional[PipelineResult] = None,
        inserted: Optional[Tuple[str, int]] = None,
    ) -> PipelineResult:
        """Analyse ``cfg``; every stage runs, replaying memoised transfers.

        Args:
            cfg: The program.
            with_may: Run the may domain (as in :func:`analyze_wcet`).
            base: A previous result *from this pipeline* — the analysis
                of the program this ``cfg`` was derived from by one
                prefetch insertion.
            inserted: ``(block_name, index)`` of that insertion, when
                ``cfg`` is exactly ``base``'s program plus one prefetch
                there: the ACFG is then spliced from ``base``'s
                (:func:`~repro.program.acfg.splice_prefetch`) instead of
                being rebuilt.

        Returns:
            A :class:`PipelineResult` whose ``wcet`` is bit-identical to
            a fresh :func:`~repro.analysis.wcet.analyze_wcet` call.
        """
        if base is not None and base.owner is not self:
            base = None  # a foreign pipeline's ACFG is not ours to splice
        if base is None:
            inserted = None
        artifacts = self._structural_stage(cfg, base, inserted)
        acfg = artifacts.acfg

        level2 = self.hierarchy.l2_level if self.hierarchy is not None else None
        domains = ["must"]
        # A second level implies the may domain: the L2 access plan's
        # definite accesses are the L1 always-misses (see
        # classify.l2_access_plan), so the fixpoint must have may even
        # in the optimizer's must-only hot loop — and the plan (hence
        # τ_w) stays identical across the caller's with_may choices.
        if with_may or level2 is not None:
            domains.append("may")
        if self.with_persistence:
            domains.append("persistence")
        with self._stage("fixpoint") as fixpoint_span:
            seg_hits = self.stats.kernel_segment_hits
            seg_misses = self.stats.kernel_segment_misses
            if self.kernel == "vectorized":
                # All domains in one stacked walk: one schedule
                # traversal and one memo probe per segment for the batch.
                dataflows = propagate_kernel_batch(
                    self._schedule_for(artifacts), domains,
                    memo=self._segment_memo,
                )
            else:
                dataflows = {
                    domain: self._dataflow_stage(artifacts, domain)
                    for domain in domains
                }
            if fixpoint_span.recording and self.kernel == "vectorized":
                fixpoint_span.set_attributes(
                    {
                        "kernel_segment_hits": self.stats.kernel_segment_hits
                        - seg_hits,
                        "kernel_segment_misses": self.stats.kernel_segment_misses
                        - seg_misses,
                    }
                )

        with self._stage("classify"):
            locked = self.locked_blocks or None
            ranks = None
            if self.kernel == "vectorized":
                ranks = dense_classification_ranks(
                    acfg,
                    dataflows["must"],
                    dataflows.get("may"),
                    dataflows.get("persistence"),
                    locked,
                    schedule=artifacts.schedule,
                )
                classifications = classifications_from_ranks(ranks)
            else:
                classifications = classify_references(
                    acfg,
                    dataflows["must"],
                    dataflows.get("may"),
                    dataflows.get("persistence"),
                    locked,
                )
            cache_analysis = CacheAnalysis(
                self.config,
                classifications,
                dataflows["must"],
                dataflows.get("may"),
                dataflows.get("persistence"),
            )
            if ranks is not None:
                cache_analysis.seed_ranks(ranks)

        if self.refine:
            with self._stage("refine") as refine_span:
                self.stats.refine_runs += 1
                # Promotions only ever apply to NOT_CLASSIFIED
                # references: without one there is nothing to explore.
                if has_unclassified(cache_analysis):
                    exploration = self._refine_stage(artifacts)
                    # PS promotions would charge the one-time penalty at
                    # the DRAM rate; with an L2 the unrefined bound can
                    # be tighter (L2 service time), so they are
                    # single-level only (see the refine module's
                    # soundness note).
                    promotions = refine_classifications(
                        acfg,
                        exploration,
                        classifications,
                        persistence=level2 is None,
                    )
                    self.stats.refine_promotions += len(promotions)
                    if exploration.exhausted:
                        self.stats.refine_exhausted += 1
                    if promotions:
                        classifications = apply_promotions(
                            classifications, promotions
                        )
                        cache_analysis.classifications = classifications
                    if refine_span.recording:
                        refine_span.set_attributes(
                            {
                                "promotions": len(promotions),
                                "states": exploration.explored,
                                "exhausted": exploration.exhausted,
                            }
                        )

        if level2 is not None:
            with self._stage("l2"):
                l2_must = self._l2_stage(
                    artifacts, classifications, level2.config,
                    dataflows.get("may"),
                )
                cache_analysis.l2_must = l2_must
                cache_analysis.l2_hits = l2_guaranteed_hits(
                    acfg, classifications, l2_must
                )

        with self._stage("guard"):
            t_w = compute_ref_times(acfg, cache_analysis, self.timing)
            guarded = _latency_guard(
                acfg, cache_analysis, self.timing, t_w, artifacts.loop_spans
            )
            for rid in guarded:
                t_w[rid] = float(self.timing.miss_cycles)

        with self._stage("ipet"):
            solution = solve_wcet_path(acfg, t_w)
            charged = _charged_persistent_blocks(acfg, cache_analysis, solution)
            wcet = WCETResult(
                acfg=acfg,
                cache=cache_analysis,
                timing=self.timing,
                t_w=t_w,
                solution=solution,
                persistent_charged_blocks=charged,
                latency_guarded=guarded,
            )

        return PipelineResult(
            owner=self,
            artifacts=artifacts,
            wcet=wcet,
            with_may=bool(with_may),
            locked_blocks=locked,
        )

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _stage(self, name: str) -> _StageTimer:
        return _StageTimer(self.stats, name)

    def _structural_stage(
        self,
        cfg: ControlFlowGraph,
        base: Optional[PipelineResult] = None,
        inserted: Optional[Tuple[str, int]] = None,
    ) -> StructuralArtifacts:
        self.stats.structural_misses += 1
        with self._stage("acfg"):
            if inserted is not None:
                acfg = splice_prefetch(base.artifacts.acfg, cfg, *inserted)
            else:
                acfg = build_acfg(cfg, self.config.block_size, self.base_address)
            artifacts = StructuralArtifacts(
                acfg=acfg, loop_spans=rest_instance_spans(acfg)
            )
            if self.kernel == "vectorized":
                # Schedule compilation is structural work (per program,
                # domain-independent), so it rides the acfg stage.
                self._schedule_for(artifacts)
        return artifacts

    def _initial_state(self, domain: str):
        if domain == "must":
            return MustState(self.config)
        if domain == "may":
            return MayState(self.config)
        if domain == "persistence":
            return PersistenceState(self.config)
        raise AnalysisError(f"unknown abstract domain {domain!r}")

    def _dataflow_stage(
        self,
        artifacts: StructuralArtifacts,
        domain: str,
    ) -> DataflowResult:
        transfer = self._transfer[domain]
        return propagate(
            artifacts.acfg,
            self.config,
            transfer.intern(self._initial_state(domain)),
            locked_blocks=self.locked_blocks or None,
            transfer=transfer,
        )

    def _l2_stage(
        self,
        artifacts: StructuralArtifacts,
        classifications,
        l2_config: CacheConfig,
        may: Optional[DataflowResult],
    ) -> DataflowResult:
        """The L2 must fixpoint over the classification-filtered stream.

        :func:`~repro.cache.classify.analyze_l2_must` on the pipeline's
        kernel: the vectorized one replays the L2 plan on the segments
        of the program's L1 schedule, with the L2 segment memo; the
        python one runs the oracle with the ``l2-must`` transfer cache.
        The plan is derived from the kernel-independent L1
        classification and may states, so the result is identical.
        """
        return analyze_l2_must(
            artifacts.acfg,
            l2_config,
            classifications,
            locked_blocks=self.locked_blocks or None,
            transfer=self._transfer["l2-must"],
            may=may,
            kernel=self.kernel,
            schedule=(
                self._schedule_for(artifacts)
                if self.kernel == "vectorized" else None
            ),
            memo=self._l2_segment_memo,
        )

    def _refine_stage(self, artifacts: StructuralArtifacts) -> RefinementResult:
        """The bounded concrete-state exploration of one program."""
        result = explore_concrete_states(
            artifacts.acfg,
            self.config,
            locked_blocks=self.locked_blocks or None,
            budget=self.refine_budget,
        )
        self.stats.refine_states += result.explored
        return result

    def _schedule_for(self, artifacts: StructuralArtifacts) -> KernelSchedule:
        """The compiled schedule of one ACFG against the live universe.

        Compiles optimistically against the current universe — the
        compiler's own column-range check doubles as the coverage probe,
        so the common candidate path skips the per-call block scan.  A
        program outgrowing the universe raises, and only then is the
        universe regrown (with headroom) and the schedule recompiled.
        """
        schedule = artifacts.schedule
        universe = self._universe
        if schedule is not None and schedule.universe is universe:
            return schedule
        if universe is not None:
            try:
                schedule = KernelSchedule(
                    artifacts.acfg, universe, self.locked_blocks
                )
                artifacts.schedule = schedule
                return schedule
            except AnalysisError:
                pass  # outgrown: rebuild below
        universe = self._ensure_universe(artifacts.acfg)
        schedule = KernelSchedule(artifacts.acfg, universe, self.locked_blocks)
        artifacts.schedule = schedule
        return schedule

    def _ensure_universe(self, acfg: ACFG) -> BlockUniverse:
        """The pipeline's block universe, grown to cover ``acfg``.

        Rebuilding (a program referencing blocks outside the current
        range) clears both segment memos — dense rows of another block
        range are incomparable — and counts as an invalidation.  The headroom
        absorbs the small upward block drift of candidate programs (each
        prefetch insertion shifts later addresses by one instruction).
        """
        probe = BlockUniverse.for_acfg(acfg, self.config)
        current = self._universe
        if current is not None and current.covers(probe.base_block) and (
            current.covers(probe.base_block + probe.width - 1)
        ):
            return current
        lo = probe.base_block
        hi = probe.base_block + probe.width - 1
        if current is not None:
            lo = min(lo, current.base_block)
            hi = max(hi, current.base_block + current.width - 1)
        universe = BlockUniverse(self.config, lo, hi - lo + 1 + 32)
        self._universe = universe
        self._segment_memo.clear()
        self._l2_segment_memo.clear()
        if current is not None:
            self.stats.invalidations += 1
        return universe
