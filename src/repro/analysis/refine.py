"""Model-checking refinement of ``NOT_CLASSIFIED`` references.

The must/may abstract interpretation (:mod:`repro.cache.classify`)
leaves a reference ``NOT_CLASSIFIED`` whenever neither domain can prove
it: the joins lose correlations between block ages and paths, and WCET
analysis must then assume a miss on every execution.  Touzeau et al.
("Model Checking of Cache for WCET Analysis Refinement") showed these
uncertain references can be decided *exactly* by a focused search of
the reachable states of the CFG x concrete-cache product: if the block
is cached in every reachable state entering the reference, it is an
always-hit; if in none, an always-miss.

This module implements that refinement over the ACFG, reusing
:class:`repro.cache.concrete.ConcreteCache` — the executable ground
truth the differential test layer already checks the abstract analysis
against — as the transition relation.

Design notes:

* **Per-set decomposition.**  LRU sets are independent: an access
  touches only the set its block maps to, so the joint reachable cache
  states project *exactly* onto per-set reachable line sets, and block
  presence (all classification needs) is a per-set property.  Each
  cache set is therefore explored separately, which keeps the visited
  sets exponentially smaller than the joint product while losing no
  precision.

* **State canonicalization.**  A concrete per-set state is canonically
  the MRU-first tuple of cached block ids (exactly
  :meth:`ConcreteCache.set_contents`); the visited sets hash these
  tuples directly.  Transitions are memoized on ``(line, ops)``.

* **Exploration budget.**  The reachable state space is finite but can
  be exponential in pathological programs.  A budget bounds the number
  of newly-reached ``(vertex, line)`` pairs summed over all sets;
  exploration of a set that would exceed it is abandoned and every
  reference mapping to an unexplored set simply *stays*
  ``NOT_CLASSIFIED`` — the sound fallback (the unrefined classification
  is already sound).  Completed sets are kept: their fixpoints do not
  depend on the abandoned ones.

* **Soundness.**  The exploration runs over the same ACFG (same VIVU
  contexts, same analysis-only back edges, same instruction-fetch
  access plan as :func:`repro.cache.classify.propagate`'s default) that
  the abstract domains use, so its reachable-state collecting semantics
  over-approximates exactly the set of concrete executions Theorem 1
  quantifies over.  ``NC -> AH`` (block present in *all* reachable
  in-states) can only lower per-reference worst-case times;
  ``NC -> AM`` never changes them (both are charged the miss latency);
  and ``NC -> PS`` (block present in *some* in-states and never evicted
  by any reachable transition of its set) replaces per-execution miss
  charges with the hit latency plus the per-block one-time first-miss
  penalty — the block is installed by its first miss and, being
  eviction-free, stays resident, so it misses at most once per run,
  which is exactly what :class:`~repro.cache.classify.Classification`'s
  ``PERSISTENT`` charging assumes.  Hence refined WCET <= unrefined
  WCET, and every promotion agrees with exhaustive concrete simulation
  (enforced by tests/test_refine.py).  ``PS`` promotions are only
  emitted for single-level analyses: with a second level the one-time
  penalty is charged at the DRAM rate while the unrefined bound may
  already charge the reference only the L2 service time, so the
  promotion could loosen the bound (callers gate it via
  ``persistence=False``).

* **Cold runs, gated on NC.**  Every exploration starts from the
  source with the full budget, so the outcome (exhaustion included) is
  a function of the ACFG alone; the pipeline caches it per program
  content.  Promotions only ever apply to ``NOT_CLASSIFIED``
  references, so both callers (the pipeline's refine stage and
  ``analyze_wcet(refine=True)``) skip the exploration when the
  classification has none (:func:`has_unclassified`): τ_w is unchanged
  by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.classify import (
    CacheAnalysis,
    Classification,
    classification_rank,
)
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.errors import AnalysisError
from repro.program.acfg import ACFG

#: Default bound on newly-reached ``(vertex, line)`` expansions summed
#: over all cache sets.  Generous for the paper's benchmark sizes;
#: exhaustion is sound (affected references stay ``NOT_CLASSIFIED``).
DEFAULT_BUDGET = 200_000

#: Hard cap on fixpoint passes per cache set.  Unlike the abstract
#: lattices (height bounded by associativity x blocks), the concrete
#: visited sets can deepen by one state per loop closure, so this is
#: deliberately far above :data:`repro.cache.classify.MAX_FIXPOINT_PASSES`;
#: hitting it is treated like budget exhaustion, not a bug.
MAX_EXPLORATION_PASSES = 4096

#: One canonical per-set concrete state: cached block ids, MRU first
#: (the tuple :meth:`ConcreteCache.set_contents` returns).
LineKey = Tuple[int, ...]

#: The visited set of one vertex: every reachable canonical line.
LineSet = FrozenSet[LineKey]


@dataclass
class SetExploration:
    """Converged reachable line sets of one cache set, per vertex.

    ``None`` entries are vertices the exploration never reached (no
    concrete path, matching the abstract domains' unreachable states).
    ``plan`` is the per-vertex op tuple the transitions replayed — kept
    so :func:`refine_classifications` can re-walk every reachable
    transition op by op for the eviction-freedom (persistence) check.
    """

    in_lines: List[Optional[LineSet]]
    out_lines: List[Optional[LineSet]]
    plan: List[Optional[Tuple[Tuple[str, int], ...]]] = field(
        default_factory=list
    )


@dataclass
class RefinementResult:
    """Outcome of one bounded concrete-state exploration.

    The exploration is classification-independent (it walks the same
    default access plan for every run over the same ACFG), so one
    result serves any classification produced for the same
    ``(acfg, config, locked_blocks)`` — promotions are extracted per
    classification by :func:`refine_classifications`.

    Attributes:
        config: Cache configuration explored (defines the set mapping).
        per_set: Completed explorations keyed by cache-set index.  Sets
            abandoned on budget exhaustion are absent; references
            mapping to them keep their unrefined classification.
        explored: Newly-reached ``(vertex, line)`` pairs charged against
            the budget, summed over all sets (including abandoned ones).
        exhausted: True when at least one set was abandoned.
    """

    config: CacheConfig
    per_set: Dict[int, SetExploration] = field(default_factory=dict)
    explored: int = 0
    exhausted: bool = False


def _transition(
    config: CacheConfig,
    set_index: int,
    line: LineKey,
    ops: Tuple[Tuple[str, int], ...],
    memo: Dict[Tuple[LineKey, tuple], LineKey],
) -> LineKey:
    """Apply one vertex's accesses to one canonical line.

    The concrete cache itself is the transition relation: the line is
    rebuilt in a fresh :class:`ConcreteCache` (installing LRU-first
    reproduces the MRU order exactly) and the vertex's demand accesses
    and prefetch installs are replayed through the public API.
    """
    key = (line, ops)
    cached = memo.get(key)
    if cached is not None:
        return cached
    cache = ConcreteCache(config)
    for block in reversed(line):
        cache.install(block)
    for kind, block in ops:
        if kind == "access":
            cache.access(block)
        else:
            cache.install(block)
    result = cache.set_contents(set_index)
    memo[key] = result
    return result


def _explore_set(
    acfg: ACFG,
    config: CacheConfig,
    set_index: int,
    plan: List[Optional[Tuple[Tuple[str, int], ...]]],
    preds: List[tuple],
    back_by_target: Dict[int, List[int]],
    memo: Dict[Tuple[LineKey, tuple], LineKey],
    counters: Dict[str, int],
) -> Optional[SetExploration]:
    """Reachable-line fixpoint of one cache set over the ACFG.

    Mirrors :func:`repro.cache.classify.propagate`: pass 1 is a full
    topological sweep, later passes re-process only vertices whose
    forward or back-edge inputs changed; the join is set union and the
    source enters with the empty (all-invalid) line.

    Returns ``None`` when the budget (or the pass cap) was exceeded.
    """
    n = len(acfg)
    in_lines: List[Optional[LineSet]] = [None] * n
    out_lines: List[Optional[LineSet]] = [None] * n

    source = acfg.source
    initial: LineSet = frozenset({()})
    back_src_changed: Dict[int, bool] = {}

    for pass_count in range(1, MAX_EXPLORATION_PASSES + 1):
        changed = [False] * n
        any_changed = False
        first_pass = pass_count == 1
        for rid in range(n):
            if not first_pass:
                need = any(changed[p] for p in preds[rid]) or any(
                    back_src_changed.get(src, False)
                    for src in back_by_target.get(rid, ())
                )
                if not need:
                    continue
            if rid == source:
                new_in: LineSet = initial
            else:
                contributions = [
                    out_lines[p] for p in preds[rid] if out_lines[p] is not None
                ]
                for src in back_by_target.get(rid, ()):
                    if out_lines[src] is not None:
                        contributions.append(out_lines[src])
                if not contributions:
                    continue  # unreachable this pass (back edge pending)
                new_in = contributions[0]
                for extra in contributions[1:]:
                    new_in = new_in | extra
            if new_in == in_lines[rid]:
                continue  # inputs re-joined to the same visited set
            ops = plan[rid]
            if ops is None:
                new_out = new_in
            else:
                fresh = (
                    len(new_in)
                    if in_lines[rid] is None
                    else len(new_in - in_lines[rid])
                )
                counters["explored"] += fresh
                if counters["explored"] > counters["budget"]:
                    return None
                new_out = frozenset(
                    _transition(config, set_index, line, ops, memo)
                    for line in new_in
                )
            in_lines[rid] = new_in
            any_changed = True
            if new_out != out_lines[rid]:
                changed[rid] = True
                out_lines[rid] = new_out
        back_src_changed = {src: changed[src] for src, _ in acfg.back_edges}
        if not any_changed:
            return SetExploration(in_lines, out_lines, plan)
    return None  # pass cap: treat like budget exhaustion (sound)


def explore_concrete_states(
    acfg: ACFG,
    config: CacheConfig,
    locked_blocks: Optional[frozenset] = None,
    budget: Optional[int] = None,
) -> RefinementResult:
    """Bounded exploration of the ACFG x concrete-cache product.

    Args:
        acfg: The program's ACFG.
        config: L1 cache configuration (defines the set mapping the
            per-set decomposition uses).
        locked_blocks: Blocks pinned in locked ways; like the abstract
            plan, their accesses never touch the explored LRU state.
        budget: Cap on newly-reached ``(vertex, line)`` pairs across all
            sets (:data:`DEFAULT_BUDGET` when ``None``).

    Returns:
        A :class:`RefinementResult`; on budget exhaustion ``exhausted``
        is set and the abandoned sets are simply absent from
        ``per_set`` (their references keep the unrefined labels).
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    locked = locked_blocks or frozenset()
    n = len(acfg)

    # The default instruction-fetch access plan of propagate() — own
    # block, then a prefetch's target — split by the cache set each
    # block maps to.  Ops touching different sets commute, and within a
    # set the plan preserves program order.
    cols = acfg.columns
    rids = np.flatnonzero(cols.is_ref)
    own = cols.ref_block[rids]
    target = cols.target_block[rids]
    own_ok = np.ones(len(rids), dtype=bool)
    target_ok = target >= 0
    if locked:
        own_ok = ~np.isin(own, list(locked))
        target_ok &= ~np.isin(target, list(locked))
    num_sets = config.num_sets
    plans: Dict[int, List[Optional[Tuple[Tuple[str, int], ...]]]] = {}
    for rid, block, block_ok, loaded, loaded_ok in zip(
        rids.tolist(), own.tolist(), own_ok.tolist(), target.tolist(),
        target_ok.tolist(),
    ):
        ops = []
        if block_ok:
            ops.append((block % num_sets, ("access", block)))
        if loaded_ok:
            ops.append((loaded % num_sets, ("install", loaded)))
        for set_index, op in ops:
            plan = plans.get(set_index)
            if plan is None:
                plan = plans[set_index] = [None] * n
            existing = plan[rid]
            plan[rid] = (op,) if existing is None else existing + (op,)

    preds = [acfg.predecessors(rid) for rid in range(n)]
    back_by_target: Dict[int, List[int]] = {}
    for src, dst in acfg.back_edges:
        back_by_target.setdefault(dst, []).append(src)

    memo: Dict[Tuple[LineKey, tuple], LineKey] = {}
    counters = {"explored": 0, "budget": budget}
    result = RefinementResult(config=config)
    for set_index in sorted(plans):
        exploration = _explore_set(
            acfg,
            config,
            set_index,
            plans[set_index],
            preds,
            back_by_target,
            memo,
            counters,
        )
        if exploration is None:
            result.exhausted = True
        else:
            result.per_set[set_index] = exploration
    result.explored = counters["explored"]
    return result


def _evicted_blocks(
    config: CacheConfig, set_index: int, per_set: SetExploration
) -> FrozenSet[int]:
    """Blocks some reachable transition of the set can evict.

    Re-walks every reachable ``(in-line, vertex ops)`` pair op by op —
    a block present before an op and absent after it was evicted by
    that op.  The op granularity matters: a vertex whose access
    installs a block and whose prefetch-install then evicts it again
    would look eviction-free at transition endpoints.
    """
    evicted: set = set()
    memo: Dict[Tuple[LineKey, tuple], FrozenSet[int]] = {}
    for rid, ops in enumerate(per_set.plan):
        if ops is None:
            continue
        lines = per_set.in_lines[rid]
        if not lines:
            continue
        for line in lines:
            key = (line, ops)
            lost = memo.get(key)
            if lost is None:
                cache = ConcreteCache(config)
                for block in reversed(line):
                    cache.install(block)
                previous = frozenset(line)
                losses: set = set()
                for kind, block in ops:
                    if kind == "access":
                        cache.access(block)
                    else:
                        cache.install(block)
                    now = frozenset(cache.set_contents(set_index))
                    losses |= previous - now
                    previous = now
                lost = frozenset(losses)
                memo[key] = lost
            evicted |= lost
    return frozenset(evicted)


def refine_classifications(
    acfg: ACFG,
    exploration: RefinementResult,
    classifications: Sequence[Optional[Classification]],
    persistence: bool = True,
) -> Dict[int, Classification]:
    """Promotions decided by a completed exploration.

    Only ``NOT_CLASSIFIED`` references are considered (the abstract
    labels are already exact for the rest): a block present in *every*
    reachable in-line of its set promotes to ``ALWAYS_HIT``, one
    present in *none* to ``ALWAYS_MISS``, and — when ``persistence``
    is allowed (single-level analyses, see the module soundness note)
    — a block with mixed presence that *no reachable transition of its
    set can evict* promotes to ``PERSISTENT``: its first miss installs
    it for good, so it misses at most once per run, matching the
    layered ``NC < AM < PS < AH`` charging exactly.  References whose
    set was abandoned (budget), or that are concretely unreachable,
    keep the sound ``NOT_CLASSIFIED``.
    """
    config = exploration.config
    promotions: Dict[int, Classification] = {}
    evictions: Dict[int, FrozenSet[int]] = {}
    cols = acfg.columns
    unclassified = [
        rid for rid in np.flatnonzero(cols.is_ref).tolist()
        if classifications[rid] is Classification.NOT_CLASSIFIED
    ]
    blocks = cols.ref_block[unclassified].tolist()
    for rid, block in zip(unclassified, blocks):
        set_index = config.set_index(block)
        per_set = exploration.per_set.get(set_index)
        if per_set is None:
            continue
        lines = per_set.in_lines[rid]
        if not lines:
            continue
        present = sum(1 for line in lines if block in line)
        if present == len(lines):
            promotions[rid] = Classification.ALWAYS_HIT
        elif present == 0:
            promotions[rid] = Classification.ALWAYS_MISS
        elif persistence:
            if set_index not in evictions:
                evictions[set_index] = _evicted_blocks(
                    config, set_index, per_set
                )
            if block not in evictions[set_index]:
                promotions[rid] = Classification.PERSISTENT
    return promotions


def has_unclassified(cache: CacheAnalysis) -> bool:
    """Whether any reference of ``cache`` is ``NOT_CLASSIFIED`` — the
    only references a refinement can promote."""
    nc = classification_rank(Classification.NOT_CLASSIFIED)
    return bool((cache.ranks() == nc).any())


def apply_promotions(
    classifications: Sequence[Optional[Classification]],
    promotions: Dict[int, Classification],
) -> List[Optional[Classification]]:
    """A new classification list with the promotions applied.

    Promotions may only strengthen: the current label must be
    ``NOT_CLASSIFIED`` and the promoted one must sit strictly higher in
    the layered :data:`repro.cache.classify.CLASSIFICATION_LAYERS`
    order the dense kernel's gather arrays assume.  Model checking can
    conclude ``ALWAYS_HIT``, ``ALWAYS_MISS``, or (for single-level
    analyses) the eviction-freedom form of ``PERSISTENT``.
    """
    refined = list(classifications)
    for rid, label in promotions.items():
        current = refined[rid]
        if current is not Classification.NOT_CLASSIFIED:
            raise AnalysisError(
                f"refinement may only promote NOT_CLASSIFIED references; "
                f"vertex {rid} is {current}"
            )
        if label not in (
            Classification.ALWAYS_HIT,
            Classification.ALWAYS_MISS,
            Classification.PERSISTENT,
        ) or classification_rank(label) <= classification_rank(current):
            raise AnalysisError(
                f"invalid refinement promotion {current} -> {label} "
                f"at vertex {rid}"
            )
        refined[rid] = label
    return refined
