"""Spliced candidate ACFGs and the batched latency guard.

The optimizer derives every candidate's ACFG from the accepted
program's by :func:`~repro.program.acfg.splice_prefetch` and answers the
latency guard's slack queries in one shortest-path pass.  Both must be
invisible in the results:

* the spliced ACFG equals ``build_acfg`` of the candidate program on
  every column and back edge, and its lazily materialized vertices are
  equal too;
* :func:`~repro.analysis.wcet._latency_guard` equals a pairwise
  ``min_path_slack``/``wraparound_slack`` oracle.

Tier-1 checks every candidate the optimizer evaluates on ndes, cover
and whet at k1 plus a property over generated programs; the slow tier
covers all programs under both kernels, and with an L2 and refinement.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.slack import (
    min_path_slack,
    rest_instance_spans,
    wraparound_slack,
)
from repro.analysis.wcet import _latency_guard, compute_ref_times, prefetch_lambda
from repro.bench.generator import random_program
from repro.bench.registry import load, program_names
from repro.cache.classify import analyze_cache
from repro.cache.config import TABLE2, CacheConfig, hierarchy_for
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.technology import technology
from repro.errors import ProgramModelError
from repro.program.acfg import ACFGColumns, build_acfg, splice_prefetch

L2_SPEC = "4:16:4096:6"


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def assert_same_acfg(spliced, fresh):
    """Column-, back-edge- and vertex-level equality."""
    for field in fields(ACFGColumns):
        got = getattr(spliced.columns, field.name)
        want = getattr(fresh.columns, field.name)
        assert got.dtype == want.dtype, field.name
        assert np.array_equal(got, want), field.name
    assert spliced.back_edges == fresh.back_edges
    assert spliced.contexts == fresh.contexts
    assert spliced.vertices == fresh.vertices
    assert spliced.layout.addresses() == fresh.layout.addresses()
    assert spliced.memory_map.blocks() == fresh.memory_map.blocks()


def oracle_guard(acfg, cache, timing, t_w) -> frozenset:
    """The latency guard evaluated pair by pair."""
    spans = rest_instance_spans(acfg)
    uses: dict = {}
    for vertex in acfg.ref_vertices():
        if not vertex.is_prefetch and cache.classification(vertex.rid).is_hit:
            uses.setdefault(acfg.block_of(vertex.rid), []).append(vertex.rid)
    guarded = set()
    for vertex in acfg.ref_vertices():
        target = acfg.target_block_or_none(vertex.rid)
        if not vertex.is_prefetch or target is None:
            continue
        rid = vertex.rid
        latency = prefetch_lambda(cache, timing, rid, target)
        span = next(
            (s for s in reversed(spans) if s[0] <= rid <= s[1]), None
        )
        for use in uses.get(target, ()):
            if use > rid:
                slack = min_path_slack(acfg, t_w, rid, use)
            elif span is not None and use >= span[0]:
                slack = wraparound_slack(acfg, t_w, rid, use, span[0], span[2])
            else:
                continue
            if slack < latency:
                guarded.add(use)
    return frozenset(guarded)


def check_guard(acfg, cache, timing, expected=None) -> None:
    t_w = compute_ref_times(acfg, cache, timing)
    batched = _latency_guard(acfg, cache, timing, t_w)
    assert batched == oracle_guard(acfg, cache, timing, t_w)
    if expected is not None:
        assert batched == expected


# ----------------------------------------------------------------------
# every candidate of an optimizer run
# ----------------------------------------------------------------------
def timing_for(config, l2=None):
    return hierarchy_model(
        hierarchy_for(config, l2), technology("45nm")
    ).timing


def run_checked(monkeypatch, program, config, options):
    """Optimize ``program``; check every spliced candidate on the fly.

    Returns the number of candidates checked.
    """
    timing = timing_for(config, options.l2)
    original = AnalysisPipeline.analyze
    checked = []

    def analyze(self, cfg, with_may=True, base=None, inserted=None):
        result = original(
            self, cfg, with_may=with_may, base=base, inserted=inserted
        )
        if inserted is None:
            return result
        spliced = result.acfg
        fresh = build_acfg(cfg, config.block_size, options.base_address)
        assert_same_acfg(spliced, fresh)
        assert splice_prefetch(base.acfg, cfg, *inserted).vertices == (
            fresh.vertices
        )
        check_guard(spliced, result.wcet.cache, timing,
                    result.wcet.latency_guarded)
        checked.append(inserted)
        return result

    monkeypatch.setattr(AnalysisPipeline, "analyze", analyze)
    optimize(load(program), config, timing, options=options)
    return len(checked)


# The kernel follows REPRO_CACHE_KERNEL (vectorized when unset); CI runs
# this suite once per kernel.
@pytest.mark.parametrize("program", ["ndes", "cover", "whet"])
def test_optimizer_candidates_k1(monkeypatch, program):
    assert run_checked(
        monkeypatch, program, TABLE2["k1"], OptimizerOptions()
    ) > 0


@pytest.mark.slow
@pytest.mark.parametrize("hierarchy", [False, True])
@pytest.mark.parametrize("program", program_names())
def test_all_programs(monkeypatch, program, hierarchy):
    options = OptimizerOptions(
        with_persistence=not hierarchy,
        l2=L2_SPEC if hierarchy else None,
        refine=hierarchy,
        max_evaluations=60,
    )
    config = TABLE2["k15" if hierarchy else "k1"]
    run_checked(monkeypatch, program, config, options)


# ----------------------------------------------------------------------
# generated programs, random insertion points
# ----------------------------------------------------------------------
CONFIG = CacheConfig(1, 16, 256)
TIMING = timing_for(CONFIG)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    picks=st.lists(
        st.tuples(
            st.integers(0, 10_000),
            st.sampled_from(["first", "last", "any"]),
            st.integers(0, 10_000),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_random_insertions(seed, picks):
    cfg = random_program(seed, target_size=100)
    base = build_acfg(cfg, CONFIG.block_size)
    for block_pick, where, target_pick, keep in picks:
        block = cfg.blocks[block_pick % len(cfg.blocks)]
        size = len(block.instructions)
        index = {"first": 0, "last": size}.get(where, block_pick % (size + 1))
        uids = [i.uid for b in cfg.blocks for i in b.instructions]
        prefetch = cfg.insert_prefetch(
            block.name, index, uids[target_pick % len(uids)]
        )
        fresh = build_acfg(cfg, CONFIG.block_size)
        spliced = splice_prefetch(base, cfg, block.name, index)
        assert_same_acfg(spliced, fresh)
        check_guard(spliced, analyze_cache(spliced, CONFIG), TIMING)
        if keep:
            base = spliced
        else:
            cfg.remove_prefetch(prefetch.uid)


def test_splice_rejects_a_foreign_base():
    cfg = random_program(3, target_size=60)
    base = build_acfg(cfg, CONFIG.block_size)
    block = cfg.blocks[1]
    first = cfg.insert_prefetch(block.name, 0, block.instructions[0].uid)
    cfg.insert_prefetch(block.name, 0, block.instructions[-1].uid)
    with pytest.raises(ProgramModelError):
        splice_prefetch(base, cfg, block.name, 0)
    cfg.remove_prefetch(first.uid)
    with pytest.raises(ProgramModelError):
        splice_prefetch(base, cfg, block.name, 1)  # not a prefetch
