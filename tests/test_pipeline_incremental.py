"""Pipeline == standalone: equivalence tests for the analysis pipeline.

Every :meth:`AnalysisPipeline.analyze` call — including the optimizer's
candidate evaluations on spliced ACFGs, whose transfers the memos
replay — must be *bit-identical* to a standalone
:func:`~repro.analysis.wcet.analyze_wcet` run on a fresh
:func:`~repro.program.acfg.build_acfg`: same τ_w, same classifications,
same per-reference times, same WCET-path counts, same L2 hits.  The
fast tests prove it deterministically on a Mälardalen subset (with and
without an L2 plus refinement); the slow hypothesis tests sweep
randomly generated programs.  :class:`CheckedPipeline` is the oracle:
it re-runs every analysis standalone and asserts equality.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.wcet import analyze_wcet
from repro.bench.generator import random_program
from repro.bench.registry import load
from repro.cache.config import CacheConfig, hierarchy_for
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model, hierarchy_model
from repro.energy.technology import technology
from repro.program.acfg import build_acfg

CONFIG = CacheConfig(1, 16, 256)  # the paper's k1
TIMING = cacti_model(CONFIG, technology("45nm")).timing_model()

L2_SPEC = "4:16:4096:6"
L2_TIMING = hierarchy_model(
    hierarchy_for(CONFIG, L2_SPEC), technology("45nm")
).timing

#: Small, fast Mälardalen members — enough structural variety (straight
#: line, nested loops, calls, branches) without slowing tier-1 down.
FAST_PROGRAMS = ["bs", "fac", "fibcall", "insertsort", "jfdctint", "crc"]


def _wcet_fingerprint(wcet):
    """Every analysis output the acceptance criterion compares on."""
    acfg = wcet.acfg
    return (
        wcet.tau_w,
        wcet.wcet_path_misses,
        tuple(wcet.t_w),
        tuple(wcet.solution.n_w),
        tuple(
            wcet.cache.classification(v.rid).value
            for v in acfg.ref_vertices()
        ),
        tuple(sorted(wcet.latency_guarded)),
        tuple(sorted(wcet.persistent_charged_blocks)),
        tuple(sorted(wcet.cache.l2_hits or ())),
    )


class CheckedPipeline(AnalysisPipeline):
    """A pipeline that re-runs every analysis standalone and compares.

    ``candidates`` counts the checked analyses that had a ``base`` —
    the optimizer's candidate evaluations.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.candidates = 0

    def analyze(self, cfg, with_may=True, base=None, inserted=None):
        result = super().analyze(
            cfg, with_may=with_may, base=base, inserted=inserted
        )
        standalone = analyze_wcet(
            build_acfg(cfg, self.config.block_size, self.base_address),
            self.config,
            self.timing,
            with_may=with_may,
            with_persistence=self.with_persistence,
            locked_blocks=self.locked_blocks or None,
            hierarchy=self.hierarchy,
            refine=self.refine,
            refine_budget=self.refine_budget,
        )
        assert _wcet_fingerprint(result.wcet) == _wcet_fingerprint(standalone)
        if base is not None:
            self.candidates += 1
        return result


def _checked_optimize(cfg, opts, timing=TIMING):
    """Optimize ``cfg`` through a :class:`CheckedPipeline`."""
    pipeline = CheckedPipeline.for_options(CONFIG, timing, opts)
    _, report = optimize(cfg, CONFIG, timing, options=opts, pipeline=pipeline)
    assert pipeline.candidates == report.candidates_evaluated
    return report


class TestColdEqualsStandalone:
    """A cold pipeline run must equal the plain analyze_wcet path."""

    @pytest.mark.parametrize("program", FAST_PROGRAMS)
    def test_cold_matches_analyze_wcet(self, program):
        cfg = load(program)
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        via_pipeline = pipeline.analyze(cfg).wcet
        standalone = analyze_wcet(
            build_acfg(cfg, CONFIG.block_size), CONFIG, TIMING
        )
        assert _wcet_fingerprint(via_pipeline) == _wcet_fingerprint(standalone)

    def test_repeated_analyze_is_a_new_identical_result(self):
        cfg = load("bs")
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        first = pipeline.analyze(cfg)
        again = pipeline.analyze(cfg)
        assert again is not first
        assert _wcet_fingerprint(again.wcet) == _wcet_fingerprint(first.wcet)

    def test_pipeline_and_result_free_without_cycle_collector(self):
        gc.disable()
        try:
            pipeline = AnalysisPipeline(CONFIG, TIMING)
            result = pipeline.analyze(load("bs"))
            # PipelineResult has no weakref slot; its wcet goes with it.
            refs = (weakref.ref(pipeline), weakref.ref(result.wcet))
            del pipeline, result
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestIncrementalEqualsCold:
    """Candidate analyses on spliced ACFGs equal standalone ones."""

    @pytest.mark.parametrize("program", ["crc", "matmult", "jfdctint"])
    def test_optimize_differential(self, program):
        report = _checked_optimize(
            load(program), OptimizerOptions(max_evaluations=12)
        )
        assert report.candidates_evaluated > 0

    # compress is the one with both L2 hits and refinement promotions
    # at k1 (crc and matmult have neither, jfdctint only L2 hits).
    @pytest.mark.parametrize(
        "program", ["crc", "matmult", "jfdctint", "compress"]
    )
    def test_optimize_differential_hierarchy(self, program):
        # The classic baseline: with persistence and an L2 these programs
        # leave the optimizer no candidate to evaluate at k1.
        opts = OptimizerOptions(
            with_persistence=False, max_evaluations=12, l2=L2_SPEC,
            refine=True,
        )
        report = _checked_optimize(load(program), opts, L2_TIMING)
        assert report.candidates_evaluated > 0

    def test_shared_pipeline_matches_fresh(self):
        cfg = load("matmult")
        opts = OptimizerOptions(max_evaluations=12)
        shared = AnalysisPipeline.for_options(CONFIG, TIMING, opts)
        _, warm1 = optimize(cfg, CONFIG, TIMING, options=opts, pipeline=shared)
        _, warm2 = optimize(cfg, CONFIG, TIMING, options=opts, pipeline=shared)
        _, fresh = optimize(cfg, CONFIG, TIMING, options=opts)
        for report in (warm1, warm2):
            assert report.tau_final == fresh.tau_final
            assert report.misses_final == fresh.misses_final
            assert report.prefetch_count == fresh.prefetch_count
            assert report.passes == fresh.passes

    def test_mismatched_pipeline_rejected(self):
        from repro.errors import OptimizationError

        cfg = load("bs")
        other_config = CacheConfig(2, 16, 512)
        other_timing = cacti_model(
            other_config, technology("45nm")
        ).timing_model()
        pipeline = AnalysisPipeline(other_config, other_timing)
        with pytest.raises(OptimizationError):
            optimize(cfg, CONFIG, TIMING, pipeline=pipeline)


@pytest.mark.slow
class TestIncrementalEqualsColdGenerated:
    """Property check over generated programs (slow suite)."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_optimize_differential_random(self, seed):
        cfg = random_program(seed, target_size=120, max_depth=3)
        _checked_optimize(cfg, OptimizerOptions(max_evaluations=10))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cold_matches_analyze_wcet_random(self, seed):
        cfg = random_program(seed, target_size=120, max_depth=3)
        pipeline = AnalysisPipeline(CONFIG, TIMING)
        via_pipeline = pipeline.analyze(cfg).wcet
        standalone = analyze_wcet(
            build_acfg(cfg, CONFIG.block_size), CONFIG, TIMING
        )
        assert _wcet_fingerprint(via_pipeline) == _wcet_fingerprint(standalone)
