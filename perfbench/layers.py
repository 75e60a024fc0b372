"""Per-layer time attribution for the traced benchmark run.

The tracer measures the program from outside: :func:`install` replaces
the public functions of each ``src/repro`` package (plus the analysis'
``_latency_guard``, which has no public entry point) with wrappers that
open a span around the call, and hands every analysis pipeline a
:class:`~repro.analysis.pipeline.PipelineStats` through
``AnalysisPipeline.for_options(..., stats=)``.  Nothing inside ``src/``
changes; :func:`uninstall` restores every replaced attribute, so the
untraced passes run the unmodified code.

A span's *self time* is its duration minus the time covered by its
child spans.  Inside ``AnalysisPipeline.analyze`` the pipeline's own
stage clock is the finer source: the wrapper charges each stage's
``stage_seconds`` delta to the matching layer and the rest of the call
to ``analysis.other``.  Wrapped functions that run inside a pipeline
call (``build_acfg``, ``min_path_slacks``, ...) still count their calls
and inclusive time but open no span, so no second is charged twice.

Sweep workers are forked after :func:`install`, so they inherit the
wrappers.  The ``run_usecase`` wrapper notices that it runs in a worker,
traces that one use case with a fresh :class:`Tracer` and ships the
totals back attached to the pickled result (``result.layer_trace``).
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Pipeline stage-clock bucket -> benchmark stage.
PIPELINE_STAGES = {
    "acfg": "program.acfg",
    "fixpoint": "cache.fixpoint",
    "classify": "cache.classify",
    "refine": "analysis.refine",
    "l2": "analysis.l2",
    "guard": "analysis.guard",
    "ipet": "analysis.ipet",
}

#: Stages whose self times partition the traced wall time (together
#: with worker idle time and the unattributed remainder).
STAGES = (
    "bench.load",
    "program.acfg",
    "cache.fixpoint",
    "cache.classify",
    "analysis.refine",
    "analysis.l2",
    "analysis.guard",
    "analysis.ipet",
    "analysis.other",
    "core.search",
    "core.verify",
    "sim.simulate",
    "energy.account",
    "experiments.harness",
)

#: Benchmark modules that call into the layers directly.
BENCHMARK_MODULES = ("workloads",)

#: Deterministic counters of :class:`PipelineStats` summed over a run.
STATS_COUNTERS = (
    "result_hits",
    "structural_hits",
    "structural_misses",
    "transfer_hits",
    "transfer_misses",
    "kernel_segment_hits",
    "kernel_segment_misses",
    "refine_promotions",
)


class Tracer:
    """Span stack plus per-stage self time, inclusive time and counts."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.self_s: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.stats: List[object] = []
        self._children: List[float] = []
        self._stage_clock_depth = 0

    def call(self, stage: str, fn: Callable, args, kwargs,
             inclusive: Optional[str] = None):
        """Run ``fn`` inside a span charged to ``stage``."""
        if self._stage_clock_depth:
            # Inside AnalysisPipeline.analyze the stage clock owns the
            # time; only the inclusive figure is recorded here.
            if inclusive is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.inclusive_s[inclusive] += time.perf_counter() - start
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[stage] += elapsed - self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            if inclusive is not None:
                self.inclusive_s[inclusive] += elapsed

    def pipeline_call(self, fn: Callable, pipeline, args, kwargs):
        """``AnalysisPipeline.analyze``: split the call by its stage clock."""
        clock = pipeline.stats.stage_seconds
        before = dict(clock)
        self._children.append(0.0)
        self._stage_clock_depth += 1
        start = time.perf_counter()
        try:
            return fn(pipeline, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stage_clock_depth -= 1
            child = self._children.pop()
            staged = 0.0
            for name, seconds in clock.items():
                delta = seconds - before.get(name, 0.0)
                if delta:
                    stage = PIPELINE_STAGES.get(name, "analysis.other")
                    self.self_s[stage] += delta
                    staged += delta
            self.self_s["analysis.other"] += elapsed - child - staged
            if self._children:
                self._children[-1] += elapsed
            self.inclusive_s["analysis.analyze"] += elapsed
            self.counts["analysis.analyze_calls"] += 1
            self.counts["analysis.pipeline_calls"] += 1

    def stats_totals(self) -> Dict[str, int]:
        """Pipeline counters summed over every pipeline of this tracer."""
        return {
            name: sum(getattr(stats, name) for stats in self.stats)
            for name in STATS_COUNTERS
        }

    def totals(self) -> dict:
        """Plain-data snapshot (picklable, mergeable)."""
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "counts": dict(self.counts),
            "stats": self.stats_totals(),
        }


_ACTIVE: Optional[Tracer] = None
_SAVED: List[Tuple[object, str, object]] = []


def _active() -> Tracer:
    assert _ACTIVE is not None, "layers.install() was not called"
    return _ACTIVE


def _spanned(stage: str, inclusive: Optional[str] = None,
             count: Optional[Callable[[Tracer, object], None]] = None):
    def wrap(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            tracer = _active()
            result = tracer.call(stage, fn, args, kwargs, inclusive)
            if count is not None:
                count(tracer, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper
    return wrap


def _count_acfg(tracer: Tracer, acfg) -> None:
    tracer.counts["program.acfg_calls"] += 1
    tracer.counts["program.acfg_vertices"] += len(acfg)


def _count_slack(tracer: Tracer, _result) -> None:
    tracer.counts["analysis.slack_queries"] += 1


def _count_analysis(tracer: Tracer, _result) -> None:
    tracer.counts["analysis.analyze_calls"] += 1


def _count_simulation(tracer: Tracer, sim) -> None:
    tracer.counts["sim.fetches"] += sim.fetches
    tracer.counts["sim.prefetch_transfers"] += sim.prefetch_transfers
    tracer.counts["sim.useful_prefetches"] += sim.useful_prefetches


def _plan() -> List[Tuple[str, str, Callable]]:
    """(defining module, function name, wrapper factory) of each layer."""
    return [
        ("repro.bench.registry", "load", _spanned("bench.load")),
        ("repro.program.acfg", "build_acfg",
         _spanned("program.acfg", count=_count_acfg)),
        ("repro.cache.classify", "analyze_cache", _spanned("cache.fixpoint")),
        ("repro.cache.classify", "propagate", _spanned("cache.fixpoint")),
        ("repro.cache.kernel", "propagate_kernel_batch",
         _spanned("cache.fixpoint")),
        ("repro.cache.classify", "classify_references",
         _spanned("cache.classify")),
        ("repro.cache.kernel", "classify_references_dense",
         _spanned("cache.classify")),
        ("repro.analysis.refine", "explore_concrete_states",
         _spanned("analysis.refine")),
        ("repro.analysis.refine", "refine_classifications",
         _spanned("analysis.refine")),
        ("repro.cache.classify", "analyze_l2_must", _spanned("analysis.l2")),
        ("repro.cache.classify", "l2_guaranteed_hits",
         _spanned("analysis.l2")),
        ("repro.analysis.wcet", "compute_ref_times",
         _spanned("analysis.guard")),
        ("repro.analysis.wcet", "_latency_guard", _spanned("analysis.guard")),
        ("repro.analysis.slack", "min_path_slacks",
         _spanned("analysis.guard", inclusive="analysis.slack",
                  count=_count_slack)),
        ("repro.analysis.structural", "solve_wcet_path",
         _spanned("analysis.ipet")),
        ("repro.analysis.wcet", "analyze_wcet",
         _spanned("analysis.other", inclusive="analysis.analyze",
                  count=_count_analysis)),
        ("repro.core.optimizer", "optimize", _spanned("core.search")),
        ("repro.core.guarantees", "verify_wcet_guarantee",
         _spanned("core.verify")),
        ("repro.sim.machine", "simulate",
         _spanned("sim.simulate", count=_count_simulation)),
        ("repro.energy.metrics", "account_energy",
         _spanned("energy.account")),
        ("repro.experiments.usecase", "measure_program",
         _spanned("experiments.harness", inclusive="experiments.measure")),
        ("repro.experiments.usecase", "run_usecase", _usecase_wrapper),
    ]


def _usecase_wrapper(fn: Callable) -> Callable:
    def run_usecase(*args, **kwargs):
        tracer = _active()
        if tracer.pid == os.getpid():
            return tracer.call("experiments.harness", fn, args, kwargs,
                               inclusive="experiments.usecase")
        # A forked sweep worker: trace this case alone and send the
        # totals home with the result.
        global _ACTIVE
        case_tracer = Tracer()
        pipeline = kwargs.get("pipeline")
        if pipeline is not None:
            # Built by the worker before this call, so its stats were
            # registered with the tracer copied from the parent.
            case_tracer.stats.append(pipeline.stats)
        _ACTIVE = case_tracer
        try:
            start = time.perf_counter()
            result = case_tracer.call("experiments.harness", fn, args, kwargs,
                                      inclusive="experiments.usecase")
        finally:
            _ACTIVE = tracer
        trace = case_tracer.totals()
        trace["start"] = start
        result.layer_trace = trace
        return result
    run_usecase.__wrapped__ = fn
    return run_usecase


def _replace_everywhere(original: object, replacement: object) -> None:
    """Rebind ``original`` in every loaded ``repro`` and benchmark module.

    Catches the ``from x import f`` copies as well as the defining
    module; lazy function-level imports read the defining module at
    call time and so see the replacement too.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name in BENCHMARK_MODULES or name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                _SAVED.append((module, attr, value))
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Install the layer wrappers; returns the tracer they report to."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("layer tracing is already installed")
    import importlib

    from repro.analysis.pipeline import AnalysisPipeline, PipelineStats

    _ACTIVE = Tracer()
    for module_name, attr, factory in _plan():
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        _replace_everywhere(original, factory(original))

    analyze = AnalysisPipeline.analyze

    def pipeline_analyze(self, *args, **kwargs):
        return _active().pipeline_call(analyze, self, args, kwargs)

    for_options = vars(AnalysisPipeline)["for_options"]

    def pipeline_for_options(cls, config, timing, options, **kwargs):
        stats = kwargs.get("stats")
        if stats is None:
            stats = kwargs["stats"] = PipelineStats()
        _active().stats.append(stats)
        return for_options.__func__(cls, config, timing, options, **kwargs)

    _SAVED.append((AnalysisPipeline, "analyze", analyze))
    _SAVED.append((AnalysisPipeline, "for_options", for_options))
    AnalysisPipeline.analyze = pipeline_analyze
    AnalysisPipeline.for_options = classmethod(pipeline_for_options)
    return _ACTIVE


def uninstall() -> None:
    """Restore every attribute :func:`install` replaced."""
    global _ACTIVE
    while _SAVED:
        owner, attr, value = _SAVED.pop()
        setattr(owner, attr, value)
    _ACTIVE = None


def merge(totals: List[dict]) -> dict:
    """Sum several :meth:`Tracer.totals` snapshots."""
    merged = {"self_s": dict.fromkeys(STAGES, 0.0), "inclusive_s": {},
              "counts": {}, "stats": dict.fromkeys(STATS_COUNTERS, 0)}
    for part in totals:
        for section in ("self_s", "inclusive_s", "counts", "stats"):
            target = merged[section]
            for name, value in part[section].items():
                target[name] = target.get(name, 0) + value
    return merged
