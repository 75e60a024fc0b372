"""The benchmark's four workloads.

Each workload is a fixed list of operations: which programs, cache
configurations and analysis options it runs never depends on the seed.
The seed only becomes the executor seed of the concrete simulation
(``simulate`` and ``SweepSpec.seed``), so a second seed moves the
simulated metrics (ACET, energy, executed instructions, bound coverage)
and nothing the static analysis decides.

A *pass* runs every operation of a workload once, from cold: each
operation builds its own analysis pipeline, so no analysis result is
reused across operations or passes.  All workloads are closed loops
with one client; only ``sweep`` fans out, to a 2-worker process pool.
The persistent sweep disk cache and the in-process sweep memo are off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.registry import load, program_names
from repro.cache.config import TABLE2, hierarchy_for
from repro.core.guarantees import verify_wcet_guarantee
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.technology import technology
from repro.experiments.metrics import SweepMetrics
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments.usecase import UseCase, measure_program, run_usecase

import hostspeed

TECH = "45nm"
KERNEL = "vectorized"
SWEEP_WORKERS = 2


@dataclass
class Outcome:
    """What one operation produced, plus what its checks need.

    Pairs are ``(original, optimized)``; an analysis-only operation has
    the same program on both sides.
    """

    label: str
    program: str
    config_id: str
    original: object
    optimized: object
    tau_w: Tuple[float, float]
    tau_a: Tuple[float, float] = (0.0, 0.0)
    energy_j: Tuple[float, float] = (0.0, 0.0)
    fetches: Tuple[int, int] = (0, 0)
    candidates: int = 0
    rejected: int = 0
    passes: int = 0
    prefetches: int = 0
    #: Theorem 1 as re-derived inside the timed operation (``optimize``
    #: runs the CLI's own check); ``None`` = the checks derive it.
    theorem1: Optional[bool] = None
    #: Failures found while completing the outcome outside the timed
    #: region (added to the check failures).
    problems: List[str] = field(default_factory=list)

    @property
    def optimizes(self) -> bool:
        return self.optimized is not self.original

    def signature(self) -> tuple:
        """Everything deterministic about the outcome (pass-to-pass equality)."""
        return (
            self.label, self.tau_w, self.tau_a, self.energy_j, self.fetches,
            self.candidates, self.rejected, self.passes, self.prefetches,
            self.theorem1,
        )


@dataclass
class PassRun:
    """One pass: outcomes in operation order and per-operation seconds."""

    outcomes: List[Outcome]
    op_seconds: List[float]
    failures: List[str]
    attempted: int
    #: Workers that ran the operations (the pool size for ``sweep``).
    workers: int = 1
    #: Worker-side layer traces of a traced ``sweep`` pass.
    case_traces: List[dict] = field(default_factory=list)


def replay(original, report):
    """The optimized program rebuilt from the report's insertion records.

    Sweep results cross a process boundary without the optimized CFG;
    re-inserting the accepted prefetches in order reproduces it.  The
    checks confirm the replay by re-deriving the reported τ_w and the
    measured ACET from it.
    """
    program = original.clone()
    for inserted in report.inserted:
        program.insert_prefetch(
            inserted.block_name, inserted.index, inserted.target_uid
        )
    return program


def outcome_of(result) -> Outcome:
    """An :class:`Outcome` from a :class:`UseCaseResult`."""
    usecase, report = result.usecase, result.report
    original = load(usecase.program)
    return Outcome(
        label=f"{usecase.program}/{usecase.config_id}/{usecase.tech}",
        program=usecase.program,
        config_id=usecase.config_id,
        original=original,
        optimized=replay(original, report),
        tau_w=(result.original.tau_w, result.optimized.tau_w),
        tau_a=(result.original.tau_a, result.optimized.tau_a),
        energy_j=(result.original.energy.total_j,
                  result.optimized.energy.total_j),
        fetches=(result.original.executed_instructions,
                 result.optimized.executed_instructions),
        candidates=report.candidates_evaluated,
        rejected=report.candidates_rejected,
        passes=report.passes,
        prefetches=report.prefetch_count,
    )


class Workload:
    """Base class: fixed operations, analysis flags and set-up."""

    name = ""
    with_persistence = False
    l2: Optional[str] = None
    refine = False
    programs: Tuple[str, ...] = ()
    config_ids: Tuple[str, ...] = ()

    def prepare(self) -> dict:
        """Set-up before the first timed operation: programs, timing models."""
        tech = technology(TECH)
        return {
            "programs": {name: load(name) for name in self.programs},
            "timing": {
                config_id: hierarchy_model(
                    hierarchy_for(TABLE2[config_id], self.l2), tech
                ).timing
                for config_id in self.config_ids
            },
        }

    def options(self, max_evaluations: Optional[int]) -> OptimizerOptions:
        return OptimizerOptions(
            with_persistence=self.with_persistence,
            max_evaluations=max_evaluations,
            kernel=KERNEL,
            l2=self.l2,
            refine=self.refine,
        )

    def run_pass(self, context: dict, seed: int) -> PassRun:
        raise NotImplementedError

    def sampled_pass(self, context: dict,
                     seed: int) -> Tuple[PassRun, hostspeed.Samples]:
        """:meth:`run_pass` with the host-speed probes interleaved."""
        sampler = hostspeed.Sampler().start()
        try:
            run = self.run_pass(context, seed)
        finally:
            samples = sampler.stop()
        return run, samples

    def convert(self, run: PassRun) -> None:
        """Turn a pass's raw results into :class:`Outcome` records (untimed)."""

    def complete(self, context: dict, outcomes: List[Outcome],
                 seed: int) -> None:
        """Untimed measurements the first pass's outcomes still need."""


class OptimizeWorkload(Workload):
    """``repro optimize <program> k1 45nm`` with the CLI defaults."""

    name = "optimize"
    with_persistence = True
    programs = ("ndes", "cover", "whet")
    config_ids = ("k1",)

    def run_pass(self, context: dict, seed: int) -> PassRun:
        options = self.options(None)
        config_id = self.config_ids[0]
        config = TABLE2[config_id]
        timing = context["timing"][config_id]
        outcomes, seconds, failures = [], [], []
        for name in self.programs:
            cfg = context["programs"][name]
            label = f"{name}/{config_id}/{TECH}"
            start = time.perf_counter()
            try:
                optimized, report = optimize(cfg, config, timing,
                                             options=options)
                check = verify_wcet_guarantee(
                    cfg, optimized, config, timing,
                    with_persistence=self.with_persistence, strict=False,
                )
            except Exception as exc:  # one failed operation, not the run
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            seconds.append(time.perf_counter() - start)
            outcomes.append(Outcome(
                label=label, program=name, config_id=config_id,
                original=cfg, optimized=optimized,
                tau_w=(report.tau_original, report.tau_final),
                candidates=report.candidates_evaluated,
                rejected=report.candidates_rejected,
                passes=report.passes,
                prefetches=report.prefetch_count,
                theorem1=check.theorem1_holds,
            ))
        return PassRun(outcomes, seconds, failures, len(self.programs))

    def complete(self, context: dict, outcomes: List[Outcome],
                 seed: int) -> None:
        # `repro optimize` does not simulate; the ACET, energy and
        # bound-coverage figures come from measuring both executables.
        for outcome in outcomes:
            config = TABLE2[outcome.config_id]
            measured = [
                measure_program(program, config, TECH, seed=seed,
                                with_persistence=self.with_persistence)
                for program in (outcome.original, outcome.optimized)
            ]
            tau_w = (measured[0].tau_w, measured[1].tau_w)
            if tau_w != outcome.tau_w:
                outcome.problems.append(
                    f"measured τ_w {tau_w} differs from the optimizer's "
                    f"{outcome.tau_w}"
                )
            outcome.tau_a = (measured[0].tau_a, measured[1].tau_a)
            outcome.energy_j = (measured[0].energy.total_j,
                                measured[1].energy.total_j)
            outcome.fetches = (measured[0].executed_instructions,
                               measured[1].executed_instructions)


class SweepWorkload(Workload):
    """``repro sweep`` defaults on a grid slice, 2-worker process pool."""

    name = "sweep"
    programs = ("bs", "crc", "duff", "fibcall", "icall", "insertsort",
                "lcdnum", "matmult", "minver", "ndes", "st")
    config_ids = ("k1", "k13", "k31")

    def spec(self, seed: int) -> SweepSpec:
        return SweepSpec(
            programs=self.programs,
            config_ids=self.config_ids,
            techs=(TECH,),
            seed=seed,
            max_evaluations=120,
            baseline="classic",
            kernel=KERNEL,
        )

    def run_pass(self, context: dict, seed: int) -> PassRun:
        spec = self.spec(seed)
        metrics = SweepMetrics()
        results = run_sweep(
            spec, use_cache=False, workers=SWEEP_WORKERS, cache_dir=None,
            metrics=metrics, max_failures=None,
        )
        failures = [
            f"{f.usecase.program}/{f.usecase.config_id}/{f.usecase.tech}: "
            f"{f.error_type}: {f.message}"
            for f in metrics.failures
        ]
        traces = [
            result.layer_trace for result in results
            if hasattr(result, "layer_trace")
        ]
        return PassRun(
            outcomes=list(results),
            op_seconds=[record.wall_time_s for record in metrics.records],
            failures=failures,
            attempted=spec.size,
            workers=metrics.workers,
            case_traces=traces,
        )

    def sampled_pass(self, context: dict,
                     seed: int) -> Tuple[PassRun, hostspeed.Samples]:
        """The probes run in the pool workers, around each use case.

        The workers are forked inside ``run_sweep``, after the swap, so
        they inherit the sampled ``run_usecase``.
        """
        import repro.experiments.sweep as sweep

        original = sweep.run_usecase
        sweep.run_usecase = hostspeed.sampled(original)
        try:
            run = self.run_pass(context, seed)
        finally:
            sweep.run_usecase = original
        samples = hostspeed.Samples()
        for result in run.outcomes:
            samples.extend(hostspeed.Samples.of(result.host_samples))
        return run, samples

    def convert(self, run: PassRun) -> None:
        run.outcomes = [outcome_of(result) for result in run.outcomes]


class AnalyzeWorkload(Workload):
    """Cold ``measure_program`` of original programs, no optimization."""

    name = "analyze"
    with_persistence = True
    programs = tuple(program_names())
    #: One configuration per capacity; each associativity twice and
    #: each block size three times.
    config_ids = ("k1", "k11", "k15", "k22", "k26", "k36")

    def run_pass(self, context: dict, seed: int) -> PassRun:
        outcomes, seconds, failures = [], [], []
        for name in self.programs:
            cfg = context["programs"][name]
            for config_id in self.config_ids:
                label = f"{name}/{config_id}/{TECH}"
                start = time.perf_counter()
                try:
                    measured = measure_program(
                        cfg, TABLE2[config_id], TECH, seed=seed,
                        with_persistence=self.with_persistence,
                    )
                except Exception as exc:  # one failed operation
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                seconds.append(time.perf_counter() - start)
                outcomes.append(Outcome(
                    label=label, program=name, config_id=config_id,
                    original=cfg, optimized=cfg,
                    tau_w=(measured.tau_w, measured.tau_w),
                    tau_a=(measured.tau_a, measured.tau_a),
                    energy_j=(measured.energy.total_j,) * 2,
                    fetches=(measured.executed_instructions,) * 2,
                ))
        attempted = len(self.programs) * len(self.config_ids)
        return PassRun(outcomes, seconds, failures, attempted)


class HierarchyWorkload(Workload):
    """``run_usecase`` with an L2 and model-checking refinement."""

    name = "hierarchy"
    l2 = "4:16:4096:6"
    refine = True
    cases = (("bs", "k1"), ("bs", "k15"), ("crc", "k1"), ("crc", "k15"),
             ("fdct", "k15"))
    programs = ("bs", "crc", "fdct")
    config_ids = ("k1", "k15")

    def run_pass(self, context: dict, seed: int) -> PassRun:
        options = self.options(120)
        results, seconds, failures = [], [], []
        for program, config_id in self.cases:
            usecase = UseCase(program, config_id, TECH, self.l2)
            start = time.perf_counter()
            try:
                results.append(run_usecase(usecase, seed=seed,
                                           options=options))
            except Exception as exc:  # one failed operation
                failures.append(f"{program}/{config_id}/{TECH}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            seconds.append(time.perf_counter() - start)
        return PassRun(results, seconds, failures, len(self.cases))

    def convert(self, run: PassRun) -> None:
        run.outcomes = [outcome_of(result) for result in run.outcomes]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (OptimizeWorkload(), SweepWorkload(), AnalyzeWorkload(),
                     HierarchyWorkload())
}
