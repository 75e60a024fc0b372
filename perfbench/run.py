#!/usr/bin/env python3
"""End-to-end benchmark of the prefetching reproduction.

Run one workload from the repository root::

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``perfbench/README.md``).  Untraced passes run
with host-speed probes interleaved (``hostspeed.py``); their times are
reported in reference seconds.  Every operation's output is checked
against independent references outside the timed region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("optimize", "sweep", "analyze", "hierarchy")

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
#: How long to wait for pool workers to exit after a pass.
REAP_TIMEOUT_S = 60.0
#: τ_w comparisons are on whole cycles; this only absorbs float noise.
CYCLE_EPSILON = 1e-6


@dataclass
class Pass:
    """One timed pass.

    ``wall`` and ``cpu`` are host seconds without the probes' own time;
    ``speed`` is the mean host speed the probes saw (``None`` on a
    traced pass, which runs no probes).
    """

    run: object
    wall: float
    cpu: float
    start: float
    tracer: Optional[object] = None
    speed: Optional[float] = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def wall_ref(self) -> float:
        return self.wall * self.speed

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.speed


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="executor seed of the simulations")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from traced passes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reap_children() -> None:
    """Wait until every child process (sweep pool workers) has exited."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.01)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def timed_pass(workload, context: dict, seed: int, traced: bool) -> Pass:
    """One pass: traced, or untraced with the host-speed probes.

    The probes' CPU time is taken out of ``cpu`` exactly.  Their wall
    time is taken out of ``wall`` divided by the workers that ran them,
    which is exact for one worker and the mean for the sweep pool.
    """
    tracer = layers.install() if traced else None
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    try:
        if traced:
            run, samples = workload.run_pass(context, seed), None
        else:
            run, samples = workload.sampled_pass(context, seed)
    finally:
        wall = time.perf_counter() - start
        if traced:
            layers.uninstall()
    reap_children()
    cpu = cpu_seconds() - cpu_before
    if samples is None:
        return Pass(run, wall, cpu, start, tracer)
    return Pass(run, wall - samples.wall_s / run.workers,
                cpu - samples.cpu_s, start, speed=samples.speed)


def run_passes(workload, context: dict, seed: int, seconds: float,
               trace: bool) -> List[Pass]:
    """Closed loop of passes for about ``seconds``.

    Another pass starts only while it is expected to end no more than
    half a pass past the deadline.  With tracing, passes alternate
    untraced/traced, starting untraced, and both kinds run at least once.
    """
    passes: List[Pass] = []
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(timed_pass(workload, context, seed, traced))
        measured += passes[-1].wall
        if trace and len(passes) < 2:
            continue
        if measured + 0.5 * measured / len(passes) >= seconds:
            return passes


def setup_seconds(workload_name: str) -> float:
    """Median set-up time of fresh interpreters, in reference seconds.

    Each probe interpreter runs the host-speed probes from its ``main``
    on and prints their samples as its last line.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             workload_name, "--setup-probe"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE,
            text=True,
        )
        wall = time.perf_counter() - start
        samples = hostspeed.Samples.of(
            json.loads(completed.stdout.splitlines()[-1]))
        times.append((wall - samples.wall_s) * samples.speed)
    return statistics.median(times)


def tail(samples: List[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, count)``; with ten samples or fewer no
    such percentile exists and the maximum is reported as p100.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count >= 11:
        index = count - 11
        return ordered[index], 100.0 * (index + 1) / count, count
    return ordered[-1], 100.0, count


def ratio(num: float, den: float) -> float:
    """``num / den`` where 0/0 is an honest 1.0 (nothing consumed)."""
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def outcome_metrics(outcomes) -> Dict[str, float]:
    """The paper's ratios, optimized over original, as a mean percentage.

    The base of each ratio is the original program's figure; a gain is
    ``100 - ratio``.  Analysis-only outcomes read exactly 100.
    """
    def mean_pct(pairs):
        return 100.0 * statistics.fmean(ratio(opt, orig) for orig, opt in pairs)

    return {
        "wcet_ratio_pct": mean_pct(o.tau_w for o in outcomes),
        "acet_ratio_pct": mean_pct(o.tau_a for o in outcomes),
        "energy_ratio_pct": mean_pct(o.energy_j for o in outcomes),
        "instr_ratio_pct": mean_pct(o.fetches for o in outcomes),
    }


def executables(outcomes) -> int:
    """Programs measured: the original and, if optimized, the optimized one."""
    return sum(2 if o.optimizes else 1 for o in outcomes)


def bound_violations(outcomes) -> List[str]:
    """Executables whose simulated memory cycles exceed their τ_w."""
    found = []
    for outcome in outcomes:
        sides = [("original", 0)]
        if outcome.optimizes:
            sides.append(("optimized", 1))
        for side, index in sides:
            tau_w, tau_a = outcome.tau_w[index], outcome.tau_a[index]
            if tau_a > tau_w + CYCLE_EPSILON:
                found.append(f"{outcome.label} {side}: τ_w {tau_w:.0f} < "
                             f"simulated {tau_a:.0f} cycles")
    return found


def end_to_end(passes: List[Pass], outcomes, peak_rss_mb: float,
               setup_s: float) -> Dict[str, float]:
    """End-to-end metrics; times are medians over the run's passes."""
    metrics = {
        "setup_s": setup_s,
        "wall_ref_s": statistics.median(p.wall_ref for p in passes),
        "cpu_ref_s": statistics.median(p.cpu_ref for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(outcome_metrics(outcomes))
    return metrics


def pass_totals(p: Pass) -> dict:
    """The traced pass's layer totals, sweep workers' cases included."""
    return layers.merge([p.tracer.totals()] + p.run.case_traces)


@dataclass
class Attribution:
    """Where the traced passes' capacity went, summed over those passes.

    Capacity is wall time for the single-process workloads and
    ``workers x wall`` for ``sweep``.  There, capacity not covered by
    use-case compute is worker idle time; what use cases spent outside
    every span is unattributed.
    """

    traced: List[Pass]
    totals: dict
    capacity: float
    idle: float

    @classmethod
    def of(cls, passes: List[Pass]) -> "Attribution":
        traced = [p for p in passes if p.traced]
        return cls(
            traced=traced,
            totals=layers.merge([pass_totals(p) for p in traced]),
            capacity=sum(p.run.workers * p.wall for p in traced),
            idle=sum(p.run.workers * p.wall - sum(p.run.op_seconds)
                     for p in traced if p.run.workers > 1),
        )

    @property
    def unattributed(self) -> float:
        return self.capacity - self.idle - sum(self.totals["self_s"].values())


def per_layer(passes: List[Pass], outcomes) -> Dict[str, float]:
    """Per-layer metrics: stage shares of capacity plus per-pass counts."""
    where = Attribution.of(passes)
    traced, totals, capacity = where.traced, where.totals, where.capacity
    untraced = [p for p in passes if not p.traced]
    counts = pass_totals(traced[0])
    busy = sum(sum(p.run.op_seconds) for p in traced)
    pool_start = sum(
        min(trace["start"] for trace in p.run.case_traces) - p.start
        for p in traced if p.run.case_traces
    )

    def pct(seconds: float) -> float:
        return 100.0 * seconds / capacity

    def share(stage: str) -> float:
        return pct(totals["self_s"][stage])

    def div(num: float, den: float) -> float:
        return num / den if den else 0.0

    c, stats = counts["counts"], counts["stats"]
    structural = stats["structural_hits"] + stats["structural_misses"]
    transfer = stats["transfer_hits"] + stats["transfer_misses"]
    segment = stats["kernel_segment_hits"] + stats["kernel_segment_misses"]
    candidates = sum(o.candidates for o in outcomes)
    acfg_calls = c.get("program.acfg_calls", 0)
    traced_wall = statistics.median(p.wall for p in traced)
    return {
        "traced_wall_s": traced_wall,
        "trace_overhead_s": (traced_wall
                             - statistics.median(p.wall for p in untraced)),
        "unattributed_s": where.unattributed / len(traced),
        "unattributed_pct": pct(where.unattributed),
        "bench.load_pct": share("bench.load"),
        "program.acfg_pct": share("program.acfg"),
        "program.acfg_calls": acfg_calls,
        "program.acfg_vertices": div(c.get("program.acfg_vertices", 0),
                                     acfg_calls),
        "analysis.analyze_pct": pct(
            totals["inclusive_s"].get("analysis.analyze", 0.0)),
        "analysis.analyze_calls": c.get("analysis.analyze_calls", 0),
        "analysis.guard_pct": share("analysis.guard"),
        "analysis.slack_pct": pct(
            totals["inclusive_s"].get("analysis.slack", 0.0)),
        "analysis.slack_queries": c.get("analysis.slack_queries", 0),
        "analysis.ipet_pct": share("analysis.ipet"),
        "analysis.l2_pct": share("analysis.l2"),
        "analysis.refine_pct": share("analysis.refine"),
        "analysis.refine_promotions": stats["refine_promotions"],
        "analysis.other_pct": share("analysis.other"),
        "analysis.structural_hit_ratio": div(stats["structural_hits"],
                                             structural),
        "analysis.transfer_hit_ratio": div(stats["transfer_hits"], transfer),
        "analysis.result_hit_ratio": div(stats["result_hits"],
                                         c.get("analysis.pipeline_calls", 0)),
        "cache.fixpoint_pct": share("cache.fixpoint"),
        "cache.classify_pct": share("cache.classify"),
        "cache.segment_hit_ratio": div(stats["kernel_segment_hits"], segment),
        "core.search_pct": share("core.search"),
        "core.verify_pct": share("core.verify"),
        "core.candidates_evaluated": candidates,
        "core.candidates_rejected": sum(o.rejected for o in outcomes),
        "core.accept_ratio": div(sum(o.prefetches for o in outcomes),
                                 candidates),
        "core.passes": sum(o.passes for o in outcomes),
        "sim.simulate_pct": share("sim.simulate"),
        "sim.fetches": c.get("sim.fetches", 0),
        "sim.fetches_per_s": div(c.get("sim.fetches", 0),
                                 counts["self_s"]["sim.simulate"]),
        "sim.useful_prefetch_ratio": div(c.get("sim.useful_prefetches", 0),
                                         c.get("sim.prefetch_transfers", 0)),
        "sim.bound_violations": len(bound_violations(outcomes)),
        "energy.account_pct": share("energy.account"),
        "experiments.harness_pct": share("experiments.harness"),
        "experiments.measure_pct": pct(
            totals["inclusive_s"].get("experiments.measure", 0.0)),
        "experiments.usecase_pct": pct(
            totals["inclusive_s"].get("experiments.usecase", 0.0)),
        "experiments.worker_busy_ratio": busy / capacity,
        "experiments.pool_start_pct": 100.0 * pool_start / sum(
            p.wall for p in traced),
    }


def deterministic_summary(outcomes, passes: List[Pass]) -> dict:
    """Metrics that must repeat exactly for one seed, traced or not."""
    summary = outcome_metrics(outcomes)
    violations = len(bound_violations(outcomes))
    summary.update({
        "bound_violations": violations,
        "bound_coverage_pct": 100.0 * (1 - violations / executables(outcomes)),
        "tau_w_sum": sum(sum(o.tau_w) for o in outcomes),
        "fetches_sum": sum(sum(o.fetches) for o in outcomes),
        "candidates": sum(o.candidates for o in outcomes),
        "rejected": sum(o.rejected for o in outcomes),
        "passes": sum(o.passes for o in outcomes),
        "prefetches": sum(o.prefetches for o in outcomes),
    })
    traced = [p for p in passes if p.traced]
    if traced:
        counts = pass_totals(traced[0])
        summary.update({f"trace.{k}": v for k, v in
                        sorted(counts["counts"].items())})
        summary.update({f"stats.{k}": v for k, v in
                        sorted(counts["stats"].items())})
    return summary


def check_passes(workload, context: dict, passes: List[Pass],
                 seed: int) -> Dict[str, List[str]]:
    """Failure messages by operation label (outside the timed region)."""
    import checks

    first = passes[0].run
    problems: Dict[str, List[str]] = {}
    reference = {o.label: o.signature() for o in first.outcomes}
    for number, p in enumerate(passes[1:], start=2):
        for outcome in p.run.outcomes:
            if outcome.signature() != reference.get(outcome.label):
                problems.setdefault(outcome.label, []).append(
                    f"pass {number} differs from pass 1")
    traced = [pass_totals(p) for p in passes if p.traced]
    for number, totals in enumerate(traced[1:], start=2):
        if (totals["counts"], totals["stats"]) != (
            traced[0]["counts"], traced[0]["stats"]
        ):
            problems.setdefault("traced passes", []).append(
                f"traced pass {number} counts differ from the first")
    workload.complete(context, first.outcomes, seed)
    for outcome in first.outcomes:
        failures = checks.check_outcome(workload, context, outcome, seed)
        if failures:
            problems.setdefault(outcome.label, []).extend(failures)
    return problems


def print_attribution(passes: List[Pass]) -> None:
    """Seconds per traced pass charged to each stage, and their share."""
    where = Attribution.of(passes)
    count = len(where.traced)
    rows = sorted(where.totals["self_s"].items(), key=lambda item: -item[1])
    rows += [("worker idle", where.idle), ("unattributed", where.unattributed)]
    print(f"attribution of {count} traced pass(es), capacity = "
          f"{where.traced[0].run.workers} worker(s) x wall = "
          f"{where.capacity / count:.3f} s per pass:")
    for stage, seconds in rows:
        print(f"  {stage:<22} {seconds / count:9.3f} s "
              f"{100.0 * seconds / where.capacity:6.2f} %")


def print_rows(passes: List[Pass], outcomes) -> None:
    seconds: Dict[str, List[float]] = {}
    for p in passes:
        for outcome, s in zip(p.run.outcomes, p.run.op_seconds):
            seconds.setdefault(outcome.label, []).append(s)
    print("per-program rows (wall = median over passes; τ_w ratio base = "
          "original τ_w):")
    print(f"  {'use case':<20} {'wall_s':>8} {'cands':>6} {'pf':>4} "
          f"{'tau_w orig':>11} {'tau_w opt':>10} {'ratio':>8}")
    for outcome in outcomes:
        before, after = outcome.tau_w
        wall = statistics.median(seconds.get(outcome.label, [0.0]))
        print(f"  {outcome.label:<20} {wall:8.3f} {outcome.candidates:6d} "
              f"{outcome.prefetches:4d} {before:11.0f} {after:10.0f} "
              f"{100.0 * ratio(after, before):7.2f}%")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/repro and "
              f"BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    if args.setup_probe:
        sampler = hostspeed.Sampler().start()
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]  # kernel, worker, cache and fault overrides
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare()
        print(json.dumps(sampler.stop().as_data()))
        return 0
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    context = workload.prepare()
    passes = run_passes(workload, context, args.seed, args.seconds,
                        bool(args.trace))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(own, workers) / 1024.0
    for p in passes:
        workload.convert(p.run)
    problems = check_passes(workload, context, passes, args.seed)

    outcomes = passes[0].run.outcomes
    attempted = sum(p.run.attempted for p in passes)
    failed = sum(len(p.run.failures) for p in passes)
    failed += sum(1 for p in passes for o in p.run.outcomes
                  if o.label in problems)
    failed += len(problems.get("traced passes", []))
    if not outcomes:
        print("error: every operation failed", file=sys.stderr)
        for p in passes:
            for message in p.run.failures:
                print(f"  {message}", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(passes, outcomes)
    else:
        values = end_to_end(passes, outcomes, peak_rss_mb,
                            setup_seconds(args.workload))
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"{sorted(missing)}")

    kinds = "untraced/traced alternating" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({kinds})  operations per pass {passes[0].run.attempted}")
    print("pass wall_s: " + " ".join(f"{p.wall:.4f}" for p in passes))
    untraced = [p for p in passes if not p.traced]
    print("untraced pass host speed (reference = 1): " + " ".join(
        f"{p.speed:.3f}" for p in untraced))
    print(f"wall_s = {statistics.median(p.wall for p in untraced):.4f} s, "
          f"cpu_s = {statistics.median(p.cpu for p in untraced):.4f} s "
          f"(host seconds, median over untraced passes)")
    if args.workload in ("optimize", "hierarchy"):
        print_rows(passes, outcomes)
    samples = [s for p in passes if not p.traced for s in p.run.op_seconds]
    value, percentile, count = tail(samples)
    print(f"op_p50_s = {statistics.median(samples):.6f} s, op_tail_s = "
          f"{value:.6f} s (p{percentile:.1f} of {count} untraced operation "
          f"samples)")
    if args.trace:
        print_attribution(passes)
    else:
        for name in ("wcet", "acet", "energy"):
            print(f"{name}_gain_pct = {100.0 - values[f'{name}_ratio_pct']:.3f}"
                  f" % (100 - {name}_ratio_pct)")
        print(f"instr_overhead_pct = {values['instr_ratio_pct'] - 100.0:.3f}"
              f" % (instr_ratio_pct - 100)")
    violations = bound_violations(outcomes)
    print(f"bound_violations = {len(violations)} of {executables(outcomes)} "
          f"executables (simulated memory cycles above τ_w)")
    for line in violations:
        print(f"  {line}")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    for label, messages in sorted(problems.items()):
        for message in messages:
            print(f"  FAILED {label}: {message}")
    for p in passes:
        for message in p.run.failures:
            print(f"  FAILED {message}")
    for metric in wanted:
        print(f"{metric['name']:<32} {values[metric['name']]:>16.6f} "
              f"{metric['unit']:<6} ({metric['better']} is better)")
    print("deterministic " + json.dumps(
        deterministic_summary(outcomes, passes), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
