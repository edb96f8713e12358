"""Untraced and traced runs of one workload, and their reports."""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import get_default_registry

from .common import host_stamp, peak_rss_mb, percentile, stratified, tail, windowed
from .ladder import RUNGS, obs_overhead, run_ladder, store_us_per_round, wire_costs
from .spans import ObsDelta, Tracer, engine_metrics, layer_metrics, traced
from .workloads import WORKLOADS, Phase, Stack, Workload


class Outcome:
    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}
        self.lines: List[str] = []
        self.correct = False
        self.attempted = 0
        self.failed = 0


@contextmanager
def _booted(workload: Workload, state_dir: Path) -> Iterator[Stack]:
    stack = None
    try:
        stack = workload.setup(state_dir)
        yield stack
    finally:
        if stack is not None:
            stack.close()


def _phase_report(phase: Phase) -> Dict[str, Any]:
    q, value = tail(phase.latencies) if phase.latencies else (50.0, 0.0)
    return {
        "sent": phase.attempted,
        "succeeded": phase.attempted - phase.failed,
        "failed": phase.failed,
        "refused": phase.refused,
        "rounds": phase.rounds,
        "elapsed_s": phase.elapsed,
        "latency_samples": len(phase.latencies),
        "latency_tail_percentile": q,
        "latency_tail_ms": value * 1e3,
        "latency_ms": {
            f"p{q:g}": percentile(phase.latencies, q) * 1e3 for q in (50, 90, 95, 99)
        } if phase.latencies else {},
        "lateness_tail_ms": tail(phase.lateness)[1] * 1e3 if phase.lateness else 0.0,
    }


def _finish(outcome: Outcome, phase: Phase, stacks: List[Stack], extra: List[str]) -> None:
    """Run the oracle over every stack; fill correctness and counts."""
    mismatches = list(extra)
    checked = 0
    for stack in stacks:
        stack.oracle.check()
        mismatches.extend(stack.oracle.mismatches)
        checked += stack.oracle.checked
    outcome.attempted = max(1, phase.attempted)
    outcome.failed = min(outcome.attempted, phase.failed + len(mismatches))
    outcome.correct = not mismatches and checked > 0
    outcome.report["oracle"] = {
        "rounds_checked": checked,
        "mismatches": len(mismatches),
        "first_mismatches": mismatches[:5],
    }
    outcome.report["failed_frac"] = outcome.failed / outcome.attempted
    if mismatches:
        outcome.lines.append(f"FAIL: {len(mismatches)} served values differ from offline fuse")
        outcome.lines.extend("  " + m for m in mismatches[:5])


def untraced_run(args: Any, state: Path, setups: int) -> Outcome:
    """End-to-end metrics: ``setups`` fresh set-ups, the last one timed."""
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    outcome = Outcome()
    stacks: List[Stack] = []
    phase: Optional[Phase] = None
    rss = 0.0
    for i in range(setups):
        with _booted(workload, state / f"setup-{i}") as stack:
            stacks.append(stack)
            if i == setups - 1:
                phase = workload.run(stack, args.seconds)
                rss = peak_rss_mb(stack.child_pids())
    assert phase is not None
    setup_times = [s.setup_s for s in stacks]
    latency = (
        stratified(phase.latencies, phase.strata) if phase.strata else windowed(phase.latencies)
    )
    outcome.metrics = {
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": phase.rounds / phase.elapsed,
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_tail_ms": latency["tail"] * 1e3,
        "peak_rss_mb": rss,
    }
    outcome.report = {
        "workload": args.workload,
        "host": host_stamp(args.seed),
        "seconds": args.seconds,
        "setup_s_each": setup_times,
        "setup_phase": {"sent": sum(sum(s.rounds.values()) for s in stacks)},
        "timed_phase": _phase_report(phase),
        "latency_windows": latency,
    }
    _finish(outcome, phase, stacks, [])
    outcome.lines.append(
        f"{args.workload} seed={args.seed} nproc={outcome.report['host']['nproc']}: "
        + ", ".join(f"{k}={v:.6g}" for k, v in outcome.metrics.items())
        + f" ({latency['groups']} groups of >={latency['group_samples']} samples; "
        f"tail = p{latency['tail_percentile']:g}; "
        f"failed_frac={outcome.report['failed_frac']:.6g})"
    )
    return outcome


#: Ladder rung → the span-derived self time (ms) it should match.
CROSS_CHECK = {
    "engine": "engine.batch_ms_mean",
    "engine+store": "store ablation",
    "shard.dispatch": "shard.self_ms_mean",
    "shard.tcp": "link.wire_ms_p50",
    "gateway": "gateway.self_ms_p50",
    "ingest": "ingest.wait_ms_p50",
}


def traced_run(args: Any, state: Path) -> Outcome:
    """Per-layer metrics: an untraced phase, a traced phase, the ladder
    and the in-process ablations, each from fresh state."""
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    outcome = Outcome()
    with _booted(workload, state / "plain") as plain_stack:
        plain = workload.run(plain_stack, args.seconds)
    tracer = Tracer()
    main: Optional[Dict[str, Any]] = None
    with _booted(workload, state / "traced") as stack:
        if workload.front is not None:
            before = stack.obs()
            with traced(stack.gateway, tracer):
                phase = workload.run(stack, args.seconds)
            main = layer_metrics(tracer, ObsDelta(before, stack.obs()), phase.requests(), workload.front)
        else:
            before = get_default_registry().snapshot()
            phase = workload.run(stack, args.seconds)
            engine = engine_metrics(before, get_default_registry().snapshot())

    ladder = run_ladder(workload.ladder_votes(), state / "ladder")
    store = store_us_per_round(workload.batches(), state)
    wire = wire_costs(workload.requests())
    obs = obs_overhead(workload.batches())

    top = ladder["traced_top"]
    own = main["metrics"] if main is not None else engine
    reconcile = main["reconcile"] if main is not None else top["reconcile"]
    metrics: Dict[str, float] = dict(top["metrics"])  # layers this workload bypasses
    metrics.update(own)
    plain_p50 = percentile(plain.latencies, 50)
    metrics.update({
        "store.us_per_round": store["us_per_round"],
        "wire.encode_us": wire["v3_encode_us"],
        "wire.decode_us": wire["v3_decode_us"],
        "obs.overhead_frac": obs["overhead_frac"],
        "trace.overhead_frac": percentile(phase.latencies, 50) / plain_p50 - 1.0,
        "gen.lateness_ms_tail": tail(plain.lateness)[1] * 1e3,
    })
    outcome.metrics = metrics
    outcome.report = {
        "workload": args.workload,
        "host": host_stamp(args.seed),
        "seconds": args.seconds,
        "untraced_phase": _phase_report(plain),
        "traced_phase": _phase_report(phase),
        "reconcile": reconcile,
        "layers_from_ladder": sorted(set(top["metrics"]) - set(own)),
        "ladder": {k: v for k, v in ladder.items() if k != "traced_top"},
        "ladder_reconcile": top["reconcile"],
        "store_ablation": store,
        "wire": wire,
        "obs_ablation": obs,
    }
    if main is not None:
        outcome.report["trace_samples"] = main["samples"]
    _finish(outcome, phase, [plain_stack, stack], ladder["mismatches"])

    flag = "ok" if reconcile["ok"] else "OUT OF TOLERANCE"
    outcome.lines.append(
        f"{args.workload} seed={args.seed}: span reconciliation residual "
        f"{reconcile['residual_ms']:.4g} ms of {reconcile['latency_mean_ms']:.4g} ms mean latency "
        f"({reconcile['residual_frac']:+.1%}, tolerance ±{reconcile['tolerance_frac']:.0%}): {flag}"
    )
    for hop, value in reconcile["hops_ms"].items():
        outcome.lines.append(f"  {hop:<16} {value:10.4f} ms")
    outcome.lines.append("ablation ladder, ms per vote: rung p50, marginal, span-derived self time")
    span_self = dict(top["metrics"], **{"store ablation": store["us_per_round"] / 1e3})
    for rung in RUNGS:
        outcome.lines.append(
            f"  {rung:<15} {ladder['p50_ms'][rung]:9.4f} {ladder['marginal_ms'][rung]:+9.4f}"
            f"   {CROSS_CHECK[rung]}={span_self[CROSS_CHECK[rung]]:.4f}"
        )
    for name, value in metrics.items():
        outcome.lines.append(f"  {name:<32} {value:.6g}")
    return outcome
