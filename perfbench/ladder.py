"""The ablation ladder and the in-process ablations of the traced run.

The ladder sends the same single-round votes (the workload's own rows,
one ``vote_batch`` row or one ``vote`` at a time, closed loop) through
six rungs, each adding one layer to the one below it:

    engine → engine+store → shard.dispatch → shard.tcp → gateway → ingest

A rung's marginal cost is its p50 per-vote latency minus the p50 of
the rung below: one baseline plus one run per added component, with
the metric delta as that component's share.  Every rung starts from
fresh state and every answer is checked against offline ``fuse``.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro.cluster.backend import ShardServer
from repro.history import PackedHistoryStore, TieredHistoryStore
from repro.obs import MetricsRegistry
from repro.service.client import VoterClient
from repro.service.protocol import (
    FRAME_HEADER,
    decode_frame_payload,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.vdx.examples import AVOC_SPEC
from repro.vdx.factory import build_engine

from .common import MODULES, Oracle, as_values, percentile
from .spans import ObsDelta, Tracer, layer_metrics, traced
from .workloads import Stack, boot_cluster

RUNGS = ("engine", "engine+store", "shard.dispatch", "shard.tcp", "gateway", "ingest")

Vote = Tuple[str, np.ndarray]


def _one_batch(series: str, number: int, row: np.ndarray) -> Dict[str, Any]:
    return {"series": series, "rounds": [number], "modules": list(MODULES), "rows": [row.tolist()]}


def _payload(outcome: Any) -> Dict[str, Any]:
    value = float(outcome.values[0])
    return {"value": None if np.isnan(value) else value, "status": str(outcome.statuses[0])}


def _drive(
    votes: Sequence[Vote], send: Callable[[str, int, np.ndarray], Dict[str, Any]]
) -> Tuple[List[Tuple[Tuple[str, int], float]], Oracle]:
    """Send votes one at a time; returns ``((series, round), seconds)``
    per vote and the oracle."""
    oracle = Oracle()
    rounds: Dict[str, int] = {}
    timed = []
    for series, row in votes:
        number = rounds.get(series, 0)
        rounds[series] = number + 1
        slot = oracle.apply(series, row)
        start = time.perf_counter()
        payload = send(series, number, row)
        timed.append(((series, number), time.perf_counter() - start))
        oracle.serve(series, slot, payload)
    return timed, oracle


def _engines(store_for: Callable[[str], Any]) -> Callable[[str, int, np.ndarray], Dict[str, Any]]:
    engines: Dict[str, Any] = {}
    registry = MetricsRegistry()

    def send(series: str, number: int, row: np.ndarray) -> Dict[str, Any]:
        engine = engines.get(series)
        if engine is None:
            engine = engines[series] = build_engine(
                AVOC_SPEC, history_store=store_for(series), registry=registry
            )
        return _payload(engine.process_batch(row[None, :], MODULES))

    return send


def run_ladder(votes: Sequence[Vote], state_dir: Path) -> Dict[str, Any]:
    """Every rung over ``votes``, then a traced pass of the top rung."""
    p50_ms: Dict[str, float] = {}
    mismatches: List[str] = []

    def rung(name: str, send: Callable[[str, int, np.ndarray], Dict[str, Any]]) -> None:
        timed, oracle = _drive(votes, send)
        oracle.check()
        mismatches.extend(f"{name}: {m}" for m in oracle.mismatches)
        p50_ms[name] = percentile([seconds for _, seconds in timed], 50) * 1e3

    rung("engine", _engines(lambda series: None))

    tiered = TieredHistoryStore(PackedHistoryStore(state_dir / "tiered"), registry=MetricsRegistry())
    try:
        rung("engine+store", _engines(tiered.store_for))
    finally:
        tiered.close()

    shard = ShardServer(AVOC_SPEC, history_dir=state_dir / "shard-a", store="packed", registry=MetricsRegistry())
    try:
        rung("shard.dispatch", lambda s, n, row: shard.dispatch(
            {"op": "vote_batch", "batches": [_one_batch(s, n, row)]})["results"][0]["results"][0])
    finally:
        shard.stop()

    shard = ShardServer(AVOC_SPEC, history_dir=state_dir / "shard-b", store="packed", registry=MetricsRegistry())
    shard.start()
    client = VoterClient(*shard.address)
    try:
        client.connect()
        client.negotiate("auto")
        rung("shard.tcp", lambda s, n, row: client.vote_batch([_one_batch(s, n, row)])[0]["results"][0])
    finally:
        client.close()
        shard.stop()

    def on_stack(name: str, ingest: bool, tracer: Any = None) -> Dict[str, Any]:
        stack = Stack(Oracle())
        try:
            address = boot_cluster(stack, state_dir / name, ingest=ingest)
            with repro.connect(address, transport="binary") as conn:
                if ingest:
                    def send(s, n, row):
                        return conn.vote(n, as_values(row), series=s)
                else:
                    def send(s, n, row):
                        return conn.vote_batch([_one_batch(s, n, row)])[0]["results"][0]
                if tracer is None:
                    rung(name, send)
                    return {}
                before = stack.obs()
                with traced(stack.gateway, tracer):
                    timed, oracle = _drive(votes, send)
                after = stack.obs()
            oracle.check()
            mismatches.extend(f"{name}: {m}" for m in oracle.mismatches)
            return layer_metrics(tracer, ObsDelta(before, after), timed, "ingest")
        finally:
            stack.close()

    on_stack("gateway", ingest=False)
    on_stack("ingest", ingest=True)
    top = on_stack("ingest-traced", ingest=True, tracer=Tracer())
    marginal = {
        name: p50_ms[name] - (p50_ms[RUNGS[i - 1]] if i else 0.0)
        for i, name in enumerate(RUNGS)
    }
    shutil.rmtree(state_dir, ignore_errors=True)
    return {
        "votes": len(votes),
        "p50_ms": p50_ms,
        "marginal_ms": marginal,
        "traced_top": top,
        "mismatches": mismatches,
    }


# -- in-process ablations ---------------------------------------------------------


def _best_of(reps: int, fn: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _process(batches: Sequence[Vote], store_for: Callable[[str], Any]) -> None:
    engines: Dict[str, Any] = {}
    registry = MetricsRegistry()
    for series, rows in batches:
        if series not in engines:
            engines[series] = build_engine(
                AVOC_SPEC, history_store=store_for(series), registry=registry
            )
        engines[series].process_batch(rows, MODULES)


def store_us_per_round(batches: Sequence[Vote], state_dir: Path, reps: int = 3) -> Dict[str, float]:
    """``process_batch`` on the workload's batches, no store vs tiered+packed."""
    rounds = sum(len(rows) for _, rows in batches)

    def without() -> None:
        _process(batches, lambda series: None)

    def with_store() -> None:
        path = state_dir / "ablation-store"
        shutil.rmtree(path, ignore_errors=True)
        tiered = TieredHistoryStore(PackedHistoryStore(path), registry=MetricsRegistry())
        try:
            _process(batches, tiered.store_for)
        finally:
            tiered.close()
            shutil.rmtree(path, ignore_errors=True)

    bare = _best_of(reps, without)
    stored = _best_of(reps, with_store)
    return {
        "rounds": rounds,
        "bare_us_per_round": bare / rounds * 1e6,
        "store_us_per_round": stored / rounds * 1e6,
        "us_per_round": (stored - bare) / rounds * 1e6,
    }


def wire_costs(requests: Sequence[Dict[str, Any]], reps: int = 20) -> Dict[str, float]:
    """Per-request encode/decode µs of v3 frames (the negotiated wire)
    and of v2 JSON lines, on the workload's own requests."""
    frames = [encode_frame(r) for r in requests]
    lines = [encode_message(r) for r in requests]
    header = FRAME_HEADER.size
    n = len(requests)

    def per_request(fn: Callable[[], Any]) -> float:
        return _best_of(reps, fn) / n * 1e6

    return {
        "v3_encode_us": per_request(lambda: [encode_frame(r) for r in requests]),
        "v3_decode_us": per_request(lambda: [decode_frame_payload(f[header:]) for f in frames]),
        "v2_encode_us": per_request(lambda: [encode_message(r) for r in requests]),
        "v2_decode_us": per_request(lambda: [decode_message(line) for line in lines]),
    }


def obs_overhead(batches: Sequence[Vote], pairs: int = 5) -> Dict[str, float]:
    """``fuse`` on the workload's batches with the default registry on
    vs after ``repro.obs.disable()``; paired, alternating, min of each."""

    def fuse_all() -> None:
        for _, rows in batches:
            repro.fuse(rows, AVOC_SPEC, modules=MODULES)

    enabled = disabled = float("inf")
    try:
        for _ in range(pairs):
            repro.obs.enable()
            enabled = min(enabled, _best_of(1, fuse_all))
            repro.obs.disable()
            disabled = min(disabled, _best_of(1, fuse_all))
    finally:
        repro.obs.enable()
    return {
        "enabled_s": enabled,
        "disabled_s": disabled,
        "overhead_frac": enabled / disabled - 1.0,
    }
