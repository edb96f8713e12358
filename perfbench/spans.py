"""Spans recorded from outside the program, and the per-layer ledger.

The benchmark times calls into each layer's public functions from its
own code: a wrapper around the gateway's ``dispatch`` (the sink the
ingest tier calls, and the function the gateway's TCP handler calls),
and a wrapper around ``VoterClient.request`` that records only calls
made on the gateway's ``link-*`` threads (the gateway → shard hop).
Shard and engine costs come from the counters the program already keeps,
read before and after a phase through the gateway's public ``obs`` op.

:func:`layer_metrics` turns one traced phase into the per-layer numbers
and the span reconciliation.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.service.client import VoterClient

from .common import mean, percentile, tail

#: Span reconciliation tolerance: the mean per-hop self times on the
#: blocking path must add up to the mean traced latency within this
#: share of it.
RECONCILE_TOLERANCE = 0.10


class Span:
    __slots__ = ("name", "start", "end", "thread", "request")

    def __init__(self, name: str, start: float, end: float, thread: str, request: Any):
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.request = request

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; wrappers append, analysis reads at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float, request: Any) -> None:
        span = Span(name, start, end, threading.current_thread().name, request)
        with self._lock:
            self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


@contextmanager
def traced(gateway: Any, tracer: Tracer) -> Iterator[None]:
    """Wrap ``gateway.dispatch`` and ``VoterClient.request`` (link threads)."""
    dispatch = gateway.dispatch
    request = VoterClient.request

    def timed_dispatch(message: Dict[str, Any]) -> Dict[str, Any]:
        start = time.perf_counter()
        try:
            return dispatch(message)
        finally:
            if message.get("op") in ("vote", "vote_batch"):
                tracer.record("gateway.dispatch", start, time.perf_counter(), message)

    def timed_request(client: VoterClient, message: Dict[str, Any]) -> Dict[str, Any]:
        if not threading.current_thread().name.startswith("link-"):
            return request(client, message)
        start = time.perf_counter()
        try:
            return request(client, message)
        finally:
            if message.get("op") == "vote_batch":
                tracer.record("link.request", start, time.perf_counter(), message)

    gateway.dispatch = timed_dispatch
    VoterClient.request = timed_request  # type: ignore[method-assign]
    try:
        yield
    finally:
        VoterClient.request = request  # type: ignore[method-assign]
        del gateway.dispatch


# -- obs snapshots ------------------------------------------------------------


def _family(snapshot: Dict[str, Any], name: str) -> Dict[str, Any]:
    return snapshot.get(name, {}).get("samples", {})


def _scalar(snapshot: Dict[str, Any], name: str, label: Optional[str] = None) -> float:
    """Sum of a counter/gauge family (optionally one label set)."""
    samples = _family(snapshot, name)
    if label is not None:
        return float(samples.get(label, 0.0))
    return float(sum(v for v in samples.values() if isinstance(v, (int, float))))


def _hist(snapshot: Dict[str, Any], name: str, label: Optional[str] = None) -> Tuple[float, float]:
    """``(count, sum)`` of a histogram family (optionally one label set)."""
    samples = _family(snapshot, name)
    picked = [samples[label]] if label is not None and label in samples else (
        [] if label is not None else list(samples.values())
    )
    return (
        float(sum(h["count"] for h in picked)),
        float(sum(h["sum"] for h in picked)),
    )


class ObsDelta:
    """Counter movement between two ``obs`` op answers."""

    def __init__(self, before: Dict[str, Any], after: Dict[str, Any]):
        self.before = before
        self.after = after

    def gateway(self, name: str) -> float:
        return _scalar(self.after["snapshot"], name) - _scalar(self.before["snapshot"], name)

    def gateway_hist(self, name: str) -> Tuple[float, float]:
        c1, s1 = _hist(self.after["snapshot"], name)
        c0, s0 = _hist(self.before["snapshot"], name)
        return c1 - c0, s1 - s0

    def shards(self) -> List[str]:
        return sorted(self.after["shards"])

    def shard(self, backend: str, name: str, label: Optional[str] = None) -> float:
        return _scalar(self.after["shards"][backend], name, label) - _scalar(
            self.before["shards"].get(backend, {}), name, label
        )

    def shard_hist(self, backend: str, name: str, label: Optional[str] = None) -> Tuple[float, float]:
        c1, s1 = _hist(self.after["shards"][backend], name, label)
        c0, s0 = _hist(self.before["shards"].get(backend, {}), name, label)
        return c1 - c0, s1 - s0

    def shard_total(self, name: str, label: Optional[str] = None) -> float:
        return sum(self.shard(b, name, label) for b in self.shards())

    def shard_gauge(self, name: str) -> float:
        return sum(_scalar(self.after["shards"][b], name) for b in self.shards())


def engine_metrics(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Engine metrics of in-process ``fuse`` calls (the default registry)."""
    c0, s0 = _hist(before, "fusion_batch_seconds")
    c1, s1 = _hist(after, "fusion_batch_seconds")
    rounds = _scalar(after, "fusion_rounds_total") - _scalar(before, "fusion_rounds_total")
    kernel = _scalar(after, "fusion_batch_rounds_total") - _scalar(before, "fusion_batch_rounds_total")
    return {
        "engine.batch_ms_mean": (s1 - s0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0,
        "engine.us_per_round": (s1 - s0) / rounds * 1e6 if rounds else 0.0,
        "engine.kernel_round_frac": kernel / rounds if rounds else 0.0,
    }


# -- the ledger -----------------------------------------------------------------


def _keys(request: Dict[str, Any]) -> List[Tuple[str, int]]:
    if request.get("op") == "vote":
        return [(request["series"], int(request["round"]))]
    return [
        (batch["series"], int(number))
        for batch in request.get("batches", ())
        for number in batch["rounds"]
    ]


def _rounds(request: Dict[str, Any]) -> int:
    return len(_keys(request))


def layer_metrics(
    tracer: Tracer,
    delta: ObsDelta,
    requests: Sequence[Tuple[Tuple[str, int], float]],
    front: str,
) -> Dict[str, Any]:
    """Per-layer numbers of one traced serving phase.

    Args:
        tracer: the spans recorded during the phase.
        delta: ``obs`` counters before/after the phase.
        requests: one ``((series, round), latency_seconds)`` per client
            request that succeeded; the key is any round the request
            carried, used to find the gateway dispatch that served it.
        front: name of the hop in front of the gateway (``"ingest"``
            when votes went through the ingest tier, ``"client"`` when
            the client spoke to the gateway directly).
    """
    dispatches = sorted(tracer.named("gateway.dispatch"), key=lambda s: s.start)
    links = sorted(tracer.named("link.request"), key=lambda s: s.start)
    by_key: Dict[Tuple[str, int], int] = {}
    for index, span in enumerate(dispatches):
        for key in _keys(span.request):
            by_key[key] = index
    # A link request belongs to the dispatch whose interval holds its
    # start: one flush is in flight at a time on every workload.
    starts = [s.start for s in dispatches]
    children: Dict[int, List[Span]] = {}
    for link in links:
        index = bisect.bisect_right(starts, link.start) - 1
        if index >= 0 and link.start <= dispatches[index].end:
            children.setdefault(index, []).append(link)

    latency_ms = [lat * 1e3 for _, lat in requests]
    front_wait = [
        (lat - dispatches[by_key[key]].seconds) * 1e3 for key, lat in requests if key in by_key
    ]
    dispatch_ms = [s.seconds * 1e3 for s in dispatches]
    # The slowest replica's link request is the one the dispatch waited on.
    critical = {i: max(links_i, key=lambda c: c.end) for i, links_i in children.items()}
    gateway_self = [
        (dispatches[i].seconds - link.seconds) * 1e3 for i, link in critical.items()
    ]

    # Shard and engine costs: per-shard means from the program's own
    # histograms, read through the gateway's obs op.
    shard_mean_ms: Dict[str, float] = {}
    shard_requests = shard_seconds = batch_seconds = batch_calls = 0.0
    for backend in delta.shards():
        count, total = delta.shard_hist(backend, "service_request_seconds", "op=vote_batch")
        calls, engine = delta.shard_hist(backend, "fusion_batch_seconds")
        shard_mean_ms[backend] = total / count * 1e3 if count else 0.0
        shard_requests += count
        shard_seconds += total
        batch_seconds += engine
        batch_calls += calls
    link_ms = [s.seconds * 1e3 for s in links]
    wire_ms = [
        s.seconds * 1e3 - shard_mean_ms.get(s.thread[len("link-"):], 0.0)
        for s in critical.values()
    ]
    rounds = delta.shard_total("fusion_rounds_total")
    shard_dispatch = shard_seconds / shard_requests * 1e3 if shard_requests else 0.0
    engine_per_request = batch_seconds / shard_requests * 1e3 if shard_requests else 0.0

    metrics: Dict[str, float] = {
        "gateway.dispatch_ms_p50": percentile(dispatch_ms, 50),
        "gateway.dispatch_ms_tail": tail(dispatch_ms)[1],
        "gateway.self_ms_p50": percentile(gateway_self, 50),
        "gateway.flush_rounds_mean": mean(_rounds(s.request) for s in links),
        "gateway.replica_disagreements": delta.gateway("cluster_replica_disagreements_total"),
        "link.roundtrip_ms_p50": percentile(link_ms, 50),
        "link.wire_ms_p50": percentile(wire_ms, 50),
        "shard.dispatch_ms_mean": shard_dispatch,
        "shard.self_ms_mean": shard_dispatch - engine_per_request,
        "engine.batch_ms_mean": batch_seconds / batch_calls * 1e3 if batch_calls else 0.0,
        "engine.us_per_round": batch_seconds / rounds * 1e6 if rounds else 0.0,
        "engine.kernel_round_frac": (
            delta.shard_total("fusion_batch_rounds_total") / rounds if rounds else 0.0
        ),
        "store.writebacks_per_round": delta.shard_total("store_writebacks_total") / rounds if rounds else 0.0,
        "store.rehydrations_per_round": delta.shard_total("store_rehydrations_total") / rounds if rounds else 0.0,
        "store.evictions_per_round": delta.shard_total("store_evictions_total") / rounds if rounds else 0.0,
        "store.segment_bytes": delta.shard_gauge("store_segment_bytes"),
    }
    if front == "ingest":
        count, total = delta.gateway_hist("ingest_coalesced_rounds")
        metrics["ingest.flush_rounds_mean"] = total / count if count else 0.0
        metrics["ingest.wait_ms_p50"] = percentile(front_wait, 50)
        metrics["ingest.refused"] = delta.gateway("ingest_backpressure_drops_total")

    # Reconciliation: per request, the self times along its blocking path
    # (front wait, gateway self, critical link wire, shard self, engine);
    # their means must add up to the mean traced latency.
    shard_self = shard_dispatch - engine_per_request
    hop_rows = []
    for key, lat in requests:
        index = by_key.get(key)
        link = critical.get(index) if index is not None else None
        if link is None:
            continue  # unmatched: its latency stays in the residual
        span = dispatches[index]
        backend = link.thread[len("link-"):]
        hop_rows.append((
            lat * 1e3 - span.seconds * 1e3,
            (span.seconds - link.seconds) * 1e3,
            link.seconds * 1e3 - shard_mean_ms.get(backend, 0.0),
            shard_self,
            engine_per_request,
        ))
    names = (f"{front}.wait", "gateway.self", "link.wire", "shard.self", "engine")
    hops = {
        name: sum(row[k] for row in hop_rows) / len(requests) if requests else 0.0
        for k, name in enumerate(names)
    }
    latency_mean = mean(latency_ms)
    residual = latency_mean - sum(hops.values())
    reconcile = {
        "latency_mean_ms": latency_mean,
        "hops_ms": hops,
        "unmatched_requests": len(requests) - len(hop_rows),
        "residual_ms": residual,
        "residual_frac": residual / latency_mean if latency_mean else 0.0,
        "tolerance_frac": RECONCILE_TOLERANCE,
    }
    reconcile["ok"] = abs(reconcile["residual_frac"]) <= RECONCILE_TOLERANCE
    return {
        "metrics": metrics,
        "reconcile": reconcile,
        "samples": {
            "requests": len(requests),
            "dispatch_spans": len(dispatches),
            "link_spans": len(links),
            "shard_requests": shard_requests,
        },
        "cluster_batch_rounds": delta.gateway_hist("cluster_batch_rounds"),
    }
