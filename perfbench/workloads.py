"""The four workloads: seeded inputs, set-up, and the timed phase.

Every serving workload runs ``FusionCluster(AVOC_SPEC, n_shards=2,
replicas=2, mode="process", store="packed")`` over a fresh history
directory.  Load comes from this one process over at most two client
connections.  Each workload records every row it sends in an
:class:`~perfbench.common.Oracle`, which checks every served round
against offline ``repro.fuse`` after the run.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.cluster.supervisor import FusionCluster
from repro.ingest import AsyncIngestServer
from repro.obs import MetricsRegistry
from repro.service.client import ServiceError
from repro.service.protocol import (
    FRAME_HEADER,
    ErrorCode,
    decode_frame_header,
    decode_frame_payload,
    encode_frame,
)
from repro.vdx.examples import AVOC_SPEC

from .common import MODULES, Oracle, as_values, scalar_reference, series_matrices, uc1_matrix

#: Per-scale sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is for the smoke self-test.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "stream_series": 8, "stream_rate": 100, "stream_warmup": 4,
        "bulk_series": 16, "bulk_rounds": 100, "bulk_recorded": 1000,
        "fleet_devices": 1024, "fleet_hot": 128, "fleet_batch": 64, "fleet_recorded": 2048,
        "uc1_rounds": 10_000, "uc1_recordings": 8, "uc1_reference_rounds": 1000,
        "ladder_votes": 320,
    },
    "tiny": {
        "stream_series": 8, "stream_rate": 40, "stream_warmup": 2,
        "bulk_series": 16, "bulk_rounds": 10, "bulk_recorded": 100,
        "fleet_devices": 96, "fleet_hot": 16, "fleet_batch": 16, "fleet_recorded": 128,
        "uc1_rounds": 400, "uc1_recordings": 2, "uc1_reference_rounds": 100,
        "ladder_votes": 24,
    },
}

#: How long the open loop waits for the last responses before counting
#: the missing ones as timeouts.
DRAIN_TIMEOUT = 30.0


class Phase:
    """What one timed phase measured."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # seconds, successful requests
        self.keys: List[Tuple[str, int]] = []  # a round each request carried
        #: Optional input stratum per sample; latency figures are then
        #: per-stratum figures averaged (see ``common.stratified``).
        self.strata: List[int] = []
        self.lateness: List[float] = []  # seconds the generator sent late
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.elapsed = 0.0

    def requests(self) -> List[Tuple[Tuple[str, int], float]]:
        return list(zip(self.keys, self.latencies))


class Stack:
    """A booted serving stack (or, for ``uc1_offline``, nothing)."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.cluster: Optional[FusionCluster] = None
        self.ingest: Optional[AsyncIngestServer] = None
        self.clients: List[Any] = []
        self.control: Any = None
        self.setup_s = 0.0
        self.rounds: Dict[str, int] = {}

    @property
    def gateway(self) -> Any:
        assert self.cluster is not None
        return self.cluster.gateway

    def child_pids(self) -> List[Optional[int]]:
        if self.cluster is None:
            return []
        return [b.pid for b in self.cluster.backends.values()]

    def obs(self) -> Dict[str, Any]:
        """The gateway's aggregated registry snapshots (public ``obs`` op)."""
        return self.control.raw.request({"op": "obs"})

    def close(self) -> None:
        for client in self.clients + [self.control]:
            if client is not None:
                client.close()
        if self.ingest is not None:
            self.ingest.stop()
        if self.cluster is not None:
            self.cluster.stop()


def boot_cluster(stack: Stack, state_dir: Path, ingest: bool, **cluster_kw: Any) -> Tuple[str, int]:
    registry = MetricsRegistry()
    stack.cluster = FusionCluster(
        AVOC_SPEC, n_shards=2, replicas=2, mode="process", store="packed",
        history_root=state_dir, registry=registry, **cluster_kw,
    ).start()
    address = stack.cluster.address
    if ingest:
        stack.ingest = AsyncIngestServer(stack.gateway, registry=registry).start()
        address = stack.ingest.address
    stack.control = repro.connect(stack.cluster.address)
    return address


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""
    #: Hop in front of the gateway: "ingest", "client", or None (offline).
    front: Optional[str] = "client"

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SCALES[scale]

    def setup(self, state_dir: Path) -> Stack:
        """A fresh stack; ``setup_s`` times :meth:`_setup` alone."""
        stack = Stack(Oracle())
        try:
            start = time.perf_counter()
            self._setup(stack, state_dir)
            stack.setup_s = time.perf_counter() - start
        except BaseException:
            stack.close()
            raise
        return stack

    def _setup(self, stack: Stack, state_dir: Path) -> None:
        raise NotImplementedError

    def run(self, stack: Stack, seconds: float) -> Phase:
        raise NotImplementedError

    def ladder_votes(self) -> List[Tuple[str, np.ndarray]]:
        """``(series, row)`` pairs, in order, for the ablation ladder."""
        raise NotImplementedError

    def batches(self) -> List[Tuple[str, np.ndarray]]:
        """``(series, rows)`` in the workload's batch shape (ablations)."""
        raise NotImplementedError

    def requests(self) -> List[Dict[str, Any]]:
        """Requests as the workload's client sends them (wire costs)."""
        raise NotImplementedError


def _vote_batch(stack: Stack, client: Any, picks: Sequence[Tuple[str, np.ndarray]], phase: Optional[Phase]) -> None:
    """One ``vote_batch`` of ``(series, rows)`` picks, recorded in the oracle."""
    batches, slots = [], []
    for series, rows in picks:
        first = stack.rounds.get(series, 0)
        stack.rounds[series] = first + len(rows)
        slots.append([stack.oracle.apply(series, row) for row in rows])
        batches.append({
            "series": series, "rounds": list(range(first, first + len(rows))),
            "modules": list(MODULES), "rows": rows.tolist(),
        })
    sent = time.perf_counter()
    try:
        results = client.vote_batch(batches)
    except ServiceError:
        if phase is None:
            raise
        phase.attempted += 1
        phase.failed += 1
        # Taken as not applied; if it was, later rounds of these series
        # mismatch and the run fails.
        for (series, _), owned in zip(picks, slots):
            for slot in owned:
                stack.oracle.withdraw(series, slot)
        return
    done = time.perf_counter()
    for (series, _), result, owned in zip(picks, results, slots):
        for slot, payload in zip(owned, result["results"]):
            stack.oracle.serve(series, slot, payload)
    if phase is not None:
        phase.attempted += 1
        phase.rounds += sum(len(rows) for _, rows in picks)
        phase.latencies.append(done - sent)
        phase.keys.append((batches[0]["series"], batches[0]["rounds"][0]))


def _closed_loop(stack: Stack, seconds: float, next_picks) -> Phase:
    """One connection: send the next request as soon as one completes."""
    phase = Phase()
    client = stack.clients[0]
    start = prev = time.perf_counter()
    deadline = start + seconds
    while prev < deadline:
        picks = next_picks()
        phase.lateness.append(time.perf_counter() - prev)
        _vote_batch(stack, client, picks, phase)
        prev = time.perf_counter()
    phase.elapsed = prev - start
    return phase


class SensorStream(Workload):
    """Open loop: single votes at a fixed rate through the ingest tier."""

    name = "sensor_stream"
    front = "ingest"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.series = [f"light-{k}" for k in range(self.size["stream_series"])]
        self.recorded = series_matrices(seed, self.series, 512)

    def _row(self, series: str, number: int) -> np.ndarray:
        matrix = self.recorded[series]
        return matrix[number % len(matrix)]

    def _setup(self, stack: Stack, state_dir: Path) -> None:
        address = boot_cluster(stack, state_dir, ingest=True)
        stack.clients = [repro.connect(address, transport="binary") for _ in range(2)]
        for _ in range(self.size["stream_warmup"]):
            for k, series in enumerate(self.series):
                number = stack.rounds.get(series, 0)
                stack.rounds[series] = number + 1
                row = self._row(series, number)
                slot = stack.oracle.apply(series, row)
                payload = stack.clients[k % 2].vote(number, as_values(row), series=series)
                stack.oracle.serve(series, slot, payload)

    def run(self, stack: Stack, seconds: float) -> Phase:
        rate = self.size["stream_rate"]
        plan = []
        for i in range(int(rate * seconds)):
            k = i % len(self.series)
            series = self.series[k]
            number = stack.rounds.get(series, 0)
            stack.rounds[series] = number + 1
            row = self._row(series, number)
            plan.append((i / rate, k % 2, series, number, row, stack.oracle.apply(series, row)))
        phase = Phase()
        # The two negotiated client sockets move to the generator's event
        # loop, which pipelines votes on them without waiting for replies.
        socks = [client.raw._sock for client in stack.clients]
        errors: List[BaseException] = []

        def generate() -> None:
            try:
                asyncio.run(_open_loop(socks, plan, stack.oracle, phase))
            except BaseException as exc:  # re-raised below, in the caller
                errors.append(exc)

        thread = threading.Thread(target=generate, name="perfbench-generator")
        thread.start()
        thread.join()
        for client in stack.clients:
            client.raw._sock = None  # the event loop closed it
        if errors:
            raise errors[0]
        return phase

    def ladder_votes(self) -> List[Tuple[str, np.ndarray]]:
        n = self.size["ladder_votes"]
        return [
            (self.series[i % len(self.series)], self._row(self.series[i % len(self.series)], i // len(self.series)))
            for i in range(n)
        ]

    def batches(self) -> List[Tuple[str, np.ndarray]]:
        return [(series, row[None, :]) for series, row in self.ladder_votes()]

    def requests(self) -> List[Dict[str, Any]]:
        return [
            {"op": "vote", "round": i, "values": as_values(row), "series": series}
            for i, (series, row) in enumerate(self.ladder_votes())
        ]


async def _open_loop(socks, plan, oracle: Oracle, phase: Phase) -> None:
    streams = [await asyncio.open_connection(sock=sock) for sock in socks]
    fifos: List[deque] = [deque() for _ in streams]
    expected = [sum(1 for p in plan if p[1] == c) for c in range(len(streams))]
    due_at: List[float] = [0.0] * len(plan)

    async def read(conn: int) -> None:
        reader = streams[conn][0]
        for _ in range(expected[conn]):
            header = await reader.readexactly(FRAME_HEADER.size)
            payload = await reader.readexactly(decode_frame_header(header))
            done = time.perf_counter()
            index = fifos[conn].popleft()
            _, _, series, number, _, slot = plan[index]
            response = decode_frame_payload(payload)
            if response.get("ok"):
                oracle.serve(series, slot, response["result"])
                phase.latencies.append(done - due_at[index])
                phase.keys.append((series, number))
                phase.rounds += 1
            else:
                # Taken as not applied, as in ``_vote_batch``.
                phase.failed += 1
                phase.refused += response.get("code") == ErrorCode.BACKPRESSURE.value
                oracle.withdraw(series, slot)

    readers = [asyncio.ensure_future(read(c)) for c in range(len(streams))]
    start = time.perf_counter() + 0.05
    for index, (offset, conn, series, number, row, _) in enumerate(plan):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        due_at[index] = due
        request = {"op": "vote", "round": number, "values": as_values(row), "series": series}
        fifos[conn].append(index)
        streams[conn][1].write(encode_frame(request))
        phase.lateness.append(time.perf_counter() - due)
        phase.attempted += 1
    try:
        await asyncio.wait_for(asyncio.gather(*readers), DRAIN_TIMEOUT)
    except asyncio.TimeoutError:
        pass  # unanswered votes are counted as failed below
    phase.failed += sum(len(f) for f in fifos)
    phase.elapsed = time.perf_counter() - start
    for _, writer in streams:
        writer.close()
        await writer.wait_closed()


class GatewayBulk(Workload):
    """Closed loop: 16 series × 100 rounds per ``vote_batch``, no ingest."""

    name = "gateway_bulk"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.series = [f"bulk-{k}" for k in range(self.size["bulk_series"])]
        self.recorded = series_matrices(seed, self.series, self.size["bulk_recorded"])
        self._cursor: Dict[str, int] = {}

    def _next(self) -> List[Tuple[str, np.ndarray]]:
        """The next chunk of each series' recording (replayed cyclically)."""
        n = self.size["bulk_rounds"]
        picks = []
        for series in self.series:
            at = self._cursor.get(series, 0)
            matrix = self.recorded[series]
            picks.append((series, matrix[np.arange(at, at + n) % len(matrix)]))
            self._cursor[series] = at + n
        return picks

    def _setup(self, stack: Stack, state_dir: Path) -> None:
        self._cursor = {}
        address = boot_cluster(stack, state_dir, ingest=False)
        stack.clients = [repro.connect(address, transport="binary")]
        _vote_batch(stack, stack.clients[0], self._next(), None)

    def run(self, stack: Stack, seconds: float) -> Phase:
        return _closed_loop(stack, seconds, self._next)

    def ladder_votes(self) -> List[Tuple[str, np.ndarray]]:
        n = self.size["ladder_votes"]
        return [
            (self.series[i % len(self.series)], self.recorded[self.series[i % len(self.series)]][i // len(self.series)])
            for i in range(n)
        ]

    def batches(self) -> List[Tuple[str, np.ndarray]]:
        n = self.size["bulk_rounds"]
        return [(series, self.recorded[series][:n]) for series in self.series]

    def requests(self) -> List[Dict[str, Any]]:
        return [_request(self.batches())]


def _request(picks: Sequence[Tuple[str, np.ndarray]]) -> Dict[str, Any]:
    return {
        "op": "vote_batch",
        "batches": [
            {"series": s, "rounds": list(range(len(rows))), "modules": list(MODULES), "rows": rows.tolist()}
            for s, rows in picks
        ],
    }


class FleetCold(Workload):
    """Closed loop over a fleet several times the shards' hot bound."""

    name = "fleet_cold"

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        size = self.size
        self.devices = [f"dev-{d:05d}" for d in range(size["fleet_devices"])]
        self.recorded = uc1_matrix(seed, size["fleet_recorded"], fault=True)
        offsets = np.random.default_rng(seed + 1).integers(0, len(self.recorded), len(self.devices))
        self.offset = dict(zip(self.devices, offsets.tolist()))

    def _row(self, stack: Stack, device: str) -> np.ndarray:
        at = self.offset[device] + stack.rounds.get(device, 0)
        return self.recorded[at % len(self.recorded)][None, :]

    def _setup(self, stack: Stack, state_dir: Path) -> None:
        self.rng = np.random.default_rng(self.seed)
        address = boot_cluster(
            stack, state_dir, ingest=False, max_resident_series=self.size["fleet_hot"]
        )
        stack.clients = [repro.connect(address, transport="binary")]
        batch = self.size["fleet_batch"]
        order = self.rng.permutation(len(self.devices))
        for lo in range(0, len(order), batch):
            devices = [self.devices[d] for d in order[lo:lo + batch]]
            _vote_batch(stack, stack.clients[0], [(d, self._row(stack, d)) for d in devices], None)

    def run(self, stack: Stack, seconds: float) -> Phase:
        batch = self.size["fleet_batch"]

        def picks():
            chosen = self.rng.choice(len(self.devices), batch, replace=False)
            return [(self.devices[d], self._row(stack, self.devices[d])) for d in chosen]

        return _closed_loop(stack, seconds, picks)

    def ladder_votes(self) -> List[Tuple[str, np.ndarray]]:
        n = self.size["ladder_votes"]
        return [(d, self.recorded[self.offset[d]]) for d in self.devices[:n]]

    def batches(self) -> List[Tuple[str, np.ndarray]]:
        return [(d, row[None, :]) for d, row in self.ladder_votes()]

    def requests(self) -> List[Dict[str, Any]]:
        votes = self.batches()
        batch = self.size["fleet_batch"]
        return [_request(votes[lo:lo + batch]) for lo in range(0, len(votes), batch)]


class Uc1Offline(Workload):
    """In process: ``repro.fuse`` over faulty 10 000 × 5 UC-1 matrices.

    The cost of one ``fuse`` call depends on the recording (how often the
    history recurrence leaves its vectorized segments), so a run cycles
    through several recordings drawn from the seed rather than one.
    """

    name = "uc1_offline"
    front = None

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.matrices = [
            uc1_matrix(seed * 1000 + k, self.size["uc1_rounds"], fault=True)
            for k in range(self.size["uc1_recordings"])
        ]
        self.expected: List[np.ndarray] = []
        self._first: List[np.ndarray] = []

    def _fuse(self, k: int) -> np.ndarray:
        return repro.fuse(self.matrices[k], AVOC_SPEC, modules=MODULES).values

    def _setup(self, stack: Stack, state_dir: Path) -> None:
        """One warm-up ``fuse`` of every recording."""
        self._first = [self._fuse(k) for k in range(len(self.matrices))]

    def setup(self, state_dir: Path) -> Stack:
        stack = super().setup(state_dir)
        if not self.expected:
            # The first answers must match the per-round loop (on a prefix:
            # the voter is causal) before they serve as the reference.
            n = self.size["uc1_reference_rounds"]
            for k, values in enumerate(self._first):
                stack.oracle.checked += n
                if not np.array_equal(
                    values[:n].view(np.int64), scalar_reference(self.matrices[k][:n]).view(np.int64)
                ):
                    stack.oracle.mismatches.append(f"uc1[{k}]: fuse differs from the per-round loop")
            self.expected = [values.view(np.int64) for values in self._first]
        for k, values in enumerate(self._first):
            self._check(stack, k, values)
        return stack

    def _check(self, stack: Stack, k: int, values: np.ndarray) -> None:
        stack.oracle.checked += len(values)
        if not np.array_equal(values.view(np.int64), self.expected[k]):
            stack.oracle.mismatches.append(f"uc1[{k}]: fuse answer changed between calls")

    def run(self, stack: Stack, seconds: float) -> Phase:
        phase = Phase()
        start = prev = time.perf_counter()
        deadline = start + seconds
        k = 0
        while prev < deadline:
            sent = time.perf_counter()
            phase.lateness.append(sent - prev)
            values = self._fuse(k)
            prev = time.perf_counter()
            phase.latencies.append(prev - sent)
            phase.keys.append((f"uc1-{k}", 0))
            phase.strata.append(k)
            phase.attempted += 1
            phase.rounds += len(values)
            self._check(stack, k, values)
            k = (k + 1) % len(self.matrices)
        phase.elapsed = prev - start
        return phase

    def ladder_votes(self) -> List[Tuple[str, np.ndarray]]:
        return [("uc1", row) for row in self.matrices[0][: self.size["ladder_votes"]]]

    def batches(self) -> List[Tuple[str, np.ndarray]]:
        return [("uc1", self.matrices[0])]

    def requests(self) -> List[Dict[str, Any]]:
        return [_request([("uc1", self.matrices[0][:100])])]


WORKLOADS = {w.name: w for w in (SensorStream, GatewayBulk, FleetCold, Uc1Offline)}
