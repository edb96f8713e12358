"""Shared pieces of the layer-ledger benchmark.

Seeded UC-1 inputs, the bit-identity oracle, percentile helpers, the
host stamp and the peak-RSS probe.  Nothing here starts a thread or
opens a socket.
"""

from __future__ import annotations

import os
import platform
import struct
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import Round, fuse
from repro.datasets.injection import offset_fault
from repro.datasets.light_uc1 import UC1Config, generate_uc1_dataset
from repro.vdx.examples import AVOC_SPEC
from repro.vdx.factory import build_engine

MODULES: Tuple[str, ...] = ("E1", "E2", "E3", "E4", "E5")

#: The paper's UC-1 fault: +6 kilolumen on E4 (Fig. 6).
FAULT_MODULE = "E4"
FAULT_DELTA = 6.0

#: Candidate percentiles for the tail metric, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: End-to-end latency figures are medians over up to this many
#: consecutive, equal-count windows of a phase's samples (each window
#: holding at least :data:`WINDOW_MIN` samples), so one burst of host
#: noise moves one window, not the figure.
WINDOWS = 5
WINDOW_MIN = 100


def uc1_matrix(seed: int, n_rounds: int, fault: bool = False) -> np.ndarray:
    """A rounds × 5 UC-1 light matrix, optionally with the E4 fault."""
    dataset = generate_uc1_dataset(UC1Config(seed=seed, n_rounds=n_rounds))
    if fault:
        dataset = offset_fault(dataset, FAULT_MODULE, FAULT_DELTA)
    return dataset.matrix


def series_matrices(seed: int, names: Sequence[str], n_rounds: int) -> Dict[str, np.ndarray]:
    """One UC-1 matrix per series; every other series carries the fault."""
    return {
        name: uc1_matrix(seed * 1000 + k, n_rounds, fault=k % 2 == 1)
        for k, name in enumerate(names)
    }


def as_values(row: np.ndarray) -> Dict[str, Optional[float]]:
    return {m: (None if np.isnan(v) else float(v)) for m, v in zip(MODULES, row)}


# -- statistics -----------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)``: the highest candidate percentile with at least
    ten samples beyond it (the median when there are fewer than 20)."""
    n = len(samples)
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q, percentile(samples, q)
    return 50.0, percentile(samples, 50.0)


def _summary(groups: Sequence[np.ndarray], combine) -> Dict[str, float]:
    tails = [tail(group) for group in groups]
    return {
        "p50": float(combine([percentile(group, 50) for group in groups])),
        "tail": float(combine([value for _, value in tails])),
        "tail_percentile": min(q for q, _ in tails),
        "group_samples": min(len(group) for group in groups),
        "groups": len(groups),
    }


def windowed(samples: Sequence[float]) -> Dict[str, float]:
    """Median over consecutive windows of each window's p50 and tail."""
    count = max(1, min(WINDOWS, len(samples) // WINDOW_MIN))
    return _summary(np.array_split(np.asarray(samples, dtype=float), count), np.median)


def stratified(samples: Sequence[float], strata: Sequence[Any]) -> Dict[str, float]:
    """Mean over strata (e.g. input recordings) of each one's p50 and tail."""
    groups: Dict[Any, List[float]] = defaultdict(list)
    for stratum, sample in zip(strata, samples):
        groups[stratum].append(sample)
    return _summary([np.asarray(g) for g in groups.values()], np.mean)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


# -- host stamp and memory --------------------------------------------------


def host_stamp(seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb(child_pids: Iterable[Optional[int]] = ()) -> float:
    """Peak RSS of this process plus the given (live) children."""
    total = vm_hwm_mb(os.getpid())
    for pid in child_pids:
        if pid is not None:
            total += vm_hwm_mb(pid)
    return total


# -- the oracle ---------------------------------------------------------------


def _bits(value: Optional[float]) -> bytes:
    return struct.pack("<d", float("nan") if value is None else float(value))


class Oracle:
    """Bit-identity check of served values against offline ``fuse``.

    Rows are recorded per series in the order they were applied; each
    served ``{"value", "status"}`` payload fills the slot of its row.
    :meth:`check` fuses every series' applied rows in one offline
    ``repro.fuse`` call and compares every served round bit for bit.
    """

    def __init__(self) -> None:
        self._rows: Dict[str, List[np.ndarray]] = defaultdict(list)
        self._served: Dict[str, List[Optional[dict]]] = defaultdict(list)
        self.mismatches: List[str] = []
        self.checked = 0

    def apply(self, series: str, row: np.ndarray) -> int:
        """Record a row sent for ``series``; returns its slot."""
        self._rows[series].append(row)
        self._served[series].append(None)
        return len(self._rows[series]) - 1

    def serve(self, series: str, slot: int, payload: dict) -> None:
        self._served[series][slot] = payload

    def withdraw(self, series: str, slot: int) -> None:
        """Forget a row whose request failed (taken as never applied)."""
        self._served[series][slot] = {"withdrawn": True}

    def check(self) -> int:
        for series, rows in self._rows.items():
            served = self._served[series]
            kept = [i for i, p in enumerate(served) if not (p and p.get("withdrawn"))]
            if not kept:
                continue
            expected = fuse(np.vstack([rows[i] for i in kept]), AVOC_SPEC, modules=MODULES)
            for k, i in enumerate(kept):
                payload = served[i]
                if payload is None:
                    continue  # failed or unanswered: counted as failed, not checked
                self.checked += 1
                want = float(expected.values[k])
                if (
                    _bits(payload.get("value")) != _bits(None if np.isnan(want) else want)
                    or payload.get("status") != str(expected.statuses[k])
                ):
                    self.mismatches.append(
                        f"{series}[{k}]: served {payload!r}, offline fuse "
                        f"{want!r}/{expected.statuses[k]}"
                    )
        return len(self.mismatches)


def scalar_reference(matrix: np.ndarray) -> np.ndarray:
    """Per-round ``FusionEngine.process`` loop over a matrix (no kernel)."""
    engine = build_engine(AVOC_SPEC)
    out = np.empty(len(matrix))
    for n, row in enumerate(matrix):
        result = engine.process(Round.from_mapping(n, as_values(row)))
        out[n] = np.nan if result.value is None else float(result.value)
    return out
