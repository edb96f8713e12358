"""History datastore backends compared (the §7 bottleneck, itemised).

Times a full history-aware voting round against every store backend —
in-memory, JSONL append log, SQLite, packed segments, and the tiered
store's write-behind (``flush_every=16``) over each durable backend —
through one series' view, and checks the ordering a deployment would base
its choice on.
"""

from __future__ import annotations

import itertools
import time

from repro.analysis.report import render_table
from repro.history import (
    JsonlStateStore,
    MemoryStateStore,
    PackedHistoryStore,
    SqliteStateStore,
    TieredHistoryStore,
    series_filename,
)
from repro.types import Round
from repro.voting.hybrid import HybridVoter

VALUES = [18.0, 18.1, 17.9, 18.15, 18.05]


def _time_store(store, n=200, repeats=3):
    """Best per-round time over ``repeats`` runs of ``n`` rounds: one
    run is short enough for a scheduler hiccup to reorder backends."""
    counter = itertools.count()
    best = float("inf")
    for _ in range(repeats):
        voter = HybridVoter(history_store=store)
        rounds = [Round.from_values(next(counter), VALUES) for _ in range(n)]
        start = time.perf_counter()
        for voting_round in rounds:
            voter.vote(voting_round)
        best = min(best, (time.perf_counter() - start) / n)
    return best


def test_store_backend_comparison(benchmark, tmp_path):
    def measure():
        _time_store(None, n=100)  # warm caches before comparing
        return {
            "none (in-process)": _time_store(None),
            "memory": _time_store(MemoryStateStore().store_for("s")),
            "jsonl": _time_store(
                JsonlStateStore(tmp_path / "a", compact_after=512).store_for("s")
            ),
            "sqlite": _time_store(SqliteStateStore(tmp_path / "a.db").store_for("s")),
            "jsonl+write-behind": _time_store(
                TieredHistoryStore(
                    JsonlStateStore(tmp_path / "b", compact_after=512),
                    flush_every=16,
                ).store_for("s")
            ),
            "sqlite+write-behind": _time_store(
                TieredHistoryStore(
                    SqliteStateStore(tmp_path / "b.db"), flush_every=16
                ).store_for("s")
            ),
            "packed": _time_store(
                PackedHistoryStore(tmp_path / "packed").store_for("s")
            ),
            "tiered(packed)": _time_store(
                TieredHistoryStore(
                    PackedHistoryStore(tmp_path / "tiered")
                ).store_for("s")
            ),
            "tiered(packed)+flush16": _time_store(
                TieredHistoryStore(
                    PackedHistoryStore(tmp_path / "tiered16"), flush_every=16
                ).store_for("s")
            ),
        }

    timings = benchmark.pedantic(measure, iterations=1, rounds=1)
    rows = [[name, f"{t * 1e6:.1f}"] for name, t in timings.items()]
    print("\nHistory-aware round latency per store backend (µs):")
    print(render_table(["backend", "µs/round"], rows))

    # Only orderings with large expected effect sizes are asserted —
    # these are micro-benchmarks on a shared host, and small deltas
    # (e.g. WAL-mode SQLite vs its write-behind wrapper) sit inside the
    # scheduling jitter.
    slack = 1.10
    assert timings["none (in-process)"] <= timings["jsonl"] * slack
    assert timings["jsonl+write-behind"] <= timings["jsonl"] * slack
    # The write-behind wrapper never costs more than ~50 % over its
    # backing store (it only adds dict copies between flushes).
    assert timings["sqlite+write-behind"] <= timings["sqlite"] * 1.5
    assert timings["jsonl"] > timings["none (in-process)"] * 0.9
    # Batching writes through the tiered hot set must not cost more
    # than the write-through path (it skips 15 of 16 block appends).
    assert (
        timings["tiered(packed)+flush16"] <= timings["tiered(packed)"] * 1.1
    )


def test_jsonl_log_growth_is_bounded_by_compaction(benchmark, tmp_path):
    def run():
        store = JsonlStateStore(tmp_path / "grow", compact_after=64)
        voter = HybridVoter(history_store=store.store_for("s"))
        counter = itertools.count()
        for _ in range(400):
            voter.vote(Round.from_values(next(counter), VALUES))
        log = tmp_path / "grow" / series_filename("s")
        return sum(1 for line in log.read_text().splitlines() if line.strip())

    snapshots = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nJSONL snapshots on disk after 400 rounds: {snapshots}")
    assert snapshots <= 64
