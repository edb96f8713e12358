"""Tests for write-behind caching: a tiered store with ``flush_every``
above 1 in front of a backing store, seen through one series' view."""

from __future__ import annotations

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import (
    JsonlStateStore,
    MemoryStateStore,
    TieredHistoryStore,
    series_filename,
)


class CountingStore(MemoryStateStore):
    """A memory backing that counts the calls reaching it."""

    def __init__(self):
        super().__init__()
        self.reads = 0
        self.writes = 0

    def read(self, series):
        self.reads += 1
        return super().read(series)

    def write(self, series, records, updates):
        self.writes += 1
        super().write(series, records, updates)


def _cached(backing, flush_every=16):
    return TieredHistoryStore(backing, hot_series=None, flush_every=flush_every)


class TestCaching:
    def test_reads_come_from_cache(self):
        backing = CountingStore()
        backing.write("k", {"E1": 0.5}, 1)
        view = _cached(backing, flush_every=100).store_for("k")
        assert view.load_state() == ({"E1": 0.5}, 1)
        reads_before = backing.reads
        for _ in range(10):
            view.load_state()
        assert backing.reads == reads_before  # no further backend reads

    def test_saves_deferred_until_flush_every(self):
        backing = CountingStore()
        store = _cached(backing, flush_every=4)
        view = store.store_for("k")
        for i in range(3):
            view.save_state({"E1": i / 10}, i + 1)
        assert backing.writes == 0
        assert store.dirty_count == 1
        view.save_state({"E1": 0.9}, 4)
        assert backing.writes == 1
        assert store.dirty_count == 0
        assert backing.read("k") == ({"E1": 0.9}, 4)

    def test_flush_every_one_is_write_through(self):
        backing = CountingStore()
        _cached(backing, flush_every=1).store_for("k").save_state({"E1": 0.3}, 1)
        assert backing.writes == 1

    def test_explicit_flush(self):
        backing = CountingStore()
        store = _cached(backing, flush_every=100)
        store.store_for("k").save_state({"E1": 0.2}, 1)
        store.flush()
        assert backing.read("k") == ({"E1": 0.2}, 1)
        assert store.writebacks == 1

    def test_flush_without_dirty_state_is_noop(self):
        backing = CountingStore()
        store = _cached(backing)
        store.flush()
        assert backing.writes == 0
        assert store.writebacks == 0

    def test_context_manager_flushes_on_exit(self, tmp_path):
        with _cached(JsonlStateStore(tmp_path), flush_every=100) as store:
            store.store_for("k").save_state({"E1": 0.7}, 3)
        assert JsonlStateStore(tmp_path).read("k") == ({"E1": 0.7}, 3)

    def test_clear_propagates(self):
        backing = CountingStore()
        backing.write("k", {"E1": 1.0}, 1)
        view = _cached(backing).store_for("k")
        view.clear()
        assert backing.read("k") is None
        assert view.load_state() is None

    def test_invalid_flush_every(self):
        with pytest.raises(HistoryStoreError):
            _cached(MemoryStateStore(), flush_every=0)


class TestVoterIntegration:
    def test_reduces_backend_writes_per_round(self, tmp_path):
        from repro.types import Round
        from repro.voting.hybrid import HybridVoter

        store = _cached(JsonlStateStore(tmp_path, compact_after=None), flush_every=10)
        voter = HybridVoter(history_store=store.store_for("k"))
        for i in range(40):
            voter.vote(Round.from_values(i, [18.0, 18.1, 17.9]))
        # 40 rounds, flushed every 10 -> exactly 4 backend writes.
        log = (tmp_path / series_filename("k")).read_text().splitlines()
        assert len(log) == 4
        store.flush()
        # State is still the latest record set.
        revived = HybridVoter(
            history_store=_cached(
                JsonlStateStore(tmp_path, compact_after=None)
            ).store_for("k")
        )
        assert revived.history.snapshot() == voter.history.snapshot()
        assert revived.history.update_count == 40

    def test_bounded_staleness_on_crash(self, tmp_path):
        from repro.types import Round
        from repro.voting.hybrid import HybridVoter

        store = _cached(JsonlStateStore(tmp_path), flush_every=10)
        voter = HybridVoter(history_store=store.store_for("k"))
        for i in range(15):
            voter.vote(Round.from_values(i, [18.0, 18.1, 17.9, 24.0]))
        # Simulated crash: no flush.  The backing store holds the
        # round-10 state, not round-15 — staleness is bounded.
        persisted = JsonlStateStore(tmp_path).read("k")
        assert persisted is not None  # the flush at round 10 happened
        assert persisted[1] == 10
        assert store.dirty_count == 1
