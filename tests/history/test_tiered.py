"""Tests for the LRU-tiered history store and its per-series views."""

from __future__ import annotations

import random
import time

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import (
    JsonlStateStore,
    MemoryStateStore,
    PackedHistoryStore,
    SqliteStateStore,
    TieredHistoryStore,
    series_filename,
)
from repro.obs import MetricsRegistry
from repro.voting.history import HistoryRecords


def _tiered(hot=4, **kwargs):
    return TieredHistoryStore(MemoryStateStore(), hot_series=hot, **kwargs)


class TestHotSet:
    def test_hot_set_never_exceeds_capacity(self):
        store = _tiered(hot=3)
        for k in range(10):
            store.write(f"s{k}", {"E1": 0.5}, k)
        assert store.hot_size == 3
        assert store.evictions == 7

    def test_unbounded_keeps_everything_resident(self):
        store = _tiered(hot=None)
        for k in range(100):
            store.write(f"s{k}", {"E1": 0.5}, k)
        assert store.hot_size == 100
        assert store.evictions == 0

    def test_lru_order_evicts_least_recently_used(self):
        store = _tiered(hot=2)
        store.write("a", {"E1": 0.1}, 1)
        store.write("b", {"E1": 0.2}, 2)
        assert store.read("a") is not None  # touch: a becomes MRU
        store.write("c", {"E1": 0.3}, 3)  # b is the LRU now
        assert set(store._hot) == {"a", "c"}

    def test_eviction_writes_back_dirty_state(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=1, flush_every=100)
        store.write("a", {"E1": 0.1}, 1)
        assert backing.read("a") is None  # batched: not yet flushed
        store.write("b", {"E1": 0.2}, 2)  # evicts a -> write-back
        assert backing.read("a") == ({"E1": 0.1}, 1)

    def test_rehydration_counts_and_restores(self):
        store = _tiered(hot=1)
        store.write("a", {"E1": 0.1}, 5)
        store.write("b", {"E1": 0.2}, 6)  # evicts a
        assert store.read("a") == ({"E1": 0.1}, 5)
        assert store.rehydrations == 1

    def test_write_through_is_immediately_durable(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=1)
        store.write("a", {"E1": 0.1}, 1)
        assert backing.read("a") == ({"E1": 0.1}, 1)
        assert store.dirty_count == 0

    def test_flush_every_batches_writes(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=3)
        store.write("a", {"E1": 0.1}, 1)
        store.write("a", {"E1": 0.2}, 2)
        assert backing.read("a") is None
        store.write("a", {"E1": 0.3}, 3)  # third save flushes
        assert backing.read("a") == ({"E1": 0.3}, 3)

    def test_explicit_flush_and_evict(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=100)
        store.write("a", {"E1": 0.1}, 1)
        store.flush()
        assert backing.read("a") == ({"E1": 0.1}, 1)
        assert store.evict("a") == 1
        assert store.hot_size == 0
        assert store.evict("missing") == 0
        store.write("b", {"E1": 0.2}, 2)
        assert store.evict() == 1  # evict-all

    def test_close_flushes_dirty_state(self):
        backing = MemoryStateStore()
        store = TieredHistoryStore(backing, hot_series=8, flush_every=100)
        store.write("a", {"E1": 0.1}, 1)
        store.close()
        assert backing.read("a") == ({"E1": 0.1}, 1)

    def test_delete_and_series_union(self):
        store = _tiered(hot=1, flush_every=100)
        store.write("a", {"E1": 0.1}, 1)  # flushed on eviction...
        store.write("b", {"E1": 0.2}, 2)  # ...b stays dirty in hot
        assert store.series() == ("a", "b")
        assert "a" in store and "b" in store
        store.delete("a")
        assert store.series() == ("b",)
        store.clear()
        assert store.series() == ()

    def test_validation(self):
        with pytest.raises(HistoryStoreError):
            _tiered(hot=0)
        with pytest.raises(HistoryStoreError):
            _tiered(hot=4, flush_every=0)
        with pytest.raises(HistoryStoreError):
            _tiered(hot=4, maintenance_interval=-1.0)

    def test_metrics_are_registered(self):
        registry = MetricsRegistry()
        store = TieredHistoryStore(
            MemoryStateStore(), hot_series=1, registry=registry
        )
        store.write("a", {"E1": 0.1}, 1)
        store.write("b", {"E1": 0.2}, 2)
        store.read("a")  # rehydrating a evicts b: 2 evictions total
        rendered = registry.render()
        assert "store_evictions_total 2" in rendered
        assert "store_rehydrations_total 1" in rendered
        assert "store_hot_series 1" in rendered


class TestMaintenance:
    def test_background_thread_compacts_and_runs_hook(self, tmp_path):
        calls = []
        store = TieredHistoryStore(
            PackedHistoryStore(tmp_path, segment_bytes=4096),
            hot_series=4,
            maintenance_interval=0.02,
            maintenance_hook=lambda: calls.append(1),
        )
        for k in range(40):
            store.write(f"s{k % 5}", {"E1": k / 40}, k)
        deadline = __import__("time").time() + 2.0
        while not calls and __import__("time").time() < deadline:
            __import__("time").sleep(0.01)
        store.close()
        assert calls  # the hook ran at least once
        assert store.backing.compactions >= 1

    @pytest.mark.parametrize("stage", ["compact", "hook"])
    def test_failing_pass_is_counted_and_the_loop_keeps_running(self, stage):
        calls = []

        class BrokenBacking(MemoryStateStore):
            def compact(self):
                raise OSError("disk gone")

        def hook():
            calls.append(1)
            if stage == "hook":
                raise RuntimeError("watermark log unwritable")

        registry = MetricsRegistry()
        store = TieredHistoryStore(
            BrokenBacking() if stage == "compact" else MemoryStateStore(),
            hot_series=4,
            registry=registry,
            maintenance_interval=0.01,
            maintenance_hook=hook,
        )
        deadline = time.time() + 5.0
        while len(calls) < 3 and time.time() < deadline:
            time.sleep(0.01)
        store.close()
        assert len(calls) >= 3  # the loop outlived the failures
        errors = {
            line.split()[0]: float(line.split()[1])
            for line in registry.render().splitlines()
            if line.startswith("store_maintenance_errors_total{")
        }
        failed = f'store_maintenance_errors_total{{stage="{stage}"}}'
        assert errors[failed] >= 2
        assert sum(errors.values()) == errors[failed]


class TestBitIdentity:
    """Evict/rehydrate must be invisible to the voting recurrence."""

    @pytest.mark.parametrize("policy", ["additive", "ema"])
    def test_random_trace_matches_in_memory_reference(self, tmp_path, policy):
        backings = {
            "memory": MemoryStateStore(),
            "jsonl": JsonlStateStore(tmp_path / "j"),
            "packed": PackedHistoryStore(tmp_path / "p", segment_bytes=4096),
            "sqlite": SqliteStateStore(tmp_path / "s.db"),
        }
        rng = random.Random(31)
        for name, backing in backings.items():
            store = TieredHistoryStore(backing, hot_series=2)
            references = {f"s{k}": HistoryRecords(policy=policy)
                          for k in range(8)}
            for round_no in range(25):
                for key, reference in references.items():
                    live = HistoryRecords(
                        policy=policy, store=store.store_for(key)
                    )
                    scores = {
                        m: rng.random() for m in ("E1", "E2", "E3")
                        if rng.random() > 0.2
                    }
                    live.update(scores)
                    reference.update(scores)
                    assert live.snapshot() == reference.snapshot(), name
                    assert live.update_count == reference.update_count, name
            assert store.evictions > 0 and store.rehydrations > 0
            store.close()

    def test_jsonl_backing_restores_records_only(self, tmp_path):
        """Only a legacy log line lacks the update counter: it rehydrates
        its records with the counter at 0.  Once the series writes
        again, records and counter both round-trip."""
        (tmp_path / series_filename("a")).write_text('{"E1": 0.4}\n')
        store = TieredHistoryStore(JsonlStateStore(tmp_path), hot_series=1)
        h = HistoryRecords(store=store.store_for("a"))
        assert h.snapshot() == {"E1": 0.4}
        assert h.update_count == 0
        h.update({"E1": 0.9})
        h.update({"E1": 0.2})
        snapshot = h.snapshot()
        store.evict()
        rehydrated = HistoryRecords(store=store.store_for("a"))
        assert rehydrated.snapshot() == snapshot
        assert rehydrated.update_count == 2
        store.close()


class TestSeriesViews:
    def test_view_maps_onto_the_store(self):
        store = _tiered(hot=4)
        view = store.store_for("a")
        assert (view.store, view.series) == (store, "a")
        assert view.load_state() is None
        view.save_state({"E1": 0.25}, 9)
        assert view.load_state() == ({"E1": 0.25}, 9)
        assert store.read("a") == ({"E1": 0.25}, 9)
        view.clear()
        assert view.load_state() is None
        assert "a" not in store
