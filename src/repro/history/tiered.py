"""LRU-tiered front for a bulk :class:`SeriesStateStore`.

A shard hosting a million series cannot keep a million live
:class:`~repro.voting.history.HistoryRecords` (or a million open JSONL
logs) resident.  :class:`TieredHistoryStore` splits the population into
two tiers:

* a **hot set** — an LRU-ordered dict of at most ``hot_series`` states,
  served without touching storage;
* the **backing** :class:`~repro.history.store.SeriesStateStore`
  (packed segments, SQLite, JSONL directory, memory) holding everyone.

Writes land in the hot set and are flushed through to the backing
every ``flush_every`` saves per series (default 1 = write-through, the
same per-round durability the shards have always had).  Evicted series
are written back if dirty and rehydrate transparently on the next
read, bit-identically — state is ``(records, update_counter)``, so a
rehydrated engine is indistinguishable from one that never left memory.

The tiered store is itself a :class:`SeriesStateStore`, so the same
per-series view (:meth:`~SeriesStateStore.store_for`) that serves any
backing directly serves it too: that view is what ``HistoryRecords``
attaches to.

An optional maintenance thread periodically compacts the backing store
(reclaiming dead packed-segment space) and runs a caller-supplied hook
— the shard server uses it to compact the voted-rounds watermark log
in the background instead of on the vote path.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..exceptions import HistoryStoreError
from ..obs import StoreInstruments, get_default_registry
from .store import SeriesState, SeriesStateStore

__all__ = ["TieredHistoryStore", "DEFAULT_HOT_SERIES"]

logger = logging.getLogger("repro.history.tiered")

#: Default hot-set capacity. Sized so a shard's resident state stays in
#: the tens of MB even with wide module rosters; ``avoc cluster`` exposes
#: it as ``--max-resident-series``.
DEFAULT_HOT_SERIES = 10_000


class _HotEntry:
    __slots__ = ("records", "updates", "dirty", "saves_since_flush")

    def __init__(self, records: Dict[str, float], updates: int, dirty: bool):
        self.records = records
        self.updates = updates
        self.dirty = dirty
        self.saves_since_flush = 0


class TieredHistoryStore(SeriesStateStore):
    """LRU-bounded hot set of series states over a bulk backing store.

    Args:
        backing: the durable (or memory) bulk store holding every series.
        hot_series: hot-set capacity; least-recently-used series beyond
            it are written back (if dirty) and evicted.  ``None``
            disables eviction (everything stays resident).
        flush_every: write a series through to the backing every this
            many saves.  1 (default) is write-through — every update
            round is durable, matching the historical per-round JSONL
            append.  Larger values batch writes and rely on eviction /
            :meth:`flush` / :meth:`close` for durability.
        registry: metrics registry for :class:`StoreInstruments`
            (defaults to the process-global registry).
        maintenance_interval: when set, a daemon thread calls
            :meth:`compact` (and ``maintenance_hook``, if any) every
            this many seconds.
        maintenance_hook: extra callable run by the maintenance thread
            after each compaction pass.  A failing compaction or hook is
            counted in ``store_maintenance_errors_total{stage}`` and
            logged; the thread keeps running.
    """

    def __init__(
        self,
        backing: SeriesStateStore,
        hot_series: Optional[int] = DEFAULT_HOT_SERIES,
        flush_every: int = 1,
        registry=None,
        maintenance_interval: Optional[float] = None,
        maintenance_hook: Optional[Callable[[], None]] = None,
    ):
        if hot_series is not None and hot_series < 1:
            raise HistoryStoreError(
                f"hot_series must be >= 1 or None, got {hot_series}"
            )
        if flush_every < 1:
            raise HistoryStoreError(f"flush_every must be >= 1, got {flush_every}")
        if maintenance_interval is not None and maintenance_interval <= 0:
            raise HistoryStoreError("maintenance_interval must be positive")
        self.backing = backing
        self.hot_series = hot_series
        self.flush_every = flush_every
        self._hot: "OrderedDict[str, _HotEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self._closed = False
        self.evictions = 0
        self.rehydrations = 0
        self.writebacks = 0
        self._obs = StoreInstruments(
            registry if registry is not None else get_default_registry(), self
        )
        self._maintenance_hook = maintenance_hook
        self._maintenance_stop = threading.Event()
        self._maintenance_thread: Optional[threading.Thread] = None
        if maintenance_interval is not None:
            self._maintenance_thread = threading.Thread(
                target=self._maintenance_loop,
                args=(maintenance_interval,),
                name="history-maintenance",
                daemon=True,
            )
            self._maintenance_thread.start()

    # -- state access -----------------------------------------------------

    def read(self, series: str) -> Optional[SeriesState]:
        """The current ``(records, updates)`` for ``series``, or None.

        Serves from the hot set when resident (marking the series most
        recently used); otherwise rehydrates from the backing store.
        """
        with self._lock:
            entry = self._hot.get(series)
            if entry is not None:
                self._hot.move_to_end(series)
                return dict(entry.records), entry.updates
            state = self.backing.read(series)
            if state is None:
                return None
            records, updates = state
            self._hot[series] = _HotEntry(dict(records), int(updates), dirty=False)
            self.rehydrations += 1
            self._obs.rehydrations.inc()
            self._shrink()
            return dict(records), int(updates)

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        """Record the new state of ``series`` (durable per ``flush_every``)."""
        with self._lock:
            entry = self._hot.get(series)
            if entry is None:
                entry = _HotEntry(dict(records), int(updates), dirty=True)
                self._hot[series] = entry
            else:
                entry.records = dict(records)
                entry.updates = int(updates)
                entry.dirty = True
                self._hot.move_to_end(series)
            entry.saves_since_flush += 1
            if entry.saves_since_flush >= self.flush_every:
                self._writeback(series, entry)
            self._shrink()

    def delete(self, series: str) -> None:
        """Forget one series in both tiers."""
        with self._lock:
            self._hot.pop(series, None)
            self.backing.delete(series)

    def series(self) -> Tuple[str, ...]:
        """Every known series: backing population plus unflushed hot ones."""
        with self._lock:
            known = set(self.backing.series())
            known.update(self._hot)
            return tuple(sorted(known))

    def __contains__(self, series: str) -> bool:
        with self._lock:
            return series in self._hot or series in self.backing

    # -- residency management --------------------------------------------

    def _writeback(self, series: str, entry: _HotEntry) -> None:
        self.backing.write(series, entry.records, entry.updates)
        entry.dirty = False
        entry.saves_since_flush = 0
        self.writebacks += 1
        self._obs.writebacks.inc()

    def _shrink(self) -> None:
        if self.hot_series is None:
            return
        while len(self._hot) > self.hot_series:
            series, entry = self._hot.popitem(last=False)
            if entry.dirty:
                self._writeback(series, entry)
            self.evictions += 1
            self._obs.evictions.inc()

    def evict(self, series: Optional[str] = None) -> int:
        """Evict one series (or the whole hot set), writing back dirty state.

        Returns the number of series evicted.
        """
        with self._lock:
            if series is not None:
                entry = self._hot.pop(series, None)
                if entry is None:
                    return 0
                if entry.dirty:
                    self._writeback(series, entry)
                self.evictions += 1
                self._obs.evictions.inc()
                return 1
            count = len(self._hot)
            self.flush()
            self._hot.clear()
            self.evictions += count
            for _ in range(count):
                self._obs.evictions.inc()
            return count

    def flush(self) -> None:
        """Write every dirty hot series through to the backing store."""
        with self._lock:
            for series, entry in self._hot.items():
                if entry.dirty:
                    self._writeback(series, entry)

    @property
    def hot_size(self) -> int:
        """Series currently resident in the hot set."""
        with self._lock:
            return len(self._hot)

    @property
    def dirty_count(self) -> int:
        """Hot series with state not yet written to the backing store."""
        with self._lock:
            return sum(1 for entry in self._hot.values() if entry.dirty)

    # -- maintenance ------------------------------------------------------

    def compact(self) -> None:
        """Flush dirty state and compact the backing store (timed)."""
        started = time.perf_counter()
        self.flush()
        self.backing.compact()
        self._obs.compaction_seconds.observe(time.perf_counter() - started)

    def _maintenance_loop(self, interval: float) -> None:
        # A failing pass is counted and logged, and the loop carries on:
        # the next pass retries, and storage errors also surface on the
        # next foreground write.
        while not self._maintenance_stop.wait(interval):
            try:
                self.compact()
            except Exception:
                self._obs.compaction_errors.inc()
                logger.warning("history store compaction failed", exc_info=True)
            hook = self._maintenance_hook
            if hook is not None:
                try:
                    hook()
                except Exception:
                    self._obs.hook_errors.inc()
                    logger.warning("history maintenance hook failed", exc_info=True)

    def clear(self) -> None:
        """Forget everything in both tiers."""
        with self._lock:
            self._hot.clear()
            self.backing.clear()

    def close(self) -> None:
        """Flush dirty state, stop maintenance, close the backing store."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._maintenance_stop.set()
        thread = self._maintenance_thread
        if thread is not None:
            thread.join(timeout=5.0)
        self.flush()
        self.backing.close()
