"""Persistent backends for per-module history records.

The paper's deployment keeps history records in a datastore and notes
that "datastore reads and writes [are] the bottleneck" of the
1-millisecond history-aware round (§7).  This package has one contract,
:class:`SeriesStateStore`, holding ``(records, updates)`` per series
key, and one per-series view, :class:`SeriesView` (from
:meth:`SeriesStateStore.store_for`), which is what a voter's
:class:`~repro.voting.history.HistoryRecords` attaches to.  Backings:

* :class:`MemoryStateStore` — a dict;
* :class:`JsonlStateStore` — one JSON-lines append log per series;
* :class:`SqliteStateStore` — one SQLite database;
* :class:`PackedHistoryStore` — packed mmap segments for
  million-series shards;
* :class:`TieredHistoryStore` — an LRU-bounded hot set over any of the
  above, with optional batched write-back (``flush_every``).
"""

from .store import SeriesState, SeriesStateStore, SeriesView
from .bulk import (
    JsonlStateStore,
    MemoryStateStore,
    SqliteStateStore,
    series_filename,
)
from .packed import PackedHistoryStore
from .tiered import DEFAULT_HOT_SERIES, TieredHistoryStore

__all__ = [
    "DEFAULT_HOT_SERIES",
    "JsonlStateStore",
    "MemoryStateStore",
    "PackedHistoryStore",
    "SeriesState",
    "SeriesStateStore",
    "SeriesView",
    "SqliteStateStore",
    "TieredHistoryStore",
    "series_filename",
]
