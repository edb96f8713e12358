"""The history-store contract.

A :class:`SeriesStateStore` persists, per series key, the state of one
:class:`~repro.voting.history.HistoryRecords`: the mapping
``{module_name: record}`` plus the update-round counter.  Every backing
(memory dict, JSONL logs, SQLite, packed segments) and the LRU-tiered
front implement this one interface, so evicted or restarted series
rehydrate bit-identically on every backing.

:meth:`SeriesStateStore.store_for` binds one series to a
:class:`SeriesView`, which is what ``HistoryRecords`` attaches to: it
loads the state once at attach time and saves it after every update
round, mirroring the read/update/write cycle of the paper's deployment.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Tuple

#: Per-series state as persisted by a :class:`SeriesStateStore`: the
#: record mapping plus the update-round counter (the AVOC bootstrap
#: trigger keys on ``update_count == 0``, so rehydrating records without
#: the counter is not bit-identical).
SeriesState = Tuple[Dict[str, float], int]


class SeriesStateStore(abc.ABC):
    """A store holding the ``(records, updates)`` state of many series.

    One directory / database / address space serves an entire shard's
    series population; a shard hosting 10\\ :sup:`6` series keeps only
    its hot set resident (see
    :class:`~repro.history.tiered.TieredHistoryStore`) and reads the
    rest through this interface on demand.
    """

    @abc.abstractmethod
    def read(self, series: str) -> Optional[SeriesState]:
        """The persisted ``(records, updates)`` for ``series``, or None."""

    @abc.abstractmethod
    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        """Persist the full state of one series."""

    @abc.abstractmethod
    def delete(self, series: str) -> None:
        """Forget one series (no-op when unknown)."""

    @abc.abstractmethod
    def series(self) -> Tuple[str, ...]:
        """Every series key with persisted state."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Forget every series."""

    def compact(self) -> None:
        """Reclaim dead storage (optional; default no-op)."""

    def close(self) -> None:
        """Release file handles / connections (optional; default no-op)."""

    def store_for(self, series: str) -> "SeriesView":
        """The state of one series, as attached to ``HistoryRecords``."""
        return SeriesView(self, series)

    def __contains__(self, series: str) -> bool:
        return self.read(series) is not None

    def __len__(self) -> int:
        return len(self.series())

    def __enter__(self) -> "SeriesStateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SeriesView:
    """One series of a :class:`SeriesStateStore`."""

    __slots__ = ("store", "series")

    def __init__(self, store: SeriesStateStore, series: str):
        self.store = store
        self.series = series

    def load_state(self) -> Optional[SeriesState]:
        return self.store.read(self.series)

    def save_state(self, records: Mapping[str, float], updates: int) -> None:
        self.store.write(self.series, records, updates)

    def clear(self) -> None:
        self.store.delete(self.series)
