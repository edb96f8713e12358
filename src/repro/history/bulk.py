"""Dict, JSONL and SQLite :class:`SeriesStateStore` backings.

Each persists full ``(records, updates)`` state per series, like the
packed store, so the cluster's ``--store`` knob chooses a storage tier
without the shard code caring:

* :class:`MemoryStateStore` — a dict; state survives engine eviction
  but dies with the process.
* :class:`JsonlStateStore` — one JSON-lines append log per series (the
  file names shards have always used, so existing history directories
  keep working).  Each write appends one line
  ``{"records": {...}, "updates": n}``; a read replays the log and
  keeps the last complete line.  Legacy flat ``{module: record}``
  lines still load, as ``updates == 0``.
* :class:`SqliteStateStore` — one SQLite database for the whole shard
  with per-series record rows and an update-counter table.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..exceptions import HistoryStoreError
from ..util import atomic_write
from .store import SeriesState, SeriesStateStore

__all__ = [
    "JsonlStateStore",
    "MemoryStateStore",
    "SqliteStateStore",
    "series_filename",
]


def series_filename(series: str) -> str:
    """A filesystem-safe, collision-free log name for a series key."""
    slug = re.sub(r"[^A-Za-z0-9_.-]", "_", series)[:48]
    digest = hashlib.blake2b(series.encode("utf-8"), digest_size=6).hexdigest()
    return f"{slug}-{digest}.jsonl"


#: Every name :func:`series_filename` can return.
_SERIES_FILE = re.compile(r"[A-Za-z0-9_.-]{0,48}-[0-9a-f]{12}\.jsonl")


class MemoryStateStore(SeriesStateStore):
    """Dict-backed bulk store; contents live and die with the process."""

    def __init__(self) -> None:
        self._states: Dict[str, SeriesState] = {}
        self._lock = threading.Lock()

    def read(self, series: str) -> Optional[SeriesState]:
        with self._lock:
            state = self._states.get(series)
            if state is None:
                return None
            records, updates = state
            return dict(records), updates

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        with self._lock:
            self._states[series] = (dict(records), int(updates))

    def delete(self, series: str) -> None:
        with self._lock:
            self._states.pop(series, None)

    def series(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._states))

    def clear(self) -> None:
        with self._lock:
            self._states.clear()


class JsonlStateStore(SeriesStateStore):
    """Per-series JSON-lines append logs in one directory.

    Appending keeps writes cheap and crash-safe: a torn final line is
    ignored on replay.  A series' log is compacted to a single line
    every ``compact_after`` writes (``None`` disables that;
    :meth:`compact` still works).

    ``series()`` only enumerates series written through this process —
    the hashed file names cannot be inverted — so callers that need
    cold-start enumeration (the shard server) keep their own series
    index.  ``read`` works cold for any series, and ``clear`` removes
    every series log in the directory.
    """

    def __init__(
        self, directory: Union[str, Path], compact_after: Optional[int] = 1000
    ):
        if compact_after is not None and compact_after < 1:
            raise HistoryStoreError("compact_after must be >= 1 or None")
        self.directory = Path(directory)
        self.compact_after = compact_after
        #: Appends since the last compaction, per series written here.
        self._appends: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _path(self, series: str) -> Path:
        return self.directory / series_filename(series)

    def read(self, series: str) -> Optional[SeriesState]:
        path = self._path(series)
        state: Optional[SeriesState] = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        snapshot = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn trailing write; keep previous state
                    if isinstance(snapshot, dict):
                        state = _parse_line(snapshot)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise HistoryStoreError(f"cannot read history log {path}: {exc}")
        return state

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        path = self._path(series)
        with self._lock:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(_format_line(records, updates))
            except OSError as exc:
                raise HistoryStoreError(f"cannot append to history log {path}: {exc}")
            appends = self._appends.get(series, 0) + 1
            self._appends[series] = appends
        if self.compact_after is not None and appends >= self.compact_after:
            self._compact_series(series)

    def _compact_series(self, series: str) -> None:
        """Rewrite one log as a single line holding its latest state.

        The rewrite goes through :func:`repro.util.atomic_write`, so a
        crash mid-compaction leaves either the old log or the new one —
        never a truncated file.  It holds the store lock, so no append
        lands between the read and the rewrite.
        """
        path = self._path(series)
        with self._lock:
            state = self.read(series)
            if state is None:  # deleted since the caller listed it
                self._appends.pop(series, None)
                return
            try:
                atomic_write(path, _format_line(*state))
            except OSError as exc:
                raise HistoryStoreError(f"cannot compact history log {path}: {exc}")
            self._appends[series] = 0

    def delete(self, series: str) -> None:
        path = self._path(series)
        with self._lock:
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                raise HistoryStoreError(f"cannot remove history log {path}: {exc}")
            self._appends.pop(series, None)

    def series(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._appends))

    def compact(self) -> None:
        for series in self.series():
            self._compact_series(series)

    def clear(self) -> None:
        """Forget every series, including logs an earlier process wrote:
        their keys are unknown here, but their file names are not."""
        with self._lock:
            for path in self.directory.glob("*.jsonl"):
                if not _SERIES_FILE.fullmatch(path.name):
                    continue
                try:
                    path.unlink(missing_ok=True)
                except OSError as exc:
                    raise HistoryStoreError(f"cannot remove history log {path}: {exc}")
            self._appends.clear()


def _format_line(records: Mapping[str, float], updates: int) -> str:
    return json.dumps(
        {"records": dict(records), "updates": int(updates)}, sort_keys=True
    ) + "\n"


def _parse_line(snapshot: Dict[str, Any]) -> SeriesState:
    records = snapshot.get("records")
    if isinstance(records, dict):
        return {str(k): float(v) for k, v in records.items()}, int(snapshot["updates"])
    # Legacy flat ``{module: record}`` line: a record is never a dict,
    # and the format had no update counter.
    return {str(k): float(v) for k, v in snapshot.items()}, 0


_SCHEMA = """
CREATE TABLE IF NOT EXISTS series_records (
    series TEXT NOT NULL,
    module TEXT NOT NULL,
    record REAL NOT NULL,
    PRIMARY KEY (series, module)
);
CREATE TABLE IF NOT EXISTS series_meta (
    series TEXT PRIMARY KEY,
    updates INTEGER NOT NULL
);
"""


class SqliteStateStore(SeriesStateStore):
    """One SQLite database holding every series of a shard."""

    def __init__(
        self, path: Union[str, Path], synchronous: str = "NORMAL"
    ):
        if synchronous.upper() not in ("OFF", "NORMAL", "FULL"):
            raise HistoryStoreError(
                f"synchronous must be OFF/NORMAL/FULL, got {synchronous!r}"
            )
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        try:
            self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._connection.execute(f"PRAGMA synchronous={synchronous.upper()}")
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.executescript(_SCHEMA)
            self._connection.commit()
        except sqlite3.Error as exc:
            raise HistoryStoreError(f"cannot open series database: {exc}")

    def read(self, series: str) -> Optional[SeriesState]:
        with self._lock:
            try:
                meta = self._connection.execute(
                    "SELECT updates FROM series_meta WHERE series=?", (series,)
                ).fetchone()
                rows = self._connection.execute(
                    "SELECT module, record FROM series_records WHERE series=?",
                    (series,),
                ).fetchall()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot read series state: {exc}")
        if meta is None and not rows:
            return None
        records = {module: float(record) for module, record in rows}
        return records, int(meta[0]) if meta is not None else 0

    def write(self, series: str, records: Mapping[str, float], updates: int) -> None:
        with self._lock:
            try:
                self._connection.execute(
                    "DELETE FROM series_records WHERE series=?", (series,)
                )
                self._connection.executemany(
                    "INSERT INTO series_records(series, module, record) "
                    "VALUES(?, ?, ?)",
                    [(series, m, float(r)) for m, r in records.items()],
                )
                self._connection.execute(
                    "INSERT INTO series_meta(series, updates) VALUES(?, ?) "
                    "ON CONFLICT(series) DO UPDATE SET updates=excluded.updates",
                    (series, int(updates)),
                )
                self._connection.commit()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot persist series state: {exc}")

    def delete(self, series: str) -> None:
        with self._lock:
            try:
                self._connection.execute(
                    "DELETE FROM series_records WHERE series=?", (series,)
                )
                self._connection.execute(
                    "DELETE FROM series_meta WHERE series=?", (series,)
                )
                self._connection.commit()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot delete series state: {exc}")

    def series(self) -> Tuple[str, ...]:
        with self._lock:
            try:
                rows = self._connection.execute(
                    "SELECT series FROM series_meta "
                    "UNION SELECT DISTINCT series FROM series_records"
                ).fetchall()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot list series: {exc}")
        return tuple(sorted(row[0] for row in rows))

    def compact(self) -> None:
        with self._lock:
            try:
                self._connection.commit()
                self._connection.execute("VACUUM")
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot compact series database: {exc}")

    def clear(self) -> None:
        with self._lock:
            try:
                self._connection.execute("DELETE FROM series_records")
                self._connection.execute("DELETE FROM series_meta")
                self._connection.commit()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot clear series state: {exc}")

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error as exc:
                raise HistoryStoreError(f"cannot close series database: {exc}")
