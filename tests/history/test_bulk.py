"""Tests for the non-packed bulk series-state backings."""

from __future__ import annotations

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import (
    JsonlStateStore,
    MemoryStateStore,
    SqliteStateStore,
    series_filename,
)


def test_series_file_names_are_safe_and_collision_free():
    name = series_filename("room/42 §température")
    assert name.endswith(".jsonl")
    assert "/" not in name and " " not in name
    assert series_filename("a") != series_filename("b")
    # Same slug, different keys: the digest disambiguates.
    long_a = "x" * 60 + "a"
    long_b = "x" * 60 + "b"
    assert series_filename(long_a) != series_filename(long_b)


@pytest.mark.parametrize("backing", ["memory", "jsonl", "sqlite"])
def test_bulk_round_trip(backing, tmp_path):
    store = {
        "memory": lambda: MemoryStateStore(),
        "jsonl": lambda: JsonlStateStore(tmp_path),
        "sqlite": lambda: SqliteStateStore(tmp_path / "s.db"),
    }[backing]()
    assert store.read("a") is None
    store.write("a", {"E1": 0.5, "E2": 1.0}, 7)
    store.write("b", {"E1": 0.25}, 3)
    assert store.read("a") == ({"E1": 0.5, "E2": 1.0}, 7)
    assert store.series() == ("a", "b")
    assert "a" in store and "nope" not in store
    assert len(store) == 2
    store.delete("a")
    assert store.read("a") is None
    store.compact()
    store.clear()
    assert store.read("b") is None
    store.close()


def test_sqlite_persists_updates_across_reopen(tmp_path):
    SqliteStateStore(tmp_path / "s.db").write("a", {"E1": 0.5}, 42)
    reopened = SqliteStateStore(tmp_path / "s.db")
    assert reopened.read("a") == ({"E1": 0.5}, 42)
    reopened.close()


def test_sqlite_rejects_bad_synchronous(tmp_path):
    with pytest.raises(HistoryStoreError):
        SqliteStateStore(tmp_path / "s.db", synchronous="nope")


def test_jsonl_reads_cold_without_enumeration(tmp_path):
    """A fresh adapter can read any series by key, even though it
    cannot invert the hashed file names to enumerate them."""
    JsonlStateStore(tmp_path).write("room/42", {"E1": 0.5}, 9)
    cold = JsonlStateStore(tmp_path)
    assert cold.series() == ()  # nothing enumerable cold...
    assert cold.read("room/42") == ({"E1": 0.5}, 9)  # ...but reads work


def test_jsonl_uses_legacy_per_series_files(tmp_path):
    store = JsonlStateStore(tmp_path)
    store.write("a", {"E1": 0.5}, 1)
    assert (tmp_path / series_filename("a")).exists()


def test_jsonl_clear_removes_logs_an_earlier_process_wrote(tmp_path):
    JsonlStateStore(tmp_path).write("old", {"E1": 0.5}, 3)
    (tmp_path / "voted-rounds.jsonl").write_text("{}\n")  # not a series log
    cold = JsonlStateStore(tmp_path)
    cold.write("new", {"E1": 0.25}, 1)
    cold.clear()
    assert cold.read("old") is None and cold.read("new") is None
    assert (tmp_path / "voted-rounds.jsonl").exists()
    assert series_filename("x" * 80).startswith("x" * 48)
