"""Tests for the SQLite state store, through per-series views."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import SqliteStateStore


class TestRoundTrip:
    def test_empty_load(self, tmp_path):
        with SqliteStateStore(tmp_path / "h.db") as store:
            assert store.store_for("k").load_state() is None

    def test_save_then_load(self, tmp_path):
        with SqliteStateStore(tmp_path / "h.db") as store:
            view = store.store_for("k")
            view.save_state({"E1": 0.5, "E2": 1.0}, 2)
            assert view.load_state() == ({"E1": 0.5, "E2": 1.0}, 2)

    def test_upsert_updates_existing(self, tmp_path):
        with SqliteStateStore(tmp_path / "h.db") as store:
            view = store.store_for("k")
            view.save_state({"E1": 0.5}, 1)
            view.save_state({"E1": 0.25, "E2": 0.75}, 2)
            assert view.load_state() == ({"E1": 0.25, "E2": 0.75}, 2)

    def test_clear(self, tmp_path):
        with SqliteStateStore(tmp_path / "h.db") as store:
            view = store.store_for("k")
            view.save_state({"E1": 0.5}, 1)
            store.store_for("other").save_state({"E1": 0.9}, 1)
            view.clear()
            assert view.load_state() is None
            assert store.series() == ("other",)

    def test_survives_process_restart(self, tmp_path):
        path = tmp_path / "history.db"
        with SqliteStateStore(path) as first:
            first.store_for("k").save_state({"E1": 0.3}, 4)
        with SqliteStateStore(path) as second:
            assert second.store_for("k").load_state() == ({"E1": 0.3}, 4)

    def test_invalid_synchronous_rejected(self, tmp_path):
        with pytest.raises(HistoryStoreError):
            SqliteStateStore(tmp_path / "h.db", synchronous="SOMETIMES")


class TestConcurrency:
    def test_threaded_saves_do_not_corrupt(self, tmp_path):
        store = SqliteStateStore(tmp_path / "h.db")
        errors = []

        def writer(series):
            view = store.store_for(series)
            try:
                for i in range(50):
                    view.save_state({"E1": i / 50, "E2": 1.0}, i + 1)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(f"s{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.series() == ("s0", "s1", "s2", "s3")
        for series in store.series():
            assert store.read(series) == ({"E1": 49 / 50, "E2": 1.0}, 50)
        store.close()


class TestVoterIntegration:
    def test_voter_records_persist_and_reload(self, tmp_path):
        from repro.voting.avoc import AvocVoter

        path = tmp_path / "avoc.db"
        voter = AvocVoter(history_store=SqliteStateStore(path).store_for("k"))
        voter.vote_values([18.0, 18.1, 17.9, 24.0, 18.05])
        revived = AvocVoter(history_store=SqliteStateStore(path).store_for("k"))
        assert revived.history.get("E4") == 0.0
        assert not revived.history.all_fresh(["E1", "E2", "E3", "E4", "E5"])
        assert revived.history.update_count == voter.history.update_count
