"""Tests for the JSONL state store, through one series' view."""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import HistoryStoreError
from repro.history import JsonlStateStore, series_filename


def _log(directory, series="k"):
    return directory / series_filename(series)


def _snapshot_count(directory, series="k"):
    """Complete lines in one series' log."""
    path = _log(directory, series)
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines() if line.strip())


class TestRoundTrip:
    def test_missing_file_loads_empty(self, tmp_path):
        assert JsonlStateStore(tmp_path).store_for("k").load_state() is None

    def test_save_then_load(self, tmp_path):
        view = JsonlStateStore(tmp_path).store_for("k")
        view.save_state({"E1": 0.5}, 4)
        assert view.load_state() == ({"E1": 0.5}, 4)

    def test_last_snapshot_wins(self, tmp_path):
        view = JsonlStateStore(tmp_path).store_for("k")
        view.save_state({"E1": 0.5}, 1)
        view.save_state({"E1": 0.25}, 2)
        assert view.load_state() == ({"E1": 0.25}, 2)
        assert _snapshot_count(tmp_path) == 2

    def test_survives_process_restart(self, tmp_path):
        JsonlStateStore(tmp_path).store_for("k").save_state({"E1": 0.3}, 7)
        assert JsonlStateStore(tmp_path).store_for("k").load_state() == (
            {"E1": 0.3},
            7,
        )

    def test_creates_parent_directories(self, tmp_path):
        directory = tmp_path / "deep" / "nested"
        view = JsonlStateStore(directory).store_for("k")
        view.save_state({"a": 1.0}, 1)
        assert view.load_state() == ({"a": 1.0}, 1)
        assert _log(directory).exists()

    def test_line_carries_records_and_update_counter(self, tmp_path):
        JsonlStateStore(tmp_path).store_for("k").save_state({"E1": 0.5}, 9)
        line = json.loads(_log(tmp_path).read_text())
        assert line == {"records": {"E1": 0.5}, "updates": 9}


class TestLegacyFormat:
    """Logs written before the update counter was persisted hold flat
    ``{module: record}`` lines; they still load, as ``updates == 0``."""

    def test_legacy_lines_load_with_zero_updates(self, tmp_path):
        _log(tmp_path).write_text('{"E1": 0.5, "E2": 1.0}\n{"E1": 0.4, "E2": 1.0}\n')
        view = JsonlStateStore(tmp_path).store_for("k")
        assert view.load_state() == ({"E1": 0.4, "E2": 1.0}, 0)

    def test_modules_named_like_the_new_keys_stay_legacy(self, tmp_path):
        _log(tmp_path).write_text('{"records": 0.5, "updates": 0.25}\n')
        view = JsonlStateStore(tmp_path).store_for("k")
        assert view.load_state() == ({"records": 0.5, "updates": 0.25}, 0)

    def test_new_line_after_legacy_lines_wins(self, tmp_path):
        _log(tmp_path).write_text('{"E1": 0.5}\n')
        view = JsonlStateStore(tmp_path).store_for("k")
        view.save_state({"E1": 0.7}, 3)
        assert view.load_state() == ({"E1": 0.7}, 3)


class TestCrashSafety:
    def test_torn_trailing_line_ignored(self, tmp_path):
        view = JsonlStateStore(tmp_path).store_for("k")
        view.save_state({"E1": 0.5}, 1)
        with open(_log(tmp_path), "a", encoding="utf-8") as fh:
            fh.write('{"records": {"E1": 0.2')  # simulated crash mid-write
        assert view.load_state() == ({"E1": 0.5}, 1)

    def test_blank_lines_ignored(self, tmp_path):
        _log(tmp_path).write_text('\n{"records": {"E1": 0.4}, "updates": 2}\n\n')
        view = JsonlStateStore(tmp_path).store_for("k")
        assert view.load_state() == ({"E1": 0.4}, 2)


class TestCompaction:
    def test_manual_compact_keeps_latest(self, tmp_path):
        store = JsonlStateStore(tmp_path, compact_after=None)
        view = store.store_for("k")
        for i in range(5):
            view.save_state({"E1": i / 10}, i)
        store.compact()
        assert _snapshot_count(tmp_path) == 1
        assert view.load_state() == ({"E1": 0.4}, 4)

    def test_auto_compaction_bounds_log_size(self, tmp_path):
        view = JsonlStateStore(tmp_path, compact_after=10).store_for("k")
        for i in range(25):
            view.save_state({"E1": i / 100}, i)
        assert _snapshot_count(tmp_path) <= 10
        assert view.load_state() == ({"E1": 0.24}, 24)

    def test_invalid_compact_after(self, tmp_path):
        with pytest.raises(HistoryStoreError):
            JsonlStateStore(tmp_path, compact_after=0)

    def test_compaction_rewrites_a_legacy_log_in_the_new_format(self, tmp_path):
        _log(tmp_path).write_text('{"E1": 0.5}\n{"E1": 0.4}\n')
        store = JsonlStateStore(tmp_path, compact_after=2)
        store.store_for("k").save_state({"E1": 0.3}, 5)
        assert _snapshot_count(tmp_path) == 3
        store.store_for("k").save_state({"E1": 0.2}, 6)  # second append compacts
        assert json.loads(_log(tmp_path).read_text()) == {
            "records": {"E1": 0.2},
            "updates": 6,
        }


class TestConcurrency:
    def test_compaction_racing_an_append_loses_no_write(self, tmp_path):
        """An append that arrives after a compaction has read a log, but
        before it rewrites it, must survive the rewrite."""
        reading, appended = threading.Event(), threading.Event()

        class PausingStore(JsonlStateStore):
            def read(self, series):
                state = super().read(series)
                if threading.current_thread() is compactor:
                    reading.set()
                    appended.wait(timeout=0.5)
                return state

        store = PausingStore(tmp_path, compact_after=None)
        view = store.store_for("k")
        view.save_state({"E1": 0.1}, 1)
        compactor = threading.Thread(target=store.compact)
        compactor.start()
        assert reading.wait(timeout=5)
        writer = threading.Thread(target=view.save_state, args=({"E1": 0.2}, 2))
        writer.start()
        writer.join(timeout=0.2)  # waits for the compaction to finish
        appended.set()
        compactor.join(timeout=5)
        writer.join(timeout=5)
        assert not compactor.is_alive() and not writer.is_alive()
        assert view.load_state() == ({"E1": 0.2}, 2)


class TestClear:
    def test_clear_removes_file(self, tmp_path):
        view = JsonlStateStore(tmp_path).store_for("k")
        view.save_state({"a": 1.0}, 1)
        view.clear()
        assert not _log(tmp_path).exists()
        assert view.load_state() is None
        assert view.store.series() == ()

    def test_clear_missing_file_is_noop(self, tmp_path):
        JsonlStateStore(tmp_path).store_for("k").clear()


class TestVoterIntegration:
    def test_voter_history_survives_restart(self, tmp_path):
        from repro.voting.standard import StandardVoter

        voter = StandardVoter(history_store=JsonlStateStore(tmp_path).store_for("k"))
        for i in range(5):
            voter.vote_values([1.0, 1.0, 9.0], round_number=i)
        revived = StandardVoter(
            history_store=JsonlStateStore(tmp_path).store_for("k")
        )
        assert revived.history.snapshot() == voter.history.snapshot()
        assert revived.history.update_count == voter.history.update_count == 5
