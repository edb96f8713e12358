"""Tests for one series of the in-memory state store."""

from __future__ import annotations

from repro.history import MemoryStateStore


def _view():
    return MemoryStateStore().store_for("k")


class TestMemoryStore:
    def test_empty_load(self):
        assert _view().load_state() is None

    def test_save_then_load(self):
        view = _view()
        view.save_state({"E1": 0.5, "E2": 1.0}, 3)
        assert view.load_state() == ({"E1": 0.5, "E2": 1.0}, 3)

    def test_save_replaces_snapshot(self):
        view = _view()
        view.save_state({"E1": 0.5}, 1)
        view.save_state({"E2": 0.7}, 2)
        assert view.load_state() == ({"E2": 0.7}, 2)

    def test_load_returns_copy(self):
        view = _view()
        view.save_state({"E1": 0.5}, 1)
        records, _ = view.load_state()
        records["E1"] = 99.0
        assert view.load_state() == ({"E1": 0.5}, 1)

    def test_clear(self):
        view = _view()
        view.save_state({"E1": 0.5}, 1)
        view.clear()
        assert view.load_state() is None
        assert "k" not in view.store
