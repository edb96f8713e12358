"""Tests for the core value types."""

from __future__ import annotations


import pytest

from repro.exceptions import EmptyRoundError
from repro.types import MISSING, Reading, Round, Series, VoteOutcome, is_missing


class TestIsMissing:
    def test_none_is_missing(self):
        assert is_missing(None)

    def test_nan_is_missing(self):
        assert is_missing(float("nan"))
        assert is_missing(MISSING)

    def test_zero_is_present(self):
        assert not is_missing(0.0)
        assert not is_missing(0)

    def test_empty_string_is_present(self):
        assert not is_missing("")

    def test_regular_values_are_present(self):
        assert not is_missing(18.5)
        assert not is_missing("open")


class TestReading:
    def test_missing_property(self):
        assert Reading("E1", None).missing
        assert Reading("E1", float("nan")).missing
        assert not Reading("E1", 18.0).missing

    def test_frozen(self):
        reading = Reading("E1", 18.0)
        with pytest.raises(AttributeError):
            reading.value = 19.0


class TestRound:
    def test_from_values_names_modules(self):
        r = Round.from_values(3, [1.0, 2.0, 3.0])
        assert r.modules == ("E1", "E2", "E3")
        assert r.number == 3

    def test_from_values_custom_prefix(self):
        r = Round.from_values(0, [1.0, 2.0], prefix="A", start=5)
        assert r.modules == ("A5", "A6")

    def test_from_mapping(self):
        r = Round.from_mapping(1, {"a": 1.0, "b": None}, timestamp=2.5)
        assert r.value_of("a") == 1.0
        assert r.value_of("b") is None
        assert r.readings[0].timestamp == 2.5

    def test_duplicate_module_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Round(0, (Reading("E1", 1.0), Reading("E1", 2.0)))

    def test_present_filters_missing(self):
        r = Round.from_mapping(0, {"a": 1.0, "b": None, "c": float("nan")})
        assert [x.module for x in r.present] == ["a"]
        assert r.submitted_count == 1

    def test_value_of_unknown_module(self):
        r = Round.from_values(0, [1.0])
        with pytest.raises(KeyError):
            r.value_of("nope")

    def test_require_nonempty_raises_on_all_missing(self):
        r = Round.from_mapping(0, {"a": None, "b": None})
        with pytest.raises(EmptyRoundError):
            r.require_nonempty()

    def test_require_nonempty_passes_with_one_value(self):
        r = Round.from_mapping(0, {"a": 1.0, "b": None})
        r.require_nonempty()


class TestVoteOutcome:
    def test_defaults(self):
        o = VoteOutcome(round_number=0, value=1.0)
        assert not o.used_bootstrap
        assert o.eliminated == ()

    def test_carries_diagnostics(self):
        o = VoteOutcome(round_number=1, value=2.0, diagnostics={"k": 3})
        assert o.diagnostics["k"] == 3


class TestSeries:
    def test_append_and_index(self):
        s = Series("out")
        s.append(1.0)
        s.append(2.0)
        assert len(s) == 2
        assert s[1] == 2.0
