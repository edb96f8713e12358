"""Tests for the fusion engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FusionError, QuorumNotReachedError
from repro.fusion.engine import FusionEngine
from repro.fusion.faults import FaultPolicy
from repro.fusion.quorum import QuorumRule
from repro.types import Round
from repro.voting.categorical import CategoricalMajorityVoter
from repro.voting.standard import StandardVoter
from repro.voting.stateless import MeanVoter


class TestHappyPath:
    def test_plain_vote(self):
        engine = FusionEngine(MeanVoter())
        result = engine.process(Round.from_values(0, [1.0, 2.0, 3.0]))
        assert result.ok
        assert result.value == 2.0
        assert result.outcome is not None

    def test_roster_learned_from_rounds(self):
        engine = FusionEngine(MeanVoter())
        engine.process(Round.from_values(0, [1.0, 2.0]))
        assert engine.roster == ["E1", "E2"]

    def test_process_batch_results(self):
        engine = FusionEngine(MeanVoter())
        matrix = np.array([[1.0, 3.0], [2.0, 4.0]])
        results = engine.process_batch(matrix, diagnostics=True).to_results()
        assert [r.value for r in results] == [2.0, 3.0]

    def test_process_batch_custom_modules(self):
        engine = FusionEngine(MeanVoter())
        engine.process_batch(np.ones((1, 3)), modules=["a", "b", "c"])
        assert engine.roster == ["a", "b", "c"]

    def test_process_batch_nan_becomes_missing(self):
        engine = FusionEngine(MeanVoter())
        batch = engine.process_batch(np.array([[1.0, np.nan, 3.0]]), diagnostics=True)
        results = batch.to_results()
        assert results[0].value == 2.0

    def test_output_series_marks_skips_as_nan(self):
        engine = FusionEngine(MeanVoter())
        matrix = np.array([[1.0, 1.0], [np.nan, np.nan], [2.0, 2.0]])
        results = engine.process_batch(matrix, diagnostics=True).to_results()
        series = engine.output_series(results)
        # Middle round has all values missing and no prior output ->
        # depends on policy; with defaults the last value is held.
        assert series[0] == 1.0

    def test_process_batch_shape_errors(self):
        engine = FusionEngine(MeanVoter())
        with pytest.raises(FusionError):
            engine.process_batch(np.ones(3))
        with pytest.raises(FusionError):
            engine.process_batch(np.ones((2, 2)), modules=["only-one"])


class TestMissingValuePolicy:
    def test_majority_missing_holds_last_value(self):
        engine = FusionEngine(MeanVoter(), fault_policy=FaultPolicy())
        engine.process(Round.from_values(0, [5.0, 5.0, 5.0]))
        degraded = engine.process(
            Round.from_mapping(1, {"E1": 9.0, "E2": None, "E3": None})
        )
        assert degraded.status == "held"
        assert degraded.value == 5.0

    def test_majority_missing_without_history_skips(self):
        engine = FusionEngine(MeanVoter(), fault_policy=FaultPolicy())
        degraded = engine.process(
            Round.from_mapping(0, {"E1": 9.0, "E2": None, "E3": None})
        )
        assert degraded.status == "skipped"
        assert degraded.value is None

    def test_raise_policy(self):
        engine = FusionEngine(
            MeanVoter(),
            fault_policy=FaultPolicy(on_missing_majority="raise"),
        )
        with pytest.raises(FusionError):
            engine.process(Round.from_mapping(0, {"E1": 1.0, "E2": None, "E3": None}))

    def test_minority_missing_still_votes(self):
        engine = FusionEngine(MeanVoter())
        result = engine.process(
            Round.from_mapping(0, {"E1": 2.0, "E2": None, "E3": 4.0})
        )
        assert result.ok
        assert result.value == 3.0

    def test_degraded_counter(self):
        engine = FusionEngine(MeanVoter())
        engine.process(Round.from_values(0, [1.0, 1.0]))
        engine.process(Round.from_mapping(1, {"E1": None, "E2": None}))
        assert engine.rounds_degraded == 1
        assert engine.rounds_processed == 2


class TestQuorumPolicy:
    def test_quorum_failure_skips_by_default(self):
        engine = FusionEngine(
            MeanVoter(),
            quorum=QuorumRule("UNTIL", 100.0),
            fault_policy=FaultPolicy(missing_tolerance=0.7),
        )
        engine.process(Round.from_values(0, [1.0, 1.0, 1.0]))
        partial = Round.from_mapping(1, {"E1": 1.0, "E2": 2.0, "E3": None})
        result = engine.process(partial)
        assert result.status == "skipped"

    def test_quorum_failure_raise_policy(self):
        engine = FusionEngine(
            MeanVoter(),
            quorum=QuorumRule("UNTIL", 100.0),
            fault_policy=FaultPolicy(
                on_quorum_failure="raise", missing_tolerance=0.7
            ),
        )
        engine.process(Round.from_values(0, [1.0, 1.0, 1.0]))
        with pytest.raises(QuorumNotReachedError):
            engine.process(Round.from_mapping(1, {"E1": 1.0, "E2": 1.0, "E3": None}))


class TestConflictPolicy:
    def test_categorical_tie_held(self):
        voter = CategoricalMajorityVoter(history_mode="none")
        engine = FusionEngine(voter, fault_policy=FaultPolicy())
        engine.process(Round.from_values(0, ["a", "a"]))
        result = engine.process(Round.from_values(1, ["x", "y"]))
        # PluralityVoter would tie-break toward 'a'... but 'a' is not a
        # candidate, so the NoMajorityError bubbles to the engine, which
        # holds the last accepted value.
        assert result.status == "held"
        assert result.value == "a"

    def test_conflict_skip_policy(self):
        voter = CategoricalMajorityVoter(history_mode="none")
        engine = FusionEngine(voter, fault_policy=FaultPolicy(on_conflict="skip"))
        result = engine.process(Round.from_values(0, ["x", "y"]))
        assert result.status == "skipped"


class TestExclusionIntegration:
    def test_excluded_module_reported(self):
        engine = FusionEngine(
            MeanVoter(), exclusion="DEVIATION", exclusion_threshold=1.5
        )
        result = engine.process(Round.from_values(0, [10.0, 10.1, 9.9, 10.0, 30.0]))
        assert result.excluded == ("E5",)
        assert result.value == pytest.approx(10.0)


class TestReset:
    def test_reset_clears_state_keeps_roster(self):
        engine = FusionEngine(StandardVoter())
        engine.process(Round.from_values(0, [1.0, 1.0]))
        engine.reset()
        assert engine.last_accepted is None
        assert engine.rounds_processed == 0
        assert engine.roster == ["E1", "E2"]
