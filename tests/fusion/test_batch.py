"""Equivalence tests for the vectorized batch fusion core.

The contract under test: :meth:`FusionEngine.process_batch` (and the
``repro.fuse`` convenience wrapper, and ``BatchResult.to_results``)
must be **bit-identical** to feeding the same matrix through
the per-round :meth:`FusionEngine.process` loop — values, statuses,
outcome diagnostics, engine counters, and voter/history end-state —
for every registered algorithm, on clean and gap-ridden matrices,
under quorum rules and every fault-policy action, including the
raise paths.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.datasets.ble_uc2 import UC2Config, generate_uc2_dataset
from repro.datasets.light_uc1 import UC1Config, generate_uc1_dataset
from repro.exceptions import FusionError, QuorumNotReachedError
from repro.fusion.batch import BatchResult, fuse, process_matrix
from repro.fusion.engine import FusionEngine
from repro.fusion.faults import FaultPolicy
from repro.fusion.quorum import QuorumRule
from repro.types import Round, is_missing
from repro.vdx.examples import AVOC_SPEC
from repro.voting.avoc import AvocVoter
from repro.voting.registry import (
    available_algorithms,
    categorical_algorithms,
    create_voter,
)

#: Every registered numeric algorithm (the batch path is numeric-only;
#: categorical voters never reach it).
ALGORITHMS = tuple(
    name
    for name in sorted(available_algorithms())
    if name not in categorical_algorithms()
)


def inject_gaps(matrix, fraction=0.15, all_missing_rounds=(7,), seed=5):
    """A copy of ``matrix`` with NaN gaps and whole rounds knocked out."""
    rng = np.random.default_rng(seed)
    out = matrix.copy()
    out[rng.random(out.shape) < fraction] = np.nan
    for r in all_missing_rounds:
        if r < out.shape[0]:
            out[r] = np.nan
    return out


@pytest.fixture(scope="module")
def uc1():
    data = generate_uc1_dataset(UC1Config(n_rounds=250))
    return inject_gaps(data.matrix), list(data.modules)


@pytest.fixture(scope="module")
def uc2():
    stack = generate_uc2_dataset(UC2Config()).stack_a
    matrix = inject_gaps(stack.matrix[:250], fraction=0.1)
    return matrix, list(stack.modules)


def run_per_round(engine, matrix, modules):
    """The reference implementation: one engine.process call per row."""
    results = []
    for number, row in enumerate(matrix):
        mapping = {
            m: (None if is_missing(v) else float(v))
            for m, v in zip(modules, row)
        }
        results.append(engine.process(Round.from_mapping(number, mapping)))
    return results


def assert_results_identical(reference, batch_results):
    assert len(reference) == len(batch_results)
    for a, b in zip(reference, batch_results):
        assert a.round_number == b.round_number
        assert a.status == b.status
        if a.value is None:
            assert b.value is None
        else:
            # Bit-identity, not approx: the batch kernels must walk the
            # exact same IEEE expression trees as the scalar voters.
            assert a.value == b.value
        if a.outcome is None:
            assert b.outcome is None
        else:
            assert b.outcome is not None
            assert a.outcome.weights == b.outcome.weights
            assert a.outcome.history == b.outcome.history
            assert a.outcome.agreement == b.outcome.agreement
            assert a.outcome.eliminated == b.outcome.eliminated
            assert a.outcome.used_bootstrap == b.outcome.used_bootstrap
            assert a.outcome.diagnostics == b.outcome.diagnostics


def assert_end_state_identical(e_ref, e_batch):
    assert e_ref.rounds_processed == e_batch.rounds_processed
    assert e_ref.rounds_degraded == e_batch.rounds_degraded
    assert e_ref.last_accepted == e_batch.last_accepted
    assert e_ref.roster == e_batch.roster
    h_ref = getattr(e_ref.voter, "history", None)
    h_batch = getattr(e_batch.voter, "history", None)
    assert (h_ref is None) == (h_batch is None)
    if h_ref is not None:
        assert h_ref.snapshot() == h_batch.snapshot()
        assert h_ref.update_count == h_batch.update_count


def check_equivalence(make_engine, matrix, modules):
    """Run both paths and assert full bit-identity, incl. raise paths."""
    e_ref, e_batch = make_engine(), make_engine()
    ref_exc = batch_exc = reference = batch = None
    try:
        reference = run_per_round(e_ref, matrix, modules)
    except (FusionError, QuorumNotReachedError) as exc:
        ref_exc = exc
    try:
        batch = e_batch.process_batch(matrix, modules, diagnostics=True)
    except (FusionError, QuorumNotReachedError) as exc:
        batch_exc = exc
    if ref_exc is not None:
        assert batch_exc is not None, "per-round raised but batch did not"
        assert type(batch_exc) is type(ref_exc)
        assert str(batch_exc) == str(ref_exc)
    else:
        assert batch_exc is None, f"batch raised unexpectedly: {batch_exc!r}"
        assert_results_identical(reference, batch.to_results())
    assert_end_state_identical(e_ref, e_batch)


class TestEquivalenceUC1:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batch_matches_per_round(self, algorithm, uc1):
        matrix, modules = uc1
        check_equivalence(
            lambda: FusionEngine(create_voter(algorithm), roster=modules),
            matrix,
            modules,
        )


class TestEquivalenceUC2:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batch_matches_per_round(self, algorithm, uc2):
        matrix, modules = uc2
        check_equivalence(
            lambda: FusionEngine(create_voter(algorithm), roster=modules),
            matrix,
            modules,
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_quorum_failure_rounds(self, algorithm, uc2):
        # An UNTIL-90% rule turns the gap rounds into quorum failures;
        # both paths must degrade the same rounds the same way.
        matrix, modules = uc2
        check_equivalence(
            lambda: FusionEngine(
                create_voter(algorithm),
                roster=modules,
                quorum=QuorumRule(mode="UNTIL", percentage=90.0),
            ),
            matrix,
            modules,
        )

    @pytest.mark.parametrize("algorithm", ("average", "avoc", "clustering"))
    def test_quorum_raise_policy(self, algorithm, uc2):
        matrix, modules = uc2
        check_equivalence(
            lambda: FusionEngine(
                create_voter(algorithm),
                roster=modules,
                quorum=QuorumRule(mode="UNTIL", percentage=95.0),
                fault_policy=FaultPolicy(on_quorum_failure="raise"),
            ),
            matrix,
            modules,
        )

    @pytest.mark.parametrize("algorithm", ("average", "avoc", "me"))
    def test_missing_majority_raise_policy(self, algorithm, uc2):
        matrix, modules = uc2
        check_equivalence(
            lambda: FusionEngine(
                create_voter(algorithm),
                roster=modules,
                fault_policy=FaultPolicy(
                    on_missing_majority="raise", missing_tolerance=0.4
                ),
            ),
            matrix,
            modules,
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_skip_policy_on_all_missing_rounds(self, algorithm, uc2):
        matrix, modules = uc2
        check_equivalence(
            lambda: FusionEngine(
                create_voter(algorithm),
                roster=modules,
                fault_policy=FaultPolicy(
                    on_missing_majority="skip", missing_tolerance=0.3
                ),
            ),
            matrix,
            modules,
        )


class TestEquivalenceEdgeCases:
    def test_plurality_conflict_rounds(self):
        matrix = np.array(
            [
                [1.0, 1.0, 2.0],
                [1.0, 2.0, 3.0],  # three-way tie
                [2.0, 2.0, 1.0],
                [4.0, 4.0, 4.0],
            ]
        )
        modules = ["a", "b", "c"]
        check_equivalence(
            lambda: FusionEngine(create_voter("plurality"), roster=modules),
            matrix,
            modules,
        )
        check_equivalence(
            lambda: FusionEngine(
                create_voter("plurality"),
                roster=modules,
                fault_policy=FaultPolicy(on_conflict="raise"),
            ),
            matrix,
            modules,
        )

    @pytest.mark.parametrize("algorithm", ("average", "avoc"))
    def test_roster_learned_from_matrix(self, algorithm):
        matrix = np.array([[1.0, 1.1], [0.9, np.nan], [1.0, 1.2]])
        check_equivalence(
            lambda: FusionEngine(create_voter(algorithm)),
            matrix,
            ["E1", "E2"],
        )

    @pytest.mark.parametrize("algorithm", ("average", "avoc", "me"))
    def test_two_batches_continue_one_history(self, algorithm, uc2):
        # Voter state must carry across process_batch calls exactly as
        # it does across process calls.
        matrix, modules = uc2
        e_ref, e_batch = (
            FusionEngine(create_voter(algorithm), roster=modules),
            FusionEngine(create_voter(algorithm), roster=modules),
        )
        run_per_round(e_ref, matrix[:40], modules)
        ref = run_per_round(e_ref, matrix[40:80], modules)
        e_batch.process_batch(matrix[:40], modules)
        batch = e_batch.process_batch(matrix[40:80], modules, diagnostics=True)
        ref_values = [r.value for r in ref]
        batch_values = [r.value for r in batch.to_results()]
        assert ref_values == batch_values
        assert_end_state_identical(e_ref, e_batch)

    def test_exclusion_engine_falls_back_and_matches(self, uc1):
        # VDX value exclusion is not vectorized; process_batch must
        # detect it and route through the per-round fallback, still
        # producing identical results.
        matrix, modules = uc1
        check_equivalence(
            lambda: FusionEngine(
                create_voter("avoc"),
                roster=modules,
                exclusion="DEVIATION",
                exclusion_threshold=2.0,
            ),
            matrix[:60],
            modules,
        )

    def test_empty_matrix_is_a_no_op(self):
        engine = FusionEngine(create_voter("average"), roster=["a", "b"])
        batch = engine.process_batch(np.empty((0, 2)), ["a", "b"])
        assert batch.n_rounds == 0
        assert engine.rounds_processed == 0

    def test_shape_validation(self):
        engine = FusionEngine(create_voter("average"))
        with pytest.raises(FusionError):
            engine.process_batch(np.zeros(3), ["a", "b", "c"])
        with pytest.raises(FusionError):
            engine.process_batch(np.zeros((2, 3)), ["a", "b"])

    def test_to_results_matches_the_per_round_loop(self, uc1):
        matrix, modules = uc1
        e_ref = FusionEngine(create_voter("avoc"), roster=modules)
        e_batch = FusionEngine(create_voter("avoc"), roster=modules)
        reference = run_per_round(e_ref, matrix[:80], modules)
        batch = e_batch.process_batch(matrix[:80], modules, diagnostics=True)
        assert_results_identical(reference, batch.to_results())
        assert_end_state_identical(e_ref, e_batch)


class TestFuseApi:
    def test_fuse_by_algorithm_name(self):
        result = fuse([[1.0, 1.1, 1.2]], "average")
        assert isinstance(result, BatchResult)
        assert result.values.tolist() == [pytest.approx(1.1)]
        assert result.statuses.tolist() == ["ok"]

    def test_fuse_is_exported_at_package_level(self):
        result = repro.fuse([[1.0, 1.1, 1.2]], "average")
        assert result.values.tolist() == [pytest.approx(1.1)]

    def test_fuse_accepts_1d_input_as_one_round(self):
        result = fuse([18.0, 18.1, 17.9], "median")
        assert result.n_rounds == 1
        assert result.values[0] == 18.0

    def test_fuse_with_voter_instance(self):
        voter = AvocVoter()
        result = fuse(
            [[18.0, 18.1, 17.9, 24.0, 18.05]], voter, diagnostics=True
        )
        outcome = result.results[0].outcome
        assert outcome.used_bootstrap
        assert "E4" in outcome.eliminated

    def test_fuse_with_vdx_spec(self):
        result = fuse([[18.0, 18.1, 17.9, 24.0, 18.05]], AVOC_SPEC)
        assert result.statuses[0] == "ok"

    def test_fuse_matches_engine_batch(self, uc1):
        matrix, modules = uc1
        via_fuse = fuse(matrix, "avoc", modules=modules)
        engine = FusionEngine(create_voter("avoc"), roster=modules)
        via_engine = engine.process_batch(matrix, modules)
        assert np.array_equal(
            via_fuse.values, via_engine.values, equal_nan=True
        )
        assert via_fuse.statuses.tolist() == via_engine.statuses.tolist()

    def test_fuse_quorum_and_policy_overrides(self):
        matrix = [[1.0, np.nan, np.nan], [1.0, 1.1, 0.9]]
        result = fuse(
            matrix,
            "average",
            quorum=QuorumRule(mode="UNTIL", percentage=100.0),
            fault_policy=FaultPolicy(on_quorum_failure="skip"),
        )
        assert result.statuses.tolist() == ["skipped", "ok"]

    def test_fuse_rejects_unknown_algorithm(self):
        with pytest.raises(Exception):
            fuse([[1.0]], "no-such-voter")


class TestBatchResult:
    def test_ok_mask_and_module_weight(self, uc1):
        matrix, modules = uc1
        engine = FusionEngine(create_voter("avoc"), roster=modules)
        batch = engine.process_batch(matrix[:50], modules, diagnostics=True)
        assert batch.ok.dtype == bool
        assert batch.ok.shape == (50,)
        weights = batch.module_weight(modules[0])
        assert weights.shape == (50,)

    def test_module_weight_requires_diagnostics(self):
        engine = FusionEngine(create_voter("average"), roster=["a", "b"])
        batch = engine.process_batch(np.ones((3, 2)), ["a", "b"])
        with pytest.raises(FusionError):
            batch.module_weight("a")

    def test_module_weight_unknown_module(self):
        engine = FusionEngine(create_voter("average"), roster=["a", "b"])
        batch = engine.process_batch(
            np.ones((3, 2)), ["a", "b"], diagnostics=True
        )
        with pytest.raises(FusionError):
            batch.module_weight("zz")


class TestQuorumDeprecation:
    """The voter-level ``quorum_percentage`` is gone: quorum is the
    engine's :class:`QuorumRule` alone."""

    def test_zero_percentage_stays_silent(self):
        from repro.voting.base import VoterParams

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = VoterParams()  # must not warn
        assert not hasattr(params, "quorum_percentage")


class TestProcessMatrixFunction:
    def test_process_matrix_is_engine_method_backend(self, uc1):
        matrix, modules = uc1
        e1 = FusionEngine(create_voter("median"), roster=modules)
        e2 = FusionEngine(create_voter("median"), roster=modules)
        via_fn = process_matrix(e1, matrix[:40], modules)
        via_method = e2.process_batch(matrix[:40], modules)
        assert np.array_equal(via_fn.values, via_method.values, equal_nan=True)
