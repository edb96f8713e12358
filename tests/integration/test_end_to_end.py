"""End-to-end integration tests across subsystem boundaries."""

from __future__ import annotations


import numpy as np

from repro.analysis.diff import run_voter_series
from repro.datasets.injection import drop_values
from repro.datasets.loader import load_csv, save_csv
from repro.fusion.engine import FusionEngine
from repro.fusion.faults import FaultPolicy
from repro.history import JsonlStateStore
from repro.simulation.runner import run_uc1_simulation
from repro.vdx.examples import AVOC_SPEC
from repro.vdx.factory import build_engine, build_voter
from repro.vdx.spec import VotingSpec


class TestVdxToFigurePipeline:
    """Spec file on disk -> voter -> recorded dataset -> fused output."""

    def test_spec_file_drives_fusion_over_recorded_data(self, tmp_path, uc1_small):
        spec_path = tmp_path / "avoc.vdx.json"
        AVOC_SPEC.save(spec_path)
        data_path = tmp_path / "uc1.csv"
        save_csv(uc1_small, data_path)

        spec = VotingSpec.from_file(spec_path)
        engine = build_engine(spec)
        dataset = load_csv(data_path)
        results = engine.process_batch(
            dataset.matrix, dataset.modules, diagnostics=True
        ).to_results()
        outputs = engine.output_series(results)
        assert outputs.shape == (uc1_small.n_rounds,)
        assert 17.0 < np.nanmean(outputs) < 19.5

    def test_vdx_avoc_equals_registry_avoc(self, uc1_small_faulty):
        from repro.voting.registry import create_voter

        via_vdx = run_voter_series(build_voter(AVOC_SPEC), uc1_small_faulty)
        via_registry = run_voter_series(create_voter("avoc"), uc1_small_faulty)
        assert np.allclose(via_vdx, via_registry, equal_nan=True)


class TestPersistentHistoryAcrossRestart:
    def test_warm_restart_skips_bootstrap(self, tmp_path, uc1_small_faulty):
        first = build_voter(
            AVOC_SPEC, history_store=JsonlStateStore(tmp_path).store_for("uc1")
        )
        for voting_round in uc1_small_faulty.slice(0, 50).rounds():
            first.vote(voting_round)
        assert first.bootstraps_used == 1

        # New process: records reload, set is no longer "fresh", so the
        # restarted voter goes straight to the Hybrid path.
        revived = build_voter(
            AVOC_SPEC, history_store=JsonlStateStore(tmp_path).store_for("uc1")
        )
        outcome = revived.vote(next(iter(uc1_small_faulty.slice(50, 51).rounds())))
        assert not outcome.used_bootstrap
        assert "E4" in outcome.eliminated


class TestFaultPolicyUnderMissingData:
    def test_hold_last_value_through_blackout(self, uc1_small):
        # Drop every sensor for a stretch of rounds: the engine must
        # hold the last accepted value (the §7 recommendation).
        dataset = uc1_small.slice(0, 60)
        for module in dataset.modules:
            dataset = drop_values(dataset, module, 1.0, start_round=30,
                                  end_round=40, seed=hash(module) % 1000)
        engine = FusionEngine(
            build_voter(AVOC_SPEC),
            roster=list(dataset.modules),
            fault_policy=FaultPolicy(on_missing_majority="last_value"),
        )
        results = engine.run(dataset.rounds())
        held = [r for r in results[30:40]]
        assert all(r.status == "held" for r in held)
        assert all(r.value == results[29].value for r in held)

    def test_recovers_after_blackout(self, uc1_small):
        dataset = uc1_small.slice(0, 60)
        for module in dataset.modules:
            dataset = drop_values(dataset, module, 1.0, start_round=30,
                                  end_round=40, seed=hash(module) % 1000)
        engine = FusionEngine(build_voter(AVOC_SPEC), roster=list(dataset.modules))
        results = engine.run(dataset.rounds())
        assert results[45].status == "ok"


class TestSimulationMatchesOfflineVoting:
    def test_lossless_simulation_equals_dataset_voting(self):
        # With no network loss and a deterministic seed, the simulated
        # deployment must produce the same rounds the offline dataset
        # path produces.
        report = run_uc1_simulation(algorithm="average", rounds=30, wifi_loss=0.0)
        from repro.datasets.light_uc1 import UC1Config, generate_uc1_dataset
        from repro.voting.stateless import MeanVoter

        dataset = generate_uc1_dataset(UC1Config(n_rounds=30))
        offline = run_voter_series(MeanVoter(), dataset)
        assert np.allclose(report.outputs, offline, atol=1e-9)
