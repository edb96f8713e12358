"""§7 latency claims.

The paper: "the system can execute a history-aware voting round in
1 millisecond and a stateless vote in 50 microseconds (datastore reads
and writes being the bottleneck)" — on a Raspberry Pi 4.  We measure
the same operations on the host; the absolute numbers will be faster
than the Pi's, the *ordering* (stateless ≪ history-aware ≪ store-backed)
is the reproducible shape.
"""

from __future__ import annotations

import itertools

import pytest

from repro.history import JsonlStateStore, TieredHistoryStore
from repro.types import Round
from repro.voting.avoc import AvocVoter
from repro.voting.hybrid import HybridVoter
from repro.voting.standard import StandardVoter
from repro.voting.stateless import MeanVoter

VALUES = [18.0, 18.1, 17.9, 18.15, 18.05]


def _rounds():
    counter = itertools.count()
    return lambda: Round.from_values(next(counter), VALUES)


def test_stateless_vote_latency(benchmark):
    """Paper: a stateless vote takes ~50 µs (Pi-class hardware)."""
    voter = MeanVoter()
    next_round = _rounds()
    result = benchmark(lambda: voter.vote(next_round()))
    assert result.value == pytest.approx(sum(VALUES) / len(VALUES))
    # Generous ceiling: must be well under a millisecond on any host.
    assert benchmark.stats["mean"] < 1e-3


def test_history_aware_round_latency(benchmark):
    """Paper: a history-aware round takes ~1 ms (Pi-class hardware)."""
    voter = HybridVoter()
    next_round = _rounds()
    benchmark(lambda: voter.vote(next_round()))
    assert benchmark.stats["mean"] < 5e-3


def test_standard_round_latency(benchmark):
    voter = StandardVoter()
    next_round = _rounds()
    benchmark(lambda: voter.vote(next_round()))
    assert benchmark.stats["mean"] < 5e-3


def test_avoc_round_latency(benchmark):
    voter = AvocVoter()
    next_round = _rounds()
    benchmark(lambda: voter.vote(next_round()))
    assert benchmark.stats["mean"] < 5e-3


def test_store_backed_round_latency(benchmark, tmp_path):
    """The datastore write is the bottleneck, exactly as §7 states."""
    store = JsonlStateStore(tmp_path, compact_after=512)
    voter = HybridVoter(history_store=store.store_for("s"))
    next_round = _rounds()
    benchmark(lambda: voter.vote(next_round()))
    assert benchmark.stats["mean"] < 50e-3


def test_write_behind_cache_recovers_most_of_the_cost(benchmark, tmp_path):
    """The tiered store's write-behind (``flush_every``) amortises the
    datastore bottleneck."""
    import time

    def time_voter(voter, n=300):
        next_round = _rounds()
        start = time.perf_counter()
        for _ in range(n):
            voter.vote(next_round())
        return (time.perf_counter() - start) / n

    def measure():
        direct = time_voter(
            HybridVoter(
                history_store=JsonlStateStore(
                    tmp_path / "direct", compact_after=512
                ).store_for("s")
            )
        )
        cached = time_voter(
            HybridVoter(
                history_store=TieredHistoryStore(
                    JsonlStateStore(tmp_path / "cached", compact_after=512),
                    flush_every=16,
                ).store_for("s")
            )
        )
        memory = time_voter(HybridVoter())
        return direct, cached, memory

    direct, cached, memory = benchmark.pedantic(measure, iterations=1, rounds=1)
    print(
        f"\ndirect store: {direct*1e6:.1f} µs  "
        f"write-behind: {cached*1e6:.1f} µs  "
        f"in-memory: {memory*1e6:.1f} µs"
    )
    # 10 % jitter allowance: on a loaded host the cached and in-memory
    # paths are close enough to swap places occasionally.
    assert memory <= cached * 1.10
    assert cached <= direct * 1.10


def test_latency_ordering_matches_paper(benchmark, tmp_path):
    """stateless < history-aware < datastore-backed."""
    import time

    def time_voter(voter, n=300):
        next_round = _rounds()
        start = time.perf_counter()
        for _ in range(n):
            voter.vote(next_round())
        return (time.perf_counter() - start) / n

    def measure():
        stateless = time_voter(MeanVoter())
        history = time_voter(HybridVoter())
        backed = time_voter(
            HybridVoter(
                history_store=JsonlStateStore(
                    tmp_path / "h", compact_after=512
                ).store_for("s")
            )
        )
        return stateless, history, backed

    stateless, history, backed = benchmark.pedantic(
        measure, iterations=1, rounds=1
    )
    print(
        f"\nstateless: {stateless*1e6:.1f} µs  "
        f"history-aware: {history*1e6:.1f} µs  "
        f"store-backed: {backed*1e6:.1f} µs"
    )
    assert stateless < history < backed


def test_batch_fusion_throughput_meets_speedup_floor(benchmark, capsys):
    """The vectorized batch core's recorded perf baseline.

    Feeds a 10'000-round, 8-module matrix through the legacy per-round
    loop and through :meth:`FusionEngine.process_batch`, asserts
    bit-identical outputs, and enforces the speedup floor: >=5x for the
    stateless kernels, >=20x for the segment-vectorized history voters
    (avoc, clustering).  The measured numbers are written to
    ``BENCH_latency.json`` in the repo root as the recorded baseline.
    """
    import pathlib
    import time

    import numpy as np

    from benchmarks.baseline_io import write_baseline
    from repro.fusion.engine import FusionEngine
    from repro.types import Round as _Round
    from repro.voting.registry import create_voter

    rng = np.random.default_rng(42)
    matrix = 18.0 + 0.1 * rng.standard_normal((10_000, 8))
    modules = [f"E{i+1}" for i in range(8)]

    def legacy(algorithm):
        engine = FusionEngine(create_voter(algorithm), roster=modules)
        start = time.perf_counter()
        values = [
            engine.process(
                _Round.from_mapping(
                    number, dict(zip(modules, row.tolist()))
                )
            ).value
            for number, row in enumerate(matrix)
        ]
        return time.perf_counter() - start, np.asarray(values, dtype=float)

    def batched(algorithm):
        engine = FusionEngine(create_voter(algorithm), roster=modules)
        start = time.perf_counter()
        batch = engine.process_batch(matrix, modules)
        return time.perf_counter() - start, batch.values

    floors = {"average": 5.0, "median": 5.0, "clustering": 20.0, "avoc": 20.0}

    def measure():
        report = {}
        for algorithm, floor in floors.items():
            loop_s, loop_values = legacy(algorithm)
            batch_s, batch_values = batched(algorithm)
            np.testing.assert_array_equal(loop_values, batch_values)
            report[algorithm] = {
                "rounds": int(matrix.shape[0]),
                "modules": int(matrix.shape[1]),
                "loop_seconds": round(loop_s, 4),
                "batch_seconds": round(batch_s, 4),
                "speedup": round(loop_s / batch_s, 2),
                "floor": floor,
                "batch_rounds_per_second": round(
                    matrix.shape[0] / batch_s, 1
                ),
            }
        return report

    report = benchmark.pedantic(measure, iterations=1, rounds=1)
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_latency.json"
    write_baseline(out, report)
    with capsys.disabled():
        for algorithm, row in report.items():
            print(
                f"\n{algorithm}: loop {row['loop_seconds']*1e3:.0f} ms, "
                f"batch {row['batch_seconds']*1e3:.0f} ms, "
                f"{row['speedup']:.1f}x (floor {row['floor']:.0f}x)"
            )
    for algorithm, row in report.items():
        assert row["speedup"] >= row["floor"], (
            f"{algorithm}: {row['speedup']:.2f}x below the "
            f"{row['floor']:.0f}x floor"
        )


def test_instrumented_fuse_stays_within_5pct_of_baseline(benchmark, capsys):
    """Observability must be free: instrumented fuse() keeps its speed.

    Two assertions, both load-independent ratios (absolute rounds/sec
    on a shared host swings far more than 5% between runs):

    * **zero-cost**: :meth:`FusionEngine.process_batch` against a live
      registry is within 5% of the same call against ``NULL_REGISTRY``
      (the disabled path, i.e. the pre-instrumentation baseline).
      Samples are interleaved and best-of-5 so load drift hits both
      sides equally.
    * **committed baseline**: the instrumented batch path keeps at
      least 95% of the per-algorithm ``speedup`` recorded in
      ``BENCH_latency.json`` — the same batch-vs-legacy-loop quantity
      the floor test records, so machine speed cancels out of the
      comparison against the committed numbers.
    """
    import json
    import pathlib
    import time

    import numpy as np

    from repro.fusion.engine import FusionEngine
    from repro.obs import NULL_REGISTRY, MetricsRegistry
    from repro.types import Round as _Round
    from repro.voting.registry import create_voter

    baseline_path = (
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_latency.json"
    )
    if not baseline_path.is_file():
        pytest.skip("no recorded BENCH_latency.json baseline")
    recorded = json.loads(baseline_path.read_text())

    rng = np.random.default_rng(42)
    matrix = 18.0 + 0.1 * rng.standard_normal((10_000, 8))
    modules = [f"E{i+1}" for i in range(8)]

    def batch_sample(algorithm, registry, inner):
        # One sample times `inner` consecutive batches so fast kernels
        # (sub-millisecond per batch) aren't judged on scheduler jitter.
        engine = FusionEngine(
            create_voter(algorithm), roster=modules, registry=registry
        )
        start = time.perf_counter()
        for _ in range(inner):
            engine.process_batch(matrix, modules)
        return (time.perf_counter() - start) / inner

    def loop_seconds(algorithm):
        engine = FusionEngine(
            create_voter(algorithm), roster=modules, registry=NULL_REGISTRY
        )
        start = time.perf_counter()
        for number, row in enumerate(matrix):
            engine.process(
                _Round.from_mapping(number, dict(zip(modules, row.tolist())))
            )
        return time.perf_counter() - start

    def overhead_sample(algorithm, registry, rows, inner):
        # Like batch_sample, but over a row slice: slow kernels are
        # sampled in ~25 ms slices so one load burst cannot shadow a
        # whole sampling side (the ratio is per-round, so a slice
        # measures the same per-round cost as the full matrix).
        engine = FusionEngine(
            create_voter(algorithm), roster=modules, registry=registry
        )
        sub = matrix[:rows]
        start = time.perf_counter()
        for _ in range(inner):
            engine.process_batch(sub, modules)
        return (time.perf_counter() - start) / inner

    def measure_one(algorithm):
        warmup = batch_sample(algorithm, NULL_REGISTRY, 1)
        throughput = matrix.shape[0] / max(warmup, 1e-9)
        rows = max(1000, min(10_000, int(throughput * 0.025)))
        inner = max(1, min(30, int(0.025 / max(rows / throughput, 1e-9))))
        # Paired samples: each (instrumented, disabled) pair runs
        # back-to-back, so a load burst inflates both sides of the
        # ratio; the min pair ratio is the cleanest overhead estimate.
        overhead = min(
            overhead_sample(algorithm, MetricsRegistry(), rows, inner)
            / overhead_sample(algorithm, NULL_REGISTRY, rows, inner)
            for _ in range(8)
        ) - 1.0
        full_batch = min(
            batch_sample(algorithm, MetricsRegistry(), inner=1)
            for _ in range(2)
        )
        return {
            "rows": rows,
            "overhead": overhead,
            "speedup": loop_seconds(algorithm) / full_batch,
        }

    def check(row, algorithm):
        failures = []
        if row["overhead"] > 0.05:
            failures.append(
                f"{algorithm}: instrumentation costs {row['overhead']:.1%} "
                f"(>5%) vs the disabled path"
            )
        committed = recorded[algorithm]["speedup"]
        if row["speedup"] < 0.95 * committed:
            failures.append(
                f"{algorithm}: instrumented speedup {row['speedup']:.2f}x "
                f"is >5% below the recorded {committed:.2f}x"
            )
        return failures

    def measure():
        # A shared host's load bursts can exceed the 5% margin, so each
        # algorithm gets up to 3 measurement attempts; a genuine
        # regression fails all of them.
        report, failures = {}, []
        for algorithm in sorted(recorded):
            for attempt in range(3):
                row = measure_one(algorithm)
                problems = check(row, algorithm)
                if not problems:
                    break
            report[algorithm] = row
            failures.extend(problems)
        return report, failures

    report, failures = benchmark.pedantic(measure, iterations=1, rounds=1)
    with capsys.disabled():
        for algorithm, row in report.items():
            print(
                f"\n{algorithm}: instrumentation overhead "
                f"{row['overhead']:+.1%}, "
                f"speedup {row['speedup']:.1f}x "
                f"(recorded {recorded[algorithm]['speedup']:.1f}x)"
            )
    assert not failures, "; ".join(failures)
