"""Layer-ledger benchmark for the AVOC reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sensor_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report and one ``report`` JSON line with the host stamp
and every intermediate figure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ingest.flush_rounds_mean": "rounds",
    "ingest.wait_ms_p50": "ms",
    "ingest.refused": "count",
    "gateway.dispatch_ms_p50": "ms",
    "gateway.dispatch_ms_tail": "ms",
    "gateway.self_ms_p50": "ms",
    "gateway.flush_rounds_mean": "rounds",
    "gateway.replica_disagreements": "count",
    "link.roundtrip_ms_p50": "ms",
    "link.wire_ms_p50": "ms",
    "shard.dispatch_ms_mean": "ms",
    "shard.self_ms_mean": "ms",
    "engine.batch_ms_mean": "ms",
    "engine.us_per_round": "us",
    "engine.kernel_round_frac": "fraction",
    "store.writebacks_per_round": "1/round",
    "store.rehydrations_per_round": "1/round",
    "store.evictions_per_round": "1/round",
    "store.segment_bytes": "bytes",
    "store.us_per_round": "us",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "obs.overhead_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "gen.lateness_ms_tail": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sensor_stream", "gateway_bulk", "fleet_cold", "uc1_offline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import ledger

    state = ROOT / ".perfbench-state" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            outcome = ledger.traced_run(args, state)
            metrics = {k: (outcome.metrics[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
        else:
            outcome = ledger.untraced_run(args, state, SETUPS)
            metrics = {k: (outcome.metrics[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            state.parent.rmdir()
        except OSError:
            pass  # another run's state is still there
    for line in outcome.lines:
        print(line)
    print("report " + json.dumps(outcome.report, sort_keys=True, default=float))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
