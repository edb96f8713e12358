"""Acceptance: a 500-round cluster run over the async ingest tier is
bit-identical to direct :func:`repro.fuse` output."""

from __future__ import annotations

import numpy as np

from repro import fuse
from repro.cluster.supervisor import FusionCluster
from repro.ingest import AsyncIngestServer
from repro.service.facade import connect
from repro.vdx.examples import AVOC_SPEC

MODULES = ["E1", "E2", "E3", "E4", "E5"]
ROUNDS = 500


def test_500_round_ingest_run_bit_identical_to_direct_fuse():
    rng = np.random.default_rng(2022)
    matrix = rng.normal(18.0, 0.15, (ROUNDS, 5))
    # Sprinkle missing readings and one faulty module stretch, so the
    # identity check exercises degraded rounds and exclusions too.
    matrix[::97, 2] = np.nan
    matrix[100:140, 4] += 6.0

    direct = fuse(matrix, AVOC_SPEC, modules=MODULES).values

    with FusionCluster(
        AVOC_SPEC, n_shards=2, replicas=2, mode="thread"
    ) as cluster:
        with AsyncIngestServer(cluster.gateway) as ingest:
            with connect(ingest.address) as client:
                assert client.transport == "binary"
                got = []
                for n in range(ROUNDS):
                    values = {
                        m: (None if np.isnan(v) else float(v))
                        for m, v in zip(MODULES, matrix[n])
                    }
                    got.append(client.vote(n, values, series="uc1")["value"])

    for n, (value, expected) in enumerate(zip(got, direct)):
        if np.isnan(expected):
            assert value is None, n
        else:
            assert value == float(expected), n
