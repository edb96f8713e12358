"""The fusion engine: a voter wrapped in deployment policy.

One engine instance owns one voter, one quorum rule, one exclusion
filter and one fault policy, and processes rounds (or whole recorded
matrices, as the paper's reproducible evaluation does) into
:class:`FusionResult` objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import (
    EmptyRoundError,
    FusionError,
    NoMajorityError,
    QuorumNotReachedError,
)
from ..obs import EngineInstruments, get_default_registry
from ..types import Round, VoteOutcome
from ..voting.base import Voter
from .exclusion import exclude_values
from .faults import FaultPolicy
from .quorum import QuorumRule

#: Engine degraded-round reason → metric label.
_REASON_LABELS = {
    "majority of values missing": "majority_missing",
    "quorum": "quorum",
    "no majority": "conflict",
    "no values present": "empty",
}


@dataclass(frozen=True)
class FusionResult:
    """One round's engine-level result.

    ``status`` is ``"ok"`` for a regular vote, ``"held"`` when the fault
    policy substituted the last accepted value, and ``"skipped"`` when
    the round produced no output at all.
    """

    round_number: int
    value: Optional[Any]
    status: str
    excluded: Tuple[str, ...] = ()
    outcome: Optional[VoteOutcome] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class FusionEngine:
    """Policy wrapper around a voter.

    Args:
        voter: the voting algorithm instance.
        roster: known module names.  When None, the roster is learned
            from the first round and extended as new modules appear.
        quorum: quorum rule (default: no quorum requirement).
        exclusion: VDX exclusion mode.
        exclusion_threshold: threshold for the exclusion mode.
        fault_policy: behaviour on degraded rounds.
        registry: metrics registry to instrument against (default: the
            process-global registry from :mod:`repro.obs`; instruments
            are resolved once, here, so a registry swap only affects
            engines constructed afterwards).
    """

    def __init__(
        self,
        voter: Voter,
        roster: Optional[Sequence[str]] = None,
        quorum: Optional[QuorumRule] = None,
        exclusion: str = "NONE",
        exclusion_threshold: float = 0.0,
        fault_policy: Optional[FaultPolicy] = None,
        registry=None,
    ):
        self.voter = voter
        self.roster: List[str] = list(roster) if roster else []
        self.quorum = quorum or QuorumRule()
        self.exclusion = exclusion.upper()
        self.exclusion_threshold = exclusion_threshold
        self.fault_policy = fault_policy or FaultPolicy()
        self.last_accepted: Optional[Any] = None
        self.rounds_processed = 0
        self.rounds_degraded = 0
        self._obs = EngineInstruments(
            registry if registry is not None else get_default_registry(),
            getattr(voter, "name", type(voter).__name__),
            voter,
        )

    @classmethod
    def from_spec(
        cls, spec, voter: Voter, fault_policy=None, registry=None
    ) -> "FusionEngine":
        """Build an engine configured by a VDX specification."""
        return cls(
            voter=voter,
            quorum=QuorumRule(mode=spec.quorum, percentage=spec.quorum_percentage),
            exclusion=spec.exclusion,
            exclusion_threshold=spec.exclusion_threshold,
            fault_policy=fault_policy,
            registry=registry,
        )

    # -- degraded-round handling -----------------------------------------

    def _degraded(self, voting_round: Round, action: str, reason: str) -> FusionResult:
        self.rounds_degraded += 1
        self._obs.degraded[_REASON_LABELS[reason]].inc()
        if reason == "quorum":
            self._obs.quorum_failures.inc()
        if action == "raise":
            if reason == "quorum":
                raise QuorumNotReachedError(
                    voting_round.submitted_count,
                    self.quorum.required_count(len(self.roster)),
                )
            raise FusionError(f"round {voting_round.number} rejected: {reason}")
        if action == "last_value" and self.last_accepted is not None:
            return FusionResult(
                round_number=voting_round.number,
                value=self.last_accepted,
                status="held",
            )
        return FusionResult(
            round_number=voting_round.number, value=None, status="skipped"
        )

    # -- main entry ---------------------------------------------------------

    def process(self, voting_round: Round) -> FusionResult:
        """Run one round through exclusion, quorum, fault policy and vote."""
        if not self._obs.enabled:
            return self._process(voting_round)
        # Timestamps bracket the call only — no clock value ever feeds
        # the fused output, so determinism is untouched.
        start = time.perf_counter()
        try:
            return self._process(voting_round)
        finally:
            self._obs.round_seconds.observe(time.perf_counter() - start)

    def _process(self, voting_round: Round) -> FusionResult:
        self.rounds_processed += 1
        self._obs.rounds.inc()
        for module in voting_round.modules:
            if module not in self.roster:
                self.roster.append(module)

        policy = self.fault_policy
        if policy.majority_missing(voting_round.submitted_count, len(self.roster)):
            return self._degraded(
                voting_round, policy.on_missing_majority, "majority of values missing"
            )
        if not self.quorum.satisfied(voting_round, len(self.roster)):
            return self._degraded(voting_round, policy.on_quorum_failure, "quorum")

        filtered, excluded = exclude_values(
            voting_round, self.exclusion, self.exclusion_threshold
        )
        try:
            outcome = self.voter.vote(filtered)
        except NoMajorityError:
            return self._degraded(voting_round, policy.on_conflict, "no majority")
        except EmptyRoundError:
            return self._degraded(
                voting_round, policy.on_missing_majority, "no values present"
            )
        if outcome.value is None:
            return self._degraded(voting_round, policy.on_quorum_failure, "quorum")
        self.last_accepted = outcome.value
        return FusionResult(
            round_number=voting_round.number,
            value=outcome.value,
            status="ok",
            excluded=excluded,
            outcome=outcome,
        )

    def run(self, rounds) -> List[FusionResult]:
        """Process an iterable of rounds in order."""
        return [self.process(r) for r in rounds]

    def process_batch(
        self,
        matrix: np.ndarray,
        modules: Optional[Sequence[str]] = None,
        diagnostics: bool = False,
    ):
        """Process a recorded rounds × modules matrix in one batch.

        NaN (or None) entries are treated as missing values.  The fused
        series comes back as a :class:`~repro.fusion.batch.BatchResult`
        whose arrays are bit-identical to running :meth:`process` row by
        row — including engine statistics, ``last_accepted`` carry-over,
        voter history state and ``raise`` fault-policy exceptions — but
        computed through the vectorized kernels in
        :mod:`repro.voting.kernels` where the voter supports them.

        Args:
            matrix: rounds × modules array-like of readings.
            modules: optional column names (default ``E1..En``).
            diagnostics: also record the per-round weight matrix and
                full :class:`FusionResult` objects (slower; needed by
                :meth:`~repro.fusion.batch.BatchResult.to_results`).
        """
        from .batch import process_matrix

        if not self._obs.enabled:
            return process_matrix(self, matrix, modules, diagnostics=diagnostics)
        start = time.perf_counter()
        try:
            return process_matrix(self, matrix, modules, diagnostics=diagnostics)
        finally:
            self._obs.batch_seconds.observe(time.perf_counter() - start)

    def output_series(self, results: Sequence[FusionResult]) -> np.ndarray:
        """Extract the output values as a float array (NaN for skips)."""
        return np.asarray(
            [float("nan") if r.value is None else float(r.value) for r in results]
        )

    def statistics(self) -> Dict[str, Any]:
        """Operational summary: throughput, degradation, availability."""
        processed = self.rounds_processed
        degraded = self.rounds_degraded
        return {
            "rounds_processed": processed,
            "rounds_degraded": degraded,
            "availability": (processed - degraded) / processed if processed else 0.0,
            "roster_size": len(self.roster),
            "last_accepted": self.last_accepted,
            "algorithm": getattr(self.voter, "name", type(self.voter).__name__),
        }

    def reset(self) -> None:
        """Reset voter state and engine counters (roster is kept)."""
        self.voter.reset()
        self.last_accepted = None
        self.rounds_processed = 0
        self.rounds_degraded = 0
