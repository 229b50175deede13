"""Driver that runs a user's program under the memory-model checker."""

from __future__ import annotations

from typing import Any, Callable

from repro.check.core import RaceChecker
from repro.config import (
    CheckConfig,
    FaultPlan,
    MachineConfig,
    RunResult,
    SimConfig,
)

__all__ = ["run_checked", "JITTER_PROB", "JITTER_DELAY_NS", "JITTER_FAULTS"]

#: Schedule-perturbation knobs (the ``--perturb`` / ``--jitter`` modes):
#: per-packet latency spikes reusing the repro.faults delay machinery.
#: Deterministic per seed -- a finding's reproducer seed replays exactly.
JITTER_PROB = 0.25
JITTER_DELAY_NS = 5_000
JITTER_FAULTS = FaultPlan(delay_prob=JITTER_PROB, delay_ns=JITTER_DELAY_NS)


def run_checked(program: Callable[..., Any], nranks: int = 4, *,
                seed: int = SimConfig.seed, ranks_per_node: int = 1,
                jitter: bool = False,
                **kwargs: Any) -> tuple[RunResult, RaceChecker]:
    """Run ``program`` with the checker attached.

    ``jitter=True`` additionally perturbs the schedule with seeded
    per-packet latency spikes so latent (schedule-dependent) races get a
    chance to manifest; the seed fully determines the perturbation.
    """
    from repro.runtime.job import run_spmd

    res = run_spmd(program, nranks,
                   machine=MachineConfig(ranks_per_node=ranks_per_node),
                   sim=SimConfig(seed=seed), faults=JITTER_FAULTS if jitter else None,
                   check=CheckConfig(enabled=True), **kwargs)
    assert isinstance(res.check, RaceChecker)
    return res, res.check
