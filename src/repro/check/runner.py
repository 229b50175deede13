"""Driver that runs a user's program under the memory-model checker."""

from __future__ import annotations

from typing import Any, Callable

from repro.check.core import RaceChecker
from repro.config import (
    CheckConfig,
    MachineConfig,
    RunResult,
    SimConfig,
)

__all__ = ["run_checked"]


def run_checked(program: Callable[..., Any], nranks: int = 4, *,
                seed: int = SimConfig.seed, ranks_per_node: int = 1,
                **kwargs: Any) -> tuple[RunResult, RaceChecker]:
    """Run ``program`` with the checker attached; remaining keyword
    arguments (``faults=``, ``gemini=``, ...) go to
    :func:`~repro.runtime.job.run_spmd`."""
    from repro.runtime.job import run_spmd

    res = run_spmd(program, nranks,
                   machine=MachineConfig(ranks_per_node=ranks_per_node),
                   sim=SimConfig(seed=seed),
                   check=CheckConfig(enabled=True), **kwargs)
    assert isinstance(res.check, RaceChecker)
    return res, res.check
