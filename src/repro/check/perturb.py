"""Schedule-perturbation sweeps: manifest latent races, print reproducers.

A latent race is one the default schedule happens to order -- e.g. a
target that only reads a slot after the writer's operation had time to
land.  The sweep reruns a workload N times, each with

* a distinct derived seed (``derive_seed(base_seed, "perturb-<i>")``),
* seeded per-packet latency spikes (the ``repro.faults`` delay
  machinery, :data:`~repro.check.runner.JITTER_PROB` /
  :data:`~repro.check.runner.JITTER_DELAY_NS`),

so completion orders genuinely differ between iterations while every
iteration stays bit-reproducible.  Each violation is stamped with its
iteration's seed; replaying is one command::

    repro check <workload> --ranks <n> --seed <seed> --jitter
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.core import RaceChecker, Violation
from repro.config import SimConfig
from repro.sim.random import derive_seed

__all__ = ["PerturbResult", "perturb_sweep", "reproducer_command"]


def reproducer_command(workload: str, nranks: int, seed: int) -> str:
    """The CLI invocation that replays one perturbed finding exactly."""
    return f"repro check {workload} --ranks {nranks} --seed {seed} --jitter"


@dataclass
class PerturbResult:
    """Outcome of one perturbation sweep."""

    workload: str
    nranks: int
    iterations: int
    checkers: list[RaceChecker] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)

    @property
    def findings(self) -> list[Violation]:
        return [v for ck in self.checkers for v in ck.violations]

    @property
    def clean(self) -> bool:
        return not self.findings


def perturb_sweep(name: str, iterations: int, *, nranks: int = 4,
                  base_seed: int = SimConfig.seed,
                  ranks_per_node: int = 1) -> PerturbResult:
    """Rerun workload ``name`` under ``iterations`` perturbed schedules."""
    from repro.workloads import run_workload

    if iterations < 1:
        raise ValueError(f"iterations={iterations} must be positive")
    out = PerturbResult(workload=name, nranks=nranks, iterations=iterations)
    for i in range(iterations):
        seed = derive_seed(base_seed, f"perturb-{i}")
        ck = run_workload(name, nranks, seed=seed,
                          ranks_per_node=ranks_per_node, check=True,
                          jitter=True).check
        assert isinstance(ck, RaceChecker)
        for v in ck.violations:
            v.seed = seed
        out.checkers.append(ck)
        out.seeds.append(seed)
    return out
