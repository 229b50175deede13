"""Crash-to-completion drivers for the rollback-recovery layer.

The program they drive is ``ft_hashtable`` in :mod:`repro.workloads`.
:func:`run_reference`, :func:`run_crash_to_completion` and :func:`soak`
pick crash times as a fraction of a fault-free reference run's length,
so schedules stay seeded-deterministic end to end.  All FT runs place
one rank per node (``MachineConfig(ranks_per_node=1)``): cross-rank
intra-node traffic bypasses the NIC (XPMEM) and is invisible to the
put-log, a documented V1 limitation (docs/FAULT_TOLERANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    FaultConfig,
    FaultPlan,
    FTConfig,
    MachineConfig,
    NodeCrash,
    RecoveryConfig,
    RunResult,
    SimConfig,
)
from repro.sim.random import derive_seed
from repro.workloads import run_workload

__all__ = [
    "ft_machine",
    "ft_faults",
    "run_reference",
    "run_crash_to_completion",
    "soak",
    "table_bytes",
    "FTOutcome",
]


def ft_machine() -> MachineConfig:
    """One rank per node: every protected access crosses the NIC, so the
    put-log sees the full remote delta (V1 requirement)."""
    return MachineConfig(ranks_per_node=1)


def ft_faults(*, crashes=(), mode: str = "spare", interval: int = 2,
              policy: str = "log", replicas: int = 1,
              spares: int | None = None) -> FaultConfig:
    """FaultConfig for an FT run; ``crashes=()`` gives the fault-free
    (but still checkpointing) configuration used as the reference."""
    if spares is None:
        spares = 1 if mode == "spare" else 0
    plan = FaultPlan(crashes=tuple(crashes)) if crashes else None
    return FaultConfig(plan=plan,
                       recovery=RecoveryConfig(enabled=True),
                       ft=FTConfig(enabled=True, interval=interval,
                                   mode=mode, spares=spares,
                                   policy=policy, replicas=replicas))


def run_reference(nranks: int = 4, inserts: int = 4, *,
                  seed: int = SimConfig.seed, interval: int = 2,
                  mode: str = "spare", policy: str = "log",
                  ft_on: bool = True) -> RunResult:
    """Fault-free run; with ``ft_on`` checkpoints are still taken (the
    overhead the FT benchmark measures), without it the run is the pure
    baseline."""
    faults = (ft_faults(mode=mode, interval=interval, policy=policy)
              if ft_on else None)
    return run_workload("ft_hashtable", nranks, seed=seed, faults=faults,
                        inserts=inserts)


def table_bytes(result: RunResult) -> bytes:
    """Concatenated final slot regions; raises the first rank failure."""
    chunks = []
    for value in result.returns:
        if isinstance(value, BaseException):
            raise value
        chunks.append(value)
    return b"".join(chunks)


@dataclass
class FTOutcome:
    """One crash-to-completion experiment: reference vs recovered run."""

    reference: RunResult
    recovered: RunResult
    crash_rank: int
    crash_time_ns: int
    mode: str
    match: bool

    def stats_row(self) -> dict:
        rec = self.recovered.stats.get("recovery", {})
        return {
            "crash_rank": self.crash_rank,
            "crash_time_ns": self.crash_time_ns,
            "mode": self.mode,
            "match": self.match,
            "ranks_restored": rec.get("ranks_restored", 0),
            "sim_time_ns": self.recovered.sim_time_ns,
            "ref_sim_time_ns": self.reference.sim_time_ns,
            "ft": self.recovered.stats.get("ft", {}),
        }


def run_crash_to_completion(nranks: int = 4, inserts: int = 4, *,
                            seed: int = SimConfig.seed,
                            crash_rank: int = 1, crash_frac: float = 0.5,
                            mode: str = "spare", interval: int = 2,
                            policy: str = "log",
                            replicas: int = 1) -> FTOutcome:
    """Crash ``crash_rank`` at ``crash_frac`` of the fault-free run's
    length, recover, and compare final tables bit-for-bit."""
    ref = run_reference(nranks, inserts, seed=seed, interval=interval,
                        mode=mode, policy=policy)
    t = max(1, int(ref.sim_time_ns * crash_frac))
    # One rank per node, so node id == rank id.
    faults = ft_faults(crashes=(NodeCrash(crash_rank, t),), mode=mode,
                       interval=interval, policy=policy, replicas=replicas)
    res = run_workload("ft_hashtable", nranks, seed=seed, faults=faults,
                       inserts=inserts)
    return FTOutcome(reference=ref, recovered=res, crash_rank=crash_rank,
                     crash_time_ns=t, mode=mode,
                     match=table_bytes(res) == table_bytes(ref))


def soak(n_runs: int = 5, *, nranks: int = 4, inserts: int = 4,
         base_seed: int = SimConfig.seed) -> list[dict]:
    """Seeded randomized crash schedules: per run, derive a seed, a crash
    rank, a crash fraction in [0.35, 0.75) and a recovery mode, then run
    crash-to-completion and record whether the table matched."""
    rows = []
    for k in range(n_runs):
        seed = derive_seed(base_seed, f"ft-soak-{k}") & 0x7FFF_FFFF
        crash_rank = derive_seed(seed, "soak-rank") % nranks
        frac = 0.35 + (derive_seed(seed, "soak-frac") % 1000) / 2500.0
        mode = ("spare" if derive_seed(seed, "soak-mode") % 2 == 0
                else "shrink")
        out = run_crash_to_completion(nranks, inserts, seed=seed,
                                      crash_rank=crash_rank,
                                      crash_frac=frac, mode=mode)
        rows.append({"run": k, "seed": seed, **out.stats_row()})
    return rows
