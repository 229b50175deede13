"""The crash-to-completion driver for the rollback-recovery layer.

It drives any registry entry marked ``ft=True`` (:mod:`repro.workloads`:
``ft_hashtable``, ``ft_kvstore``).  :func:`run_reference`,
:func:`run_crash_to_completion` and :func:`soak` pick crash times as a
fraction of a fault-free reference run's length, so schedules stay
seeded-deterministic end to end.  All FT runs place one rank per node
(``MachineConfig(ranks_per_node=1)``): cross-rank intra-node traffic
bypasses the NIC (XPMEM) and is invisible to the put-log, a documented
V1 limitation (docs/FAULT_TOLERANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    FaultConfig,
    FaultPlan,
    FTConfig,
    MachineConfig,
    NodeCrash,
    RunResult,
    SimConfig,
)
from repro.sim.random import derive_seed
from repro.workloads import WORKLOADS, lookup, run_workload

__all__ = [
    "ft_machine",
    "ft_faults",
    "run_reference",
    "run_crash_to_completion",
    "soak",
    "final_bytes",
    "FTOutcome",
]


def ft_machine() -> MachineConfig:
    """One rank per node: every protected access crosses the NIC, so the
    put-log sees the full remote delta (V1 requirement)."""
    return MachineConfig(ranks_per_node=1)


def ft_faults(*, crashes=(), mode: str = "spare",
              interval: int = 2) -> FaultConfig:
    """FaultConfig for an FT run; ``crashes=()`` gives the fault-free
    (but still checkpointing) configuration used as the reference."""
    plan = FaultPlan(crashes=tuple(crashes)) if crashes else None
    return FaultConfig(plan=plan, ft=FTConfig(enabled=True, interval=interval,
                                              mode=mode))


def run_reference(name: str, nranks: int = 4, *,
                  seed: int = SimConfig.seed, interval: int = 2,
                  mode: str = "spare", ft_on: bool = True,
                  obs: bool = False, **program_kwargs) -> RunResult:
    """Fault-free run of an ``ft=True`` entry; with ``ft_on`` checkpoints
    are still taken (the overhead the FT benchmark measures), without it
    the run is the pure baseline."""
    if not lookup(name).ft:
        raise ValueError(f"workload {name!r} is not crash-recoverable")
    faults = ft_faults(mode=mode, interval=interval) if ft_on else None
    # run_workload's default placement is ft_machine()'s.
    return run_workload(name, nranks, seed=seed, obs=obs, faults=faults,
                        **program_kwargs)


def final_bytes(result: RunResult) -> bytes:
    """Every rank's final window bytes, concatenated -- a rank returns
    them alone or as the last element of a tuple; raises the first rank
    failure."""
    chunks = []
    for value in result.returns:
        if isinstance(value, BaseException):
            raise value
        chunks.append(value if isinstance(value, bytes) else value[-1])
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


def run_crash_to_completion(name: str, nranks: int = 4, *,
                            seed: int = SimConfig.seed,
                            crash_rank: int = 1, crash_frac: float = 0.5,
                            mode: str = "spare", interval: int = 2,
                            obs: bool = False,
                            **program_kwargs) -> FTOutcome:
    """Crash ``crash_rank`` at ``crash_frac`` of the fault-free run's
    length, recover, and compare every rank's final window bytes
    bit-for-bit against that fault-free (but checkpointing) run.

    Raises :class:`ValueError`, before any run, when ``crash_rank`` is
    not a rank of the run or ``crash_frac`` is outside (0, 1): such a
    crash would hit no rank, or no running program."""
    if not 0 <= crash_rank < nranks:
        raise ValueError(f"crash rank {crash_rank} is not a rank of the "
                         f"{nranks}-rank run")
    if not 0.0 < crash_frac < 1.0:
        raise ValueError(f"crash fraction {crash_frac} is outside (0, 1)")
    ref = run_reference(name, nranks, seed=seed, interval=interval,
                        mode=mode, obs=obs, **program_kwargs)
    t = max(1, int(ref.sim_time_ns * crash_frac))
    # One rank per node, so node id == rank id.
    faults = ft_faults(crashes=(NodeCrash(crash_rank, t),), mode=mode,
                       interval=interval)
    res = run_workload(name, nranks, seed=seed, obs=obs, faults=faults,
                       **program_kwargs)
    return FTOutcome(reference=ref, recovered=res, crash_rank=crash_rank,
                     crash_time_ns=t, mode=mode,
                     match=final_bytes(res) == final_bytes(ref))


def _draw(seed: int, what: str, n: int) -> int:
    """Seed-derived draw from ``range(n)``, taken from the hash's high
    bits: the low bits of ``derive_seed``'s multiplicative mix depend
    only on the low bits of its inputs, so ``% n`` alone ties every draw
    of a run to the parity of its seed."""
    return (derive_seed(seed, f"soak-{what}") >> 32) % n


def soak(n_runs: int = 5, *, nranks: int = 4,
         base_seed: int = SimConfig.seed) -> list[dict]:
    """Seeded randomized crash schedules: per run, derive a seed, an
    ``ft=True`` entry, a crash rank, a crash fraction in [0.35, 0.75)
    and a recovery mode, then run crash-to-completion and record whether
    the final state matched."""
    entries = [name for name, wl in WORKLOADS.items() if wl.ft]
    rows = []
    for k in range(n_runs):
        seed = derive_seed(base_seed, f"ft-soak-{k}") & 0x7FFF_FFFF
        name = entries[_draw(seed, "entry", len(entries))]
        out = run_crash_to_completion(
            name, nranks, seed=seed,
            crash_rank=_draw(seed, "rank", nranks),
            crash_frac=0.35 + _draw(seed, "frac", 1000) / 2500.0,
            mode=("spare", "shrink")[_draw(seed, "mode", 2)])
        rows.append({"run": k, "seed": seed, "workload": name,
                     **out.stats_row()})
    return rows
