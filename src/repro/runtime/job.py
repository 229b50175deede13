"""SPMD job launcher.

Every :meth:`Job.run` builds a fresh :class:`~repro.runtime.world.World`,
so runs are independent and deterministic -- which also makes benchmark
points embarrassingly parallel: :mod:`repro.bench.pool` ships picklable
``BenchPoint`` values (a driver function and its arguments) to worker
processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.config import (
    CheckConfig,
    FaultConfig,
    MachineConfig,
    ObsConfig,
    RunResult,
    SimConfig,
)
from repro.machine.params import GeminiParams, XpmemParams
from repro.mpi1.params import Mpi1Params
from repro.runtime.process import RankContext
from repro.runtime.world import World

__all__ = ["Job", "run_spmd"]


@dataclass
class Job:
    """Reusable launch configuration.

    ``Job(nranks=64).run(program)`` builds a fresh world each time, so runs
    are independent and deterministic.
    """

    nranks: int
    machine: MachineConfig = field(default_factory=MachineConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    gemini: GeminiParams = field(default_factory=GeminiParams)
    xpmem: XpmemParams = field(default_factory=XpmemParams)
    mpi1: Mpi1Params = field(default_factory=Mpi1Params)
    faults: FaultConfig = field(default_factory=FaultConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    check: CheckConfig = field(default_factory=CheckConfig)

    def build_world(self) -> World:
        return World(self.nranks, self.machine, self.sim, self.gemini,
                     self.xpmem, self.mpi1, self.faults, self.obs,
                     self.check)

    def run(self, program: Callable, *args, **kwargs) -> RunResult:
        """Run ``program(ctx, *args, **kwargs)`` on every rank."""
        world = self.build_world()
        return run_on_world(world, program, *args, **kwargs)


def _crash_reaper(world, procs):
    """Kill the rank processes of crashed nodes at their crash times.

    Fail-stop semantics: at each planned crash instant the node's ranks are
    interrupted (they never run again) and the node is quarantined -- every
    later operation addressed to it fails fast with
    :class:`~repro.errors.NodeCrashedError`.
    """
    inj = world.injector
    events = sorted({(inj.crash_time(cr.node), cr.node)
                     for cr in world.faults.plan.crashes})
    for when, node in events:
        delta = when - world.env.now
        if delta > 0:
            yield delta
        inj.mark_crashed(node)
        for rank, proc in enumerate(procs):
            if world.rank_map.node_of(rank) == node and proc.is_alive:
                proc.interrupt(cause=f"node {node} crashed at {when}ns")
        world.env.note_progress()


def run_on_world(world: World, program: Callable, *args, **kwargs) -> RunResult:
    """Run an SPMD program on an existing world (exposed for tests that
    need to inspect world state afterwards)."""
    from repro.errors import NodeCrashedError
    from repro.sim.kernel import Interrupt

    contexts = [RankContext(world, r) for r in range(world.nranks)]
    procs = world.rank_procs = [
        world.env.process(program(ctx, *args, **kwargs),
                          name=f"rank{ctx.rank}")
        for ctx in contexts]
    inj = world.injector
    if world.ft is not None:
        # Restarts re-enter the program from its checkpointed state; the
        # runtime must know what to re-enter.
        world.ft.bind(program, args, kwargs)
    if inj is not None and inj.has_crashes:
        world.env.process(_crash_reaper(world, procs), name="crash-reaper")
    if world.notifier is not None:
        world.notifier.start()
    world.env.run()

    returns = []
    for rank, p in enumerate(procs):
        value = p.value
        if isinstance(value, BaseException):
            # Normalize deaths to structured diagnostics: ranks killed by
            # the reaper report the crash; survivors that tripped over a
            # quarantined peer already carry a NodeCrashedError.
            if isinstance(value, Interrupt):
                node = world.rank_map.node_of(rank)
                value = NodeCrashedError(node, inj.crash_time(node) or 0,
                                         f"rank {rank} killed")
        returns.append(value)

    stats = world.counters.snapshot()
    if inj is not None:
        stats.update(inj.stats.snapshot())
        if world.env.tracer is not None:
            stats["fault_trace_counts"] = dict(world.env.tracer.fault_counts)
    if world.checker is not None:
        stats["check"] = world.checker.stats_snapshot()
    if world.ft is not None:
        stats["ft"] = asdict(world.ft.stats)
    return RunResult(
        returns=returns,
        sim_time_ns=world.env.now,
        events_processed=world.env.events_processed,
        stats=stats,
        obs=world.obs,
        check=world.checker,
    )


def run_spmd(program: Callable, nranks: int, *args,
             machine: MachineConfig | None = None,
             sim: SimConfig | None = None,
             gemini: GeminiParams | None = None,
             xpmem: XpmemParams | None = None,
             mpi1: Mpi1Params | None = None,
             faults: FaultConfig | None = None,
             obs: ObsConfig | None = None,
             check: CheckConfig | None = None,
             **kwargs) -> RunResult:
    """One-shot SPMD run; the package's main entry point.

    Parameters mirror :class:`Job`; extra positional/keyword arguments are
    forwarded to ``program`` after the rank context.  ``faults`` attaches a
    :class:`~repro.config.FaultConfig`; without one, no fault machinery is
    constructed and runs are bit-identical to the unhardened code.
    ``obs`` enables the observability layer (``RunResult.obs``); ``check``
    attaches the memory-model checker (``RunResult.check``).
    """
    job = Job(nranks=nranks,
              machine=machine or MachineConfig(),
              sim=sim or SimConfig(),
              gemini=gemini or GeminiParams(),
              xpmem=xpmem or XpmemParams(),
              mpi1=mpi1 or Mpi1Params(),
              faults=faults or FaultConfig(),
              obs=obs or ObsConfig(),
              check=check or CheckConfig())
    return job.run(program, *args, **kwargs)
