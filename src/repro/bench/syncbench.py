"""Synchronization benchmarks: Figures 6b (global sync), 6c (PSCW ring),
and the Section 3.2 passive-target constants.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.rma.cray22 import win_allocate_cray22
from repro.rma.enums import LockType
from repro.runtime.job import run_spmd

__all__ = ["global_sync_latency", "pscw_ring_latency", "lock_constants"]

#: The two MPI windows Figures 6b and 6c compare; a program that takes
#: one runs the same calls on either.
_WINDOWS = {"fompi": lambda ctx, nbytes: ctx.rma.win_allocate(nbytes),
            "cray22": win_allocate_cray22}


def _machine(ranks_per_node: int = 1) -> MachineConfig:
    return MachineConfig(ranks_per_node=ranks_per_node)


# ---------------------------------------------------------------------------
# Figure 6b: global synchronization vs p
# ---------------------------------------------------------------------------
def global_sync_latency(transport: str, p: int, *, reps: int = 3,
                        ranks_per_node: int = 1) -> float:
    """Per-call global synchronization latency (ns) on p ranks.

    Transports: 'fompi' (Win_fence), 'upc' (upc_barrier), 'caf'
    (sync all), 'cray22' (Cray MPI-2.2 Win_fence).
    """
    if transport not in ("fompi", "upc", "caf", "cray22"):
        raise ValueError(f"unknown transport {transport!r}")

    def program(ctx):
        if transport == "upc":
            sync = ctx.upc.barrier
        elif transport == "caf":
            sync = ctx.caf.sync_all
        else:
            win = yield from _WINDOWS[transport](ctx, 64)
            sync = win.fence
        yield from sync()
        t0 = ctx.now
        for _ in range(reps):
            yield from sync()
        return (ctx.now - t0) / reps

    res = run_spmd(program, p, machine=_machine(ranks_per_node))
    return float(max(res.returns))


# ---------------------------------------------------------------------------
# Figure 6c: PSCW on a ring (k = 2)
# ---------------------------------------------------------------------------
def pscw_ring_latency(transport: str, p: int, *, reps: int = 3,
                      ranks_per_node: int = 32,
                      noise_ns: float = 0.0) -> float:
    """Per-epoch PSCW latency (ns) on a ring (each rank has 2 neighbors).

    An ideal implementation is constant in p (foMPI); Cray's grows.
    The default 32 ranks/node placement reproduces the intra-node ->
    inter-node knee of the paper's figure.
    """
    from repro.machine.params import GeminiParams

    if transport not in _WINDOWS:
        raise ValueError(f"unknown transport {transport!r}")
    allocate = _WINDOWS[transport]

    def program(ctx):
        win = yield from allocate(ctx, 64)
        yield from ctx.coll.barrier()
        left = (ctx.rank - 1) % ctx.nranks
        right = (ctx.rank + 1) % ctx.nranks
        group = [left, right] if ctx.nranks > 2 else [1 - ctx.rank]
        t0 = ctx.now
        for _ in range(reps):
            yield from win.post(group)
            yield from win.start(group)
            yield from win.complete()
            yield from win.wait()
        return (ctx.now - t0) / reps

    gemini = GeminiParams().with_noise(noise_ns) if noise_ns else None
    res = run_spmd(program, p, machine=_machine(ranks_per_node),
                   gemini=gemini)
    return float(max(res.returns))


# ---------------------------------------------------------------------------
# Section 3.2: passive-target constants
# ---------------------------------------------------------------------------
def lock_constants() -> dict[str, float]:
    """Measure P_lock_excl/shrd/lock_all, P_unlock(+all), P_flush, P_sync.

    Uses three ranks so that the *origin* (rank 1) is neither the lock
    master (rank 0, which holds the global lock word) nor the target
    (rank 2) -- the configuration the paper's constants describe: every
    lock AMO is remote.  Fire-and-forget unlock AMOs are allowed to drain
    (a settle delay) before timing flush/sync so P_flush reflects the
    nothing-outstanding fast path, as in the paper.
    """
    out: dict[str, float] = {}
    settle = 20_000

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        if ctx.rank == 1:
            t0 = ctx.now
            yield from win.lock(2, LockType.EXCLUSIVE)
            out["lock_excl"] = ctx.now - t0
            t0 = ctx.now
            yield from win.unlock(2)
            # last exclusive unlock: local release + global release
            out["unlock_excl_last"] = ctx.now - t0
            yield from ctx.compute(settle)

            t0 = ctx.now
            yield from win.lock(2, LockType.SHARED)
            out["lock_shrd"] = ctx.now - t0
            t0 = ctx.now
            yield from win.unlock(2)
            out["unlock"] = ctx.now - t0  # one fire-and-forget AMO
            yield from ctx.compute(settle)

            t0 = ctx.now
            yield from win.lock_all()
            out["lock_all"] = ctx.now - t0
            yield from ctx.compute(settle)
            t0 = ctx.now
            yield from win.flush(2)
            out["flush"] = ctx.now - t0
            t0 = ctx.now
            yield from win.sync()
            out["sync"] = ctx.now - t0
            t0 = ctx.now
            yield from win.unlock_all()
            out["unlock_all"] = ctx.now - t0
        yield from ctx.coll.barrier()

    run_spmd(program, 3, machine=_machine(1))
    return out
