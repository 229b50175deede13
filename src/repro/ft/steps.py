"""The restart line of a crash-recoverable program, written once.

:func:`run_steps` owns what recovery dictates around a program's steps:
protect, the passive-target epochs, the v0 checkpoint, adopt-and-resume
on a restart, a flush + checkpoint line every ``FTConfig.interval``
steps, and a completion that needs no collective.  Without an FT
runtime (``ctx.ft is None``) it is the same schedule minus checkpoints.
"""

from __future__ import annotations

from repro.errors import FTError
from repro.rma.enums import Op
from repro.sim.kernel import Interrupt

__all__ = ["run_steps"]

_POLL_NS = 500  # completion-counter poll backoff


def _lost_peers(ctx) -> dict:
    """``{rank: exception}`` of the ranks whose program ended in an
    exception and that no restart will re-run.  Simulator-side knowledge,
    like the failure notifier's: a rank killed by a crash counts once
    rollback recovery has given up on it, a rank that raised at once."""
    ft = ctx.ft
    lost = {}
    for rank, proc in enumerate(ctx.world.rank_procs):
        if proc.is_alive or proc.ok:
            continue
        if (ft is not None and isinstance(proc.value, Interrupt)
                and ft.will_recover(rank)):
            continue  # dead, but its restart is on the way
        lost[rank] = proc.value
    return lost


def run_steps(ctx, create, nsteps: int, step):
    """Run ``step(windows, i)`` for ``i`` in ``range(nsteps)`` through a
    crash of this or any other rank; returns the program's windows.

    ``create()`` is the program's setup generator (collectives allowed)
    returning ``(windows, done_win, done_disp)``: the windows to protect
    and, in one of them, a zeroed 8-byte word for the completion count
    (rank 0's copy is used).  The program names that word -- a window
    allocated here would be one more collective before the v0
    checkpoint, and a crash before every rank's v0 commit is
    unrecoverable.  ``step`` is a generator issuing step ``i``'s accesses.

    A first start runs ``create``, protects the windows, opens
    ``lock_all`` on those not already in an epoch and takes the v0
    checkpoint; a restarted incarnation adopts the same windows (restored
    and replayed) and resumes at the checkpointed step.  **No collective
    may follow the v0 checkpoint**, in ``step`` or here: a restored rank
    cannot rejoin a collective its survivors completed, and a survivor
    inside a barrier has already sent to the dead incarnation -- hence
    completion by fetch-add-then-poll on the named word (a re-executed
    fetch-add carries its pre-crash sequence number, so the injector's
    exactly-once cache keeps the count honest).  The poll raises
    :class:`~repro.errors.FTError` once a peer is lost for good: the
    count can then never reach ``nranks``.
    """
    ft, rank = ctx.ft, ctx.rank
    if ft is not None and ft.restarting(rank):
        state = ft.restored_state(rank)
        windows = [ft.adopt(rank, win_id) for win_id in state["win_ids"]]
        # Re-enters each checkpointed epoch without re-acquiring it.
        for win in windows:
            yield from win.lock_all()
    else:
        windows, done_win, done_disp = yield from create()
        windows = list(windows)
        state = {"win_ids": [win.win_id for win in windows],
                 "done": (windows.index(done_win), done_disp), "next_i": 0}
        for win in windows:
            if ft is not None:
                ft.protect(rank, win)
            if not win.lock_state.lock_all_held:
                yield from win.lock_all()
        if ft is not None:
            # Inside the epochs, so a crash at any later point has a
            # consistent restart line.
            yield from ft.checkpoint(ctx, windows, state)
    done_idx, done_disp = state["done"]
    done_win = windows[done_idx]
    interval = ft.cfg.interval if ft is not None else 0

    for i in range(state["next_i"], nsteps):
        yield from step(windows, i)
        if interval and (i + 1) % interval == 0:
            # Coordinated line: this rank's accesses flushed first, so the
            # snapshot plus the remote put-log covers everything it issued.
            for win in windows:
                yield from win.flush_all()
            yield from ft.checkpoint(ctx, windows, {**state, "next_i": i + 1})

    for win in windows:
        yield from win.flush_all()
    yield from done_win.fetch_and_op(1, 0, done_disp, Op.SUM)
    while True:
        count = yield from done_win.fetch_and_op(0, 0, done_disp, Op.SUM)
        if count >= ctx.nranks:
            break
        lost = _lost_peers(ctx)
        if lost:
            ended = ", ".join(f"rank {r} ended in {type(exc).__name__}"
                              for r, exc in lost.items())
            raise FTError(f"rank {ctx.rank}: completion wait abandoned at "
                          f"{count}/{ctx.nranks}: {ended}; no restart "
                          f"will re-run them")
        yield from ctx.compute(_POLL_NS)
    for win in windows:
        yield from win.unlock_all()
    return windows
