"""Fence synchronization (paper Section 2.3, "Fence").

    "Our implementation uses an x86 mfence instruction (XPMEM) and DMAPP
    bulk synchronization (gsync) followed by an MPI barrier to ensure
    global completion.  The asymptotic memory bound is O(1) and, assuming
    a good barrier implementation, the time bound is O(log p)."

The measured model is P_fence = 2.9 us * log2(p) (Figure 6b); the
per-round software overhead constant in :class:`~repro.rma.params.
FompiParams` calibrates the gsync/progress work done each dissemination
round so the simulated total lands on that line.
"""

from __future__ import annotations

from repro.errors import EpochError
from repro.rma import recovery

__all__ = ["fence"]


def fence(win, no_succeed: bool = False):
    """MPI_Win_fence: close the previous epochs, open the next ones.

    ``no_succeed=True`` corresponds to MPI_MODE_NOSUCCEED: this fence ends
    the epoch sequence (no new epoch opens), allowing a switch to passive
    target afterwards.
    """
    ctx = win.ctx
    p = ctx.nranks
    t0 = ctx.now
    # Local memory barrier makes XPMEM stores visible ...
    yield from ctx.compute(win.params.mfence_ns)
    # ... gsync commits all outstanding DMAPP operations ...
    yield from ctx.dmapp.gsync()
    hook = ctx.sync_hook
    if hook is not None:
        # This origin's operations are complete before the barrier, so
        # the barrier's collective edges can drop their records.
        hook.on_sync("fence_gsync", win, None, t0)
    # ... and a barrier orders all ranks.  The calibrated per-round
    # software cost covers completion bookkeeping and progress.
    rounds = max(1, (p - 1).bit_length()) if p > 1 else 0
    if rounds:
        yield from ctx.compute(win.params.fence_round_overhead * rounds)
    if ctx.notifier is None:
        yield from ctx.coll.barrier()
    else:
        # Fault containment: a crashed participant turns the fence into a
        # structured EpochError on every survivor (closing the epochs)
        # instead of a barrier that never completes.
        try:
            yield from recovery.guarded_barrier(ctx, "fence")
        except EpochError:
            win.epoch_access = None
            win.epoch_exposure = None
            raise
    if hook is not None:
        hook.on_sync("fence", win, None, t0)
    win.epoch_access = None if no_succeed else "fence"
    win.epoch_exposure = None if no_succeed else "fence"
