"""Rollback recovery for the RMA protocol layer.

Checkpoint + put-log + restart, after Besta & Hoefler's "Fault Tolerance
for Remote Memory Access Programming Models" (see PAPERS.md): coordinated
in-memory checksummed snapshots of window contents and protocol state,
buddy-replicated over a seeded ring; demand-driven origin-side logging of
puts/atomics targeting protected windows between checkpoints; and on
failure notification, restart of the dead ranks on a spare node (or
shrink-and-redistribute onto the buddy), restoring the newest consistent
checkpoint and replaying the logged delta.

A program becomes crash-recoverable by running its steps through
:func:`run_steps`, which owns the restart line (protect, v0 checkpoint,
adopt-and-resume, the checkpoint cadence, collective-free completion).

Everything is seeded-deterministic: a crashed-and-recovered run replays
bit-identically for a fixed ``(seed, fault plan, FTConfig)``.
"""

from repro.ft.core import FTRuntime
from repro.ft.placement import BuddyPlacement
from repro.ft.steps import run_steps

__all__ = ["FTRuntime", "BuddyPlacement", "run_steps"]
