"""Checkpoint, put-log and restart machinery (the FT runtime).

One :class:`FTRuntime` per world (constructed only when the run is given
an :class:`~repro.config.FTConfig`; every hook below the runtime is behind a
single ``is None`` test, so FT-off schedules stay bit-identical).  Every
rank holds the same runtime as ``ctx.ft``; each call that acts for one
rank names it (``protect(rank, win)``, ``restarting(rank)``,
``adopt(rank, win_id)``, ...), and what a restarted incarnation carries
lives in per-rank tables on the runtime.

Protocol summary
----------------

**Checkpoints** are loosely coordinated: every rank snapshots its
protected windows at the same *logical* step (after a flush), with no
barrier.  A snapshot records the window bytes (checksummed), the control
words, the lock state, the origin-side op-sequence and collective-tag
counters, the caller's application state, and a per-window *watermark* --
the target-side delivery counter at the snapshot instant.  The snapshot
is deposited once, on the buddy of the rank's first home node (seeded
ring placement), as a real modeled network transfer; it *commits* when
the replica arrives.

**Put-logging**: every remotely-delivered put or
effective atomic targeting a protected window is recorded *at its
delivery instant* with a monotonically increasing per-(window, target)
stamp.  Replaying, in stamp order, exactly the entries above a
checkpoint's watermark reconstructs the target bytes regardless of when
the snapshot was taken relative to in-flight traffic -- this is what
makes barrier-free checkpoints consistent.

**Restart**: the failure notifier's dissemination process calls the
restore hook after survivor-side revocation.  The dead node's ranks are
re-homed to a spare node (or the buddy, in shrink mode), their newest
committed checkpoints are checksum-verified and restored in place,
post-watermark log entries are replayed, lock words are reconciled
against the revocation ledger, and fresh rank processes re-enter the
program from the checkpointed application state.  Origin sequence
numbers are restored too, so re-executed atomics hit the transport's
replay dedup and apply exactly once.

The cost model is four constants: the snapshot copy, the restored bytes,
one replayed log entry, and one adopted segment's re-registration.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FTError
from repro.ft.placement import BuddyPlacement
from repro.sim.kernel import Event

__all__ = ["FTRuntime", "FTStats"]

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

CKPT_COPY_NS_PER_BYTE = 0.05
RESTORE_NS_PER_BYTE = 0.1
REPLAY_NS_PER_ENTRY = 120
REREG_NS_PER_SEGMENT = 2_500


@dataclass
class FTStats:
    """Counters for checkpoint/log/restore work (``RunResult.stats['ft']``)."""

    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    replicas_deposited: int = 0
    replicas_arrived: int = 0
    checkpoints_cancelled: int = 0
    buddy_bytes: int = 0
    log_entries: int = 0
    log_bytes: int = 0
    entries_replayed: int = 0
    restores: int = 0
    ranks_restored: int = 0
    unrecoverable: int = 0
    spares_used: int = 0
    restore_ns: int = 0


@dataclass
class _WinSnap:
    """One window's share of a checkpoint."""

    data: bytes
    crc: int
    ctrl: list
    ledger_sums: dict
    lock_snap: object              # a LockState.snapshot() copy
    watermark: int


@dataclass
class _Checkpoint:
    """One rank's coordinated snapshot at one version."""

    version: int
    rank: int
    windows: dict = field(default_factory=dict)  # win_id -> _WinSnap
    app: dict = field(default_factory=dict)
    op_seq: int = 0
    coll_tag: int = 0
    nbx_tag: int = 0
    check: tuple = (0, {})         # RaceChecker.checkpoint_state
    nbytes: int = 0
    arrived: bool = False
    cancelled: bool = False


class FTRuntime:
    """Per-world rollback-recovery service."""

    def __init__(self, world) -> None:
        self.world = world
        self.env = world.env
        self.cfg = world.ft_config
        self.placement = BuddyPlacement(world.rank_map.nnodes,
                                        world.sim.seed)
        self.stats = FTStats()
        # Protected-window registry: win_id -> {rank -> Window}.
        self.windows: dict[int, dict] = {}
        # Target-side delivery stamps and demand-driven logs, keyed by
        # (win_id, target_rank).
        self.stamps: dict[tuple[int, int], int] = {}
        self.logs: dict[tuple[int, int], list] = {}
        # rank -> newest checkpoint version taken (v0 = first).
        self.versions: dict[int, int] = {}
        self.ckpts: dict[tuple[int, int], _Checkpoint] = {}
        # Restart bookkeeping.
        self.program = None
        self.p_args: tuple = ()
        self.p_kwargs: dict = {}
        # What a restarted incarnation carries: rank -> the application
        # state of its restored checkpoint, and the (rank, win_id) epochs
        # its re-executed lock_all re-enters without touching lock words.
        self._restored: dict[int, dict] = {}
        self._restored_lock_all: set[tuple[int, int]] = set()
        self._unrecoverable: set[int] = set()
        self._restore_events: dict[int, Event] = {}
        self._generation = 0

    # ------------------------------------------------------------------
    # program binding / queries
    # ------------------------------------------------------------------
    def bind(self, program, args, kwargs) -> None:
        """Remember the SPMD program so restarts can re-enter it."""
        self.program = program
        self.p_args = tuple(args)
        self.p_kwargs = dict(kwargs)

    def will_recover(self, rank: int) -> bool:
        """Will a crash of ``rank`` be repaired by a restart?

        Requires a bound program, at least one checkpoint taken by the
        rank, and (V1 limitation) no earlier crash of the same rank.
        """
        return (self.program is not None
                and rank not in self._restored
                and rank not in self._unrecoverable
                and self.versions.get(rank, -1) >= 0)

    def recoverable(self, ranks) -> set[int]:
        return {r for r in ranks if self.will_recover(r)}

    def restore_event(self, rank: int) -> Event:
        ev = self._restore_events.get(rank)
        if ev is None:
            ev = Event(self.env, name=f"ft-restore:r{rank}")
            self._restore_events[rank] = ev
        return ev

    def pause_for_restore(self, origin: int, target: int, exc):
        """Origin-side hold: an op hit a crashed-but-recoverable target.
        Wait for the restart, then let the caller retry.  Re-raises when
        the target will never come back."""
        if target in self._restored:
            return  # the restart already happened; retry immediately
        # Packet fates are computed at issue time, so the origin can hear
        # of a crash that has not happened yet -- and the target may still
        # take the checkpoint that makes it recoverable.  Decide at the
        # crash instant, not before.
        early = exc.crash_time_ns - self.env.now
        if early > 0:
            yield early
        if not self.will_recover(target):
            raise exc
        yield self.restore_event(target)

    # ------------------------------------------------------------------
    # the restarted incarnation
    # ------------------------------------------------------------------
    def restarting(self, rank: int) -> bool:
        """True inside a restarted incarnation of ``rank``'s program."""
        return rank in self._restored

    def restored_state(self, rank: int) -> dict:
        """Application state carried by ``rank``'s restored checkpoint."""
        state = self._restored.get(rank)
        if state is None:
            raise FTError(f"rank {rank} is not restarting")
        return state

    def adopt(self, rank: int, win_id: int):
        """Restarted ``rank``: take over the preserved, already-restored
        window object instead of re-allocating."""
        win = self.windows.get(win_id, {}).get(rank)
        if win is None:
            raise FTError(f"rank {rank}: no protected window {win_id} "
                          f"to adopt")
        return win

    def consume_restored_lock_all(self, rank: int, win) -> bool:
        """One-shot: restored ``rank`` held a lock_all epoch on ``win`` at
        its checkpoint; its re-executed ``lock_all`` re-enters the epoch
        without touching the (already reconciled) lock words."""
        key = (rank, win.win_id)
        if key in self._restored_lock_all:
            self._restored_lock_all.remove(key)
            return True
        return False

    # ------------------------------------------------------------------
    # protection + logging
    # ------------------------------------------------------------------
    def protect(self, rank: int, win) -> None:
        """Enroll ``rank``'s ``win`` for checkpointing and delivery-time
        put/atomic logging."""
        if win.seg is None:
            raise FTError(
                f"window {win.win_id} ({win.flavor}) has no per-rank heap "
                f"segment; only ALLOCATE/CREATE windows can be protected")
        self.windows.setdefault(win.win_id, {})[rank] = win

    def is_protected(self, win_id: int) -> bool:
        return win_id in self.windows

    def log_put(self, win_id: int, target: int, off: int, data: bytes) -> None:
        """Record one delivered put piece (called inside the delivery
        closure, after the bytes landed)."""
        key = (win_id, target)
        stamp = self.stamps.get(key, 0) + 1
        self.stamps[key] = stamp
        self.logs.setdefault(key, []).append((stamp, int(off), data))
        self.stats.log_entries += 1
        self.stats.log_bytes += len(data)

    def log_amo(self, win_id: int, target: int, off: int, post: int) -> None:
        """Record one *effective* atomic as the 8-byte post-value it left
        behind (CAS failures and fetch-add-0 polls change nothing and are
        never logged)."""
        self.log_put(win_id, target, off,
                     int(post & _MASK64).to_bytes(8, "little"))

    # -- origin-side callbacks handed to the transport -----------------
    def put_logger(self, win, target: int):
        """Delivery callback for a put, or None when the window is not
        log-protected.  ``off`` is segment-relative, matching replay."""
        if win.win_id not in self.windows:
            return None
        win_id = win.win_id

        def _applied(off, piece):
            self.log_put(win_id, target, off, bytes(piece))
        return _applied

    def amo_logger(self, win, target: int, cells, base_idx: int):
        """Delivery callback for a single-cell atomic: receives the old
        value, reads the post value back from the cell (still inside the
        atomic closure) and logs it only when the op took effect.

        Only a NIC-applied atomic is logged (``None`` for a same-node
        target): a CPU atomic has no sequence number, so a restarted
        origin re-executes it, and a logged copy would apply it twice."""
        if win.win_id not in self.windows or win.ctx.same_node(target):
            return None
        win_id = win.win_id

        def _applied(old):
            post = cells.load(base_idx)
            if post != old:
                self.log_amo(win_id, target, base_idx * 8, post)
        return _applied

    def amo_stream_logger(self, win, target: int, cells, base_idx: int):
        """Delivery callback for an atomic stream: receives the ``uint64``
        array of old words, compares it with the post-update words in one
        array comparison and logs only the words that changed."""
        if win.win_id not in self.windows:
            return None
        win_id = win.win_id

        def _applied(olds):
            post = cells.apply_block(base_idx, "fetch", olds)
            for i in np.flatnonzero(post != olds).tolist():
                self.log_amo(win_id, target, (base_idx + i) * 8, int(post[i]))
        return _applied

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, ctx, windows, state: dict):
        """Snapshot ``windows`` (one window or a list) + protocol state for
        ``ctx.rank`` and deposit the replica on the buddy node.  Generator
        (charges the copy cost); the deposit itself is asynchronous and
        commits at delivery."""
        rank = ctx.rank
        env = self.env
        t0 = env.now
        version = self.versions.get(rank, -1) + 1
        rec = _Checkpoint(version=version, rank=rank)
        rec.app = dict(state)
        rec.op_seq = ctx.dmapp._op_seq
        if ctx._coll is not None:
            rec.coll_tag = ctx.coll._tag
            rec.nbx_tag = ctx.coll._nbx_tag
        checker = self.world.checker
        if checker is not None:
            rec.check = checker.checkpoint_state(rank)
        ledger = self.world.lock_ledger
        if not isinstance(windows, (list, tuple)):
            windows = [windows]
        for w in windows:
            data = w.seg.snapshot_bytes()
            snap = _WinSnap(
                data=data,
                crc=zlib.crc32(data),
                ctrl=w.ctrl.snapshot() if w.ctrl is not None else [],
                ledger_sums=(ledger.sums(w.win_id, rank)
                             if ledger is not None else {}),
                lock_snap=w.lock_state.snapshot(),
                watermark=self.stamps.get((w.win_id, rank), 0),
            )
            rec.windows[w.win_id] = snap
            rec.nbytes += len(data) + 8 * len(snap.ctrl)
        self.versions[rank] = version
        self.ckpts[(version, rank)] = rec
        self.stats.checkpoints_taken += 1
        self.stats.checkpoint_bytes += rec.nbytes

        cost = int(round(rec.nbytes * CKPT_COPY_NS_PER_BYTE))
        if cost > 0:
            yield cost

        # Deposit at the buddy of the rank's first home: a re-homed rank's
        # buddy stays pinned to the original block placement.  On a single
        # node the buddy is the node itself and the checkpoint commits now.
        rank_map = self.world.rank_map
        buddy = self.placement.buddy_of(rank // rank_map.ranks_per_node)
        cur_node = rank_map.node_of(rank)
        self.stats.replicas_deposited += 1
        if buddy == cur_node:
            self._commit(rec)
        else:
            self.world.network.packet(cur_node, buddy, rec.nbytes,
                                      on_deliver=lambda: self._commit(rec))
        obs = self.world.obs
        if obs is not None:
            obs.rank_span(rank, "ft.checkpoint", t0, env.now, cat="ft",
                          args={"version": version, "bytes": rec.nbytes})
            obs.metrics.count("ft.checkpoint", rank)
        env.note_progress()

    def _commit(self, rec: _Checkpoint) -> None:
        """Replica arrival: the checkpoint becomes restorable; older
        committed versions and covered log entries are garbage-collected."""
        if rec.cancelled:
            return
        rec.arrived = True
        self.stats.replicas_arrived += 1
        self.stats.buddy_bytes += rec.nbytes
        for v in range(rec.version):
            old = self.ckpts.get((v, rec.rank))
            if old is not None and (old.arrived or old.cancelled):
                del self.ckpts[(v, rec.rank)]
                if old.arrived:
                    self.stats.buddy_bytes -= old.nbytes
        for win_id, snap in rec.windows.items():
            key = (win_id, rec.rank)
            log = self.logs.get(key)
            if log:
                kept = [e for e in log if e[0] > snap.watermark]
                dropped = len(log) - len(kept)
                if dropped:
                    self.logs[key] = kept
                    self.stats.log_entries -= dropped

    def _newest_valid(self, rank: int) -> _Checkpoint | None:
        best = None
        for (v, r), rec in self.ckpts.items():
            if r == rank and rec.arrived and not rec.cancelled:
                if best is None or v > best.version:
                    best = rec
        return best

    # ------------------------------------------------------------------
    # win_free vs in-flight checkpoints (satellite: cancel the replica)
    # ------------------------------------------------------------------
    def release_window(self, rank: int, win) -> None:
        """The rank freed ``win``: cancel in-flight replicas covering it,
        release committed buddy-side copies, and drop its logs."""
        win_id = win.win_id
        wins = self.windows.get(win_id)
        if wins is not None:
            wins.pop(rank, None)
            if not wins:
                del self.windows[win_id]
        for (v, r), rec in list(self.ckpts.items()):
            if r != rank or win_id not in rec.windows:
                continue
            if rec.arrived:
                self.stats.buddy_bytes -= rec.nbytes
            else:
                self.stats.checkpoints_cancelled += 1
            rec.cancelled = True
            del self.ckpts[(v, r)]
        key = (win_id, rank)
        log = self.logs.pop(key, None)
        if log:
            self.stats.log_entries -= len(log)

    # ------------------------------------------------------------------
    # restart
    # ------------------------------------------------------------------
    def restore(self, failed_ranks):
        """The failure notifier's last revocation hook (registered after
        survivor-side revocation): restart the recoverable ranks among
        ``failed_ranks`` from their newest committed checkpoints."""
        env = self.env
        cohort = sorted(self.recoverable(failed_ranks))
        if not cohort:
            return
        t0 = env.now
        recs: dict[int, _Checkpoint] = {}
        for r in cohort:
            rec = self._newest_valid(r)
            if rec is not None:
                for win_id, snap in rec.windows.items():
                    if zlib.crc32(snap.data) != snap.crc:
                        rec = None
                        break
            if rec is None:
                # No committed (or checksum-clean) checkpoint: the whole
                # node cohort is unrecoverable.  Fire the events anyway so
                # paused origins retry, re-hit quarantine and surface the
                # structured error instead of hanging.
                self._unrecoverable.update(cohort)
                self.stats.unrecoverable += len(cohort)
                self._fire_restore_events(cohort)
                return
            recs[r] = rec

        # Charge the restore: re-registration per adopted segment, byte
        # copy of every restored window, one charge per replayed entry.
        cost = 0
        replays: dict[int, list] = {}
        for r in cohort:
            rec = recs[r]
            for win_id, snap in rec.windows.items():
                cost += REREG_NS_PER_SEGMENT
                cost += int(round(len(snap.data) * RESTORE_NS_PER_BYTE))
                entries = [e for e in self.logs.get((win_id, r), [])
                           if e[0] > snap.watermark]
                entries.sort(key=lambda e: e[0])
                replays[(win_id, r)] = entries
                cost += len(entries) * REPLAY_NS_PER_ENTRY
        if cost > 0:
            yield cost

        # Pick the adoption node and rehome only *now*, at the instant the
        # memory rewrite below executes.  Rehoming before the cost timeout
        # would resolve the dead rank to a live (never-crashed) node while
        # the restore is still in flight: survivor ops would pass the
        # quarantine check, land in the window, and then be wiped by the
        # restore writes.  Until this point they keep hitting the original
        # crashed node and park in pause_for_restore.
        orig_node = cohort[0] // self.world.rank_map.ranks_per_node
        if self.stats.spares_used < self.cfg.spares:
            node = self.placement.spare_node(self.stats.spares_used)
            self.stats.spares_used += 1
        else:
            node = self.placement.buddy_of(orig_node)
        self._generation += 1
        for r in cohort:
            self.world.rank_map.rehome(r, node, self._generation)

        ledger = self.world.lock_ledger
        for r in cohort:
            rec = recs[r]
            for win_id, snap in rec.windows.items():
                win = self.windows[win_id][r]
                win.seg.write(0, snap.data)
                # Control words: checkpoint value plus the revocation
                # ledger's *post-checkpoint* delta, so survivor lock
                # traffic that landed after the snapshot is kept and
                # pre-snapshot contributions are not double-counted.
                sums_now = ledger.sums(win_id, r)
                for idx, ck_val in enumerate(snap.ctrl):
                    val = (ck_val + sums_now.get(idx, 0)
                           - snap.ledger_sums.get(idx, 0)) & _MASK64
                    if val != win.ctrl.load(idx):
                        win.ctrl.store(idx, val)  # wakes word watchers
                win.lock_state.restore(snap.lock_snap)
                for stamp, off, data in replays[(win_id, r)]:
                    win.seg.write(off, data)
                    self.stats.entries_replayed += 1
            self._respawn(r, rec)
        self._fire_restore_events(cohort)
        self.world.notifier.absolve(cohort)
        inj = self.world.injector
        inj.stats.ranks_restored += len(cohort)
        self.stats.restores += 1
        self.stats.ranks_restored += len(cohort)
        self.stats.restore_ns += env.now - t0
        obs = self.world.obs
        if obs is not None:
            obs.nic_span(node, "ft.restore", t0, env.now, cat="ft",
                         args={"ranks": len(cohort), "node": node})
            obs.metrics.observe("ft_restore_ns", 0, env.now - t0)
        env.note_progress()

    def _fire_restore_events(self, cohort) -> None:
        for r in cohort:
            ev = self._restore_events.get(r)
            if ev is not None and not ev.triggered:
                ev.succeed(r)

    def _respawn(self, rank: int, rec: _Checkpoint) -> None:
        """Build a fresh context for the restored rank and re-enter the
        program from the checkpointed application state."""
        from repro.runtime.process import RankContext

        world = self.world
        ctx = RankContext(world, rank)
        # Adopt the preserved window objects: rebind them to the fresh
        # context so their transport calls use the new endpoints.
        max_win = -1
        for win_id, wins in self.windows.items():
            win = wins.get(rank)
            if win is not None:
                win.ctx = ctx
                max_win = max(max_win, win_id)
                snap = rec.windows.get(win_id)
                if snap is not None and snap.lock_snap.lock_all_held:
                    self._restored_lock_all.add((rank, win_id))
        ctx.rma._next_win = max_win + 1
        # Restored origin sequence numbers make re-executed atomics hit
        # the injector's replay dedup: exactly-once effects.
        ctx.dmapp._op_seq = rec.op_seq
        if rec.coll_tag or rec.nbx_tag:
            ctx.coll._tag = rec.coll_tag
            ctx.coll._nbx_tag = rec.nbx_tag
        checker = world.checker
        if checker is not None:
            checker.on_restore(rank, *rec.check)
        self._restored[rank] = dict(rec.app)
        # The restarted incarnation's outcome is the rank's outcome.
        world.rank_procs[rank] = self.env.process(
            self.program(ctx, *self.p_args, **self.p_kwargs),
            name=f"rank{rank}:r2")

