"""The RMA memory-model checker: shadow accesses + vector-clock races.

One :class:`RaceChecker` is attached to a
:class:`~repro.runtime.world.World` when checking is enabled
(``CheckConfig(enabled=True)`` or a live :func:`check_capture` block).
Every protocol-layer hook is behind a single ``checker is None`` test,
so disabled runs execute the exact pre-checker code path; recording
itself is pure host-side bookkeeping (list appends, dict updates,
vector-clock arithmetic) that never schedules events or draws random
numbers, so enabled runs are bit-identical too -- the test suite asserts
both.

How it works
------------

**Synchronization** feeds the vector-clock engine
(:mod:`repro.check.vclock`):

* collectives (and the barrier inside every fence) deposit at entry and
  merge the deposits present at exit -- exact for dissemination/
  recursive-doubling patterns, a sound under-approximation of a full
  barrier for rooted trees (never creates a false happens-before edge);
* lock/unlock and lock_all/unlock_all implement reader-writer release
  clocks: an exclusive acquire is ordered after all prior releases, a
  shared acquire after prior *exclusive* releases only;
* PSCW post/complete deposit per exposure/access peer, start/wait merge
  (matching the matching-list protocol's message flow);
* flush / unlock / complete / fence advance the per-``(rank, window)``
  *operation sequence* that orders same-origin nonblocking operations.

**Accesses** are shadow-recorded per ``(window, target rank)`` as byte
ranges (one range per contiguous datatype block, so interleaving-but-
disjoint strided types never alias).  On insertion each record is
compared against the live records for the same location; pairs that are
neither happens-before-ordered nor permitted-concurrent become
:class:`Violation` findings.  The new record then takes over the bytes it
shares with each live record of the same ``(rank, kind, op)``, which keeps
only its uncovered ranges (FastTrack's observation, Flanagan & Freund,
PLDI 2009): the later record's ``oseq`` and own-clock tick are at least as
large, so any future access unordered with the earlier one is unordered
with it too and classifies the same.  The store thus holds one record per
origin, kind and op on each byte, and ``Violation.count`` counts racing
pairs against those records.  Full barriers prune records that can no
longer race -- but not a remote access its origin has not completed since
(a barrier completes no RMA operation).

**Classification** follows the paper's Section 4 / MPI-3 Section 11.7:

=====================  ==================================================
``put-put``            two concurrent remote writes overlap
``put-get``            a concurrent remote write overlaps a remote read
``accumulate-op-mix``  concurrent accumulates with different operations
                       (atomicity is only guaranteed for same-op)
``atomic-nonatomic``   an accumulate-family op concurrent with a plain
                       put/get on the same bytes
``local-remote``       a target-side local load/store concurrent with a
                       remote access (separate memory model)
``same-origin``        one origin's own operations overlap without an
                       ordering call (flush/unlock/complete/fence)
=====================  ==================================================

Permitted concurrency: read-read, same-op accumulates (or ``NO_OP``),
and same-origin accumulates (MPI's default accumulate ordering).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator

from repro.check.vclock import VectorClock

__all__ = ["Access", "Violation", "RaceChecker", "check_capture",
           "active_check_capture"]

#: Access kinds that only read target memory.
_READ_KINDS = frozenset({"get", "local_load"})
#: Access kinds in the accumulate family (element-wise atomic).
_ACC_KINDS = frozenset({"acc", "get_acc", "fao", "cas"})
#: Access kinds executed by the target itself (local CPU accesses).
_LOCAL_KINDS = frozenset({"local_load", "local_store"})
#: PSCW edges: ``(win_id, receiver, sender)`` -> sender clocks, oldest first.
_Edges = dict[tuple, deque]


@dataclass
class Access:
    """One shadow-recorded window access."""

    rank: int                      # issuing rank (origin, or target-local)
    kind: str                      # put|get|acc|get_acc|fao|cas|local_*
    op: str | None                 # accumulate operation name, or None
    win_id: int
    target: int                    # rank whose window memory is touched
    ranges: tuple[tuple[int, int], ...]   # [lo, hi) byte ranges
    oseq: int                      # same-origin operation-sequence number
    tick: int                      # issuing rank's own clock component
    t_ns: int                      # simulated issue time
    epoch: str                     # epoch context label
    path: str = ""                 # accumulate path tag ("hw"/"sw")

    @property
    def is_read(self) -> bool:
        return self.kind in _READ_KINDS or (
            self.kind in _ACC_KINDS and self.op == "no_op")

    @property
    def is_acc(self) -> bool:
        return self.kind in _ACC_KINDS

    @property
    def is_local(self) -> bool:
        return self.kind in _LOCAL_KINDS

    def describe(self) -> str:
        op = f" {self.op}" if self.op else ""
        path = f"/{self.path}" if self.path else ""
        spans = ",".join(f"[{lo},{hi})" for lo, hi in self.ranges[:3])
        more = "..." if len(self.ranges) > 3 else ""
        return (f"{self.kind}{op}{path} by rank {self.rank} at "
                f"{self.t_ns} ns (epoch {self.epoch}, seq {self.oseq}) "
                f"bytes {spans}{more}")


@dataclass
class Violation:
    """One conflicting-access pair (deduplicated; ``count`` repeats)."""

    kind: str
    win_id: int
    target: int
    lo: int                        # first overlapping byte range seen
    hi: int
    first: Access
    second: Access
    count: int = 1

    def describe(self) -> str:
        times = f" (x{self.count})" if self.count > 1 else ""
        return (f"race[{self.kind}] win {self.win_id} @ rank {self.target}"
                f" bytes [{self.lo},{self.hi}){times}:\n"
                f"    {self.first.describe()}\n"
                f"    {self.second.describe()}")


@dataclass
class _CollSlot:
    """One collective instance: merged deposits + participation counts."""

    acc: VectorClock
    entered: int = 0
    exited: int = 0


@dataclass
class _LockSync:
    """Release clocks of one (window, target) lock word."""

    write_release: VectorClock
    read_release: VectorClock


class RaceChecker:
    """Vector-clock race detection for one simulated run."""

    def __init__(self, nranks: int, obs: Any = None) -> None:
        self.nranks = nranks
        self.obs = obs
        self.clocks = [VectorClock(nranks, r) for r in range(nranks)]
        self.violations: list[Violation] = []
        self._sigs: dict[tuple, Violation] = {}
        # Synchronization-object state:
        self._coll_seq = [0] * nranks
        self._coll: dict[int, _CollSlot] = {}
        self._locks: dict[tuple[int, int], _LockSync] = {}
        self._pscw_post: _Edges = {}
        self._pscw_done: _Edges = {}
        self._mcs: dict[tuple, VectorClock] = {}
        self._oseq: dict[tuple[int, int], int] = {}
        # Shadow store: live records per (window, target).
        self._shadow: dict[tuple[int, int], list[Access]] = {}
        self.nrecords = 0
        self.pruned = 0
        self.accesses_seen = 0
        # Two-sided happens-before edges observed (msg_send match points).
        self.msg_edges = 0

    # ------------------------------------------------------------------
    # vector-clock primitives
    # ------------------------------------------------------------------
    def _deposit(self, rank: int) -> VectorClock:
        """Release: tick own component, publish a copy."""
        clock = self.clocks[rank]
        clock.tick(rank)
        return clock.copy()

    def _acquire(self, rank: int, vc: VectorClock | None) -> None:
        """Acquire: merge a published clock, tick own component."""
        clock = self.clocks[rank]
        if vc is not None:
            clock.merge(vc)
        clock.tick(rank)

    def _bump_oseq(self, rank: int, win_id: int) -> None:
        key = (rank, win_id)
        self._oseq[key] = self._oseq.get(key, 0) + 1

    # ------------------------------------------------------------------
    # synchronization hooks (called by the protocol layers)
    # ------------------------------------------------------------------
    def coll_enter(self, rank: int) -> int:
        """A collective call starts on ``rank``; returns its instance id.

        MPI requires every rank to issue collectives in the same order,
        so per-rank sequence counters identify the instance."""
        seq = self._coll_seq[rank]
        self._coll_seq[rank] = seq + 1
        slot = self._coll.get(seq)
        if slot is None:
            slot = self._coll[seq] = _CollSlot(VectorClock(self.nranks))
        slot.acc.merge(self._deposit(rank))
        slot.entered += 1
        return seq

    def coll_exit(self, rank: int, seq: int) -> None:
        """The collective returns on ``rank``: merge deposits present.

        Every true message edge inside the collective implies its sender
        deposited before this hook runs (event order), so merging the
        accumulated clock never invents a happens-before edge."""
        slot = self._coll[seq]
        self._acquire(rank, slot.acc)
        slot.exited += 1
        if slot.exited == self.nranks:
            # A completed full collective is a global ordering point:
            # records everyone already knows about can never race again.
            self._prune(slot.acc)
            del self._coll[seq]

    def msg_send(self, rank: int) -> VectorClock:
        """An MPI-1 send is issued by ``rank``: deposit its clock.

        The returned clock rides on the :class:`~repro.mpi1.matching.Message`
        to the receiver's match point.  Mirrors how collectives deposit at
        ``coll_enter`` -- a two-sided message is a true happens-before edge
        from the sender's program point to the receiving program point, so
        mixed two-sided/one-sided programs that order their RMA accesses
        with send/recv pairs must not report false races."""
        self.msg_edges += 1
        return self._deposit(rank)

    def msg_recv(self, rank: int, vc: VectorClock | None) -> None:
        """An MPI-1 receive matches on ``rank``: acquire the sender's
        deposited clock (``None`` for messages sent before the checker
        attached -- merge-nothing, tick-only, never a false edge)."""
        self._acquire(rank, vc)

    def on_fence(self, win) -> None:
        """Fence completes all of this origin's operations (the ordering
        itself comes from the barrier inside the fence)."""
        self._bump_oseq(win.rank, win.win_id)

    def on_flush(self, win) -> None:
        """Remote completion: later same-origin ops are ordered after
        earlier ones.  (``flush_local`` completes only locally and does
        NOT order target-side effects, so it has no hook.)"""
        self._bump_oseq(win.rank, win.win_id)

    def lock_acquired(self, win, target: int, exclusive: bool) -> None:
        sync = self._locks.get((win.win_id, target))
        vc: VectorClock | None = None
        if sync is not None:
            vc = sync.write_release.copy()
            if exclusive:
                vc.merge(sync.read_release)
        self._acquire(win.rank, vc)

    def lock_released(self, win, target: int, exclusive: bool) -> None:
        vc = self._deposit(win.rank)
        sync = self._locks.get((win.win_id, target))
        if sync is None:
            sync = self._locks[(win.win_id, target)] = _LockSync(
                VectorClock(self.nranks), VectorClock(self.nranks))
        (sync.write_release if exclusive else sync.read_release).merge(vc)
        self._bump_oseq(win.rank, win.win_id)  # unlock completes ops

    def lock_all_acquired(self, win) -> None:
        merged: VectorClock | None = None
        for t in range(self.nranks):
            sync = self._locks.get((win.win_id, t))
            if sync is not None:
                if merged is None:
                    merged = sync.write_release.copy()
                else:
                    merged.merge(sync.write_release)
        self._acquire(win.rank, merged)

    def lock_all_released(self, win) -> None:
        vc = self._deposit(win.rank)
        for t in range(self.nranks):
            sync = self._locks.get((win.win_id, t))
            if sync is None:
                sync = self._locks[(win.win_id, t)] = _LockSync(
                    VectorClock(self.nranks), VectorClock(self.nranks))
            sync.read_release.merge(vc)
        self._bump_oseq(win.rank, win.win_id)

    def _send_to(self, edges: _Edges, win: Any, group: Iterable[int]) -> None:
        """Deposit ``win.rank``'s clock on its PSCW edge to each of ``group``."""
        vc = self._deposit(win.rank)
        for j in group:
            edges.setdefault((win.win_id, j, win.rank), deque()).append(vc)

    def _take_from(self, edges: _Edges, win: Any, peers: Iterable[int]) -> None:
        """Merge the oldest deposit on each of ``peers``' PSCW edge to us."""
        merged: VectorClock | None = None
        for r in peers:
            dq = edges.get((win.win_id, win.rank, r))
            if dq:
                vc = dq.popleft()
                if merged is None:
                    merged = vc.copy()
                else:
                    merged.merge(vc)
        self._acquire(win.rank, merged)

    def pscw_post(self, win: Any, group: Iterable[int]) -> None:
        """Deposited at post() entry -- before the matching-list appends
        the peers' start() will observe."""
        self._send_to(self._pscw_post, win, group)

    def pscw_start(self, win: Any, group: Iterable[int]) -> None:
        """Merged at start() exit, one deposit per matched poster."""
        self._take_from(self._pscw_post, win, group)

    def pscw_complete(self, win: Any, group: Iterable[int]) -> None:
        """Deposited at complete() entry -- before the completion-counter
        AMOs the peers' wait() will observe."""
        self._send_to(self._pscw_done, win, group)
        self._bump_oseq(win.rank, win.win_id)

    def mcs_acquired(self, rank: int, key: tuple) -> None:
        """An MCS queue lock (:class:`repro.rma.mcs.McsLock`) was acquired
        by ``rank``.  ``key`` identifies the lock instance
        (``(win_id, cell_base)``).  MCS locks are exclusive, so the
        acquire is ordered after *every* prior release: merge the
        accumulated release clock.  Without this edge, lock-ordered
        read-modify-write sequences (the kvstore's CAS-update path) would
        be reported as races."""
        self._acquire(rank, self._mcs.get(key))

    def mcs_released(self, rank: int, key: tuple) -> None:
        """``rank`` releases an MCS lock: deposit its clock.  Called at
        release *entry* -- before the hand-off AMO fires -- so the deposit
        is in place by the time any successor's acquire completes (event
        order guarantees the hook runs first)."""
        vc = self._deposit(rank)
        cur = self._mcs.get(key)
        if cur is None:
            self._mcs[key] = vc
        else:
            cur.merge(vc)

    def pscw_wait(self, win: Any, origins: Iterable[int]) -> None:
        """Merged at wait() exit, one deposit per access-epoch origin."""
        self._take_from(self._pscw_done, win, origins)

    # ------------------------------------------------------------------
    # rollback recovery (repro.ft)
    # ------------------------------------------------------------------
    def on_restore(self, rank: int, coll_seq: int, oseqs: dict) -> None:
        """A crashed rank was rolled back to a checkpoint and restarted.

        The dead incarnation's post-checkpoint history is void: its
        shadow records would fabricate races against the re-executed
        operations, and its sequence counters must rewind to the values
        the restored program state corresponds to.  The restore itself
        is a global ordering point for the rank (the checkpointed bytes
        plus replayed log entries are what everyone observes), so the
        rank's clock ticks once here."""
        old_seq = self._coll_seq[rank]
        self._coll_seq[rank] = coll_seq
        for key in [k for k in self._oseq if k[0] == rank]:
            del self._oseq[key]
        self._oseq.update(oseqs)
        for key, records in self._shadow.items():
            self._shadow[key] = [r for r in records if r.rank != rank]
        self.nrecords = sum(map(len, self._shadow.values()))
        # Withdraw the dead incarnation's entries from still-open
        # collective slots it had entered past the checkpoint: the
        # restarted incarnation re-enters them.
        for seq in range(coll_seq, old_seq):
            slot = self._coll.get(seq)
            if slot is None:
                continue
            slot.entered -= 1
            if slot.entered <= 0:
                del self._coll[seq]
        self.clocks[rank].tick(rank)

    # ------------------------------------------------------------------
    # access hooks
    # ------------------------------------------------------------------
    def note_op(self, win, kind: str, target: int,
                ranges, *, op: str | None = None, path: str = "") -> None:
        """Record one access: an origin-side communication call
        (put/get/atomics), or a target-side one from :meth:`note_local`."""
        from repro.check import epochs

        self.accesses_seen += 1
        rank = win.rank
        rec = Access(
            rank=rank, kind=kind, op=op, win_id=win.win_id, target=target,
            ranges=tuple((int(lo), int(hi)) for lo, hi in ranges),
            oseq=self._oseq.get((rank, win.win_id), 0),
            tick=self.clocks[rank][rank], t_ns=win.ctx.now,
            epoch=epochs.epoch_context(win), path=path)
        self._insert(rec)

    def note_local(self, win, kind: str, offset: int, nbytes: int) -> None:
        """Record a target-side access to this rank's own window memory:
        a ``Window.local_load`` / ``local_store``, or an access through
        the zero-copy ``Window.local_view()`` array declared with
        ``Window.note_local``.  ``kind`` is ``"load"`` or ``"store"``; the
        range is ``[offset, offset + nbytes)`` from the window base."""
        if kind not in ("load", "store"):
            raise ValueError(f"note_local kind must be 'load' or 'store', "
                             f"not {kind!r}")
        self.note_op(win, f"local_{kind}", win.rank,
                     ((offset, offset + nbytes),))

    # ------------------------------------------------------------------
    # shadow store + classification
    # ------------------------------------------------------------------
    def _insert(self, rec: Access) -> None:
        shadow = self._shadow.setdefault((rec.win_id, rec.target), [])
        seen = self.clocks[rec.rank]
        cls = (rec.rank, rec.kind, rec.op)
        trimmed = False
        for i, old in enumerate(shadow):
            if not _overlaps(old.ranges, rec.ranges):
                continue
            if not _ordered(old, rec, seen):
                kind = _classify(old, rec)
                if kind is not None:
                    self._report(kind, old, rec)
            if (old.rank, old.kind, old.op) == cls:
                # ``rec`` takes over the shared bytes (module docstring).
                shadow[i] = replace(old,
                                    ranges=_subtract(old.ranges, rec.ranges))
                trimmed = True
        if trimmed:
            live = [r for r in shadow if r.ranges]
            dropped = len(shadow) - len(live)
            self.pruned += dropped
            self.nrecords -= dropped
            shadow[:] = live
        shadow.append(rec)
        self.nrecords += 1

    def _report(self, kind: str, old: Access, new: Access) -> None:
        sig = (kind, new.win_id, new.target, old.rank, new.rank,
               old.kind, new.kind, old.op, new.op)
        hit = self._sigs.get(sig)
        if hit is not None:
            hit.count += 1
            return
        lo, hi = _first_overlap(old.ranges, new.ranges)
        v = Violation(kind=kind, win_id=new.win_id, target=new.target,
                      lo=lo, hi=hi, first=old, second=new)
        self._sigs[sig] = v
        self.violations.append(v)
        obs = self.obs
        if obs is not None:
            # Violations double as trace instants so Perfetto timelines
            # show where in the schedule each race was observed.
            obs.rank_instant(new.rank, f"race.{kind}", new.t_ns,
                             cat="check",
                             args={"win": new.win_id, "target": new.target,
                                   "peer": old.rank, "lo": lo, "hi": hi})
            obs.metrics.count("check.violations", new.rank)

    def _prune(self, acc: VectorClock) -> None:
        """Drop records ordered before a completed full collective, but
        keep a remote access its origin has not completed since."""
        oseq = self._oseq
        for key, records in self._shadow.items():
            keep = [r for r in records if r.tick > acc[r.rank] or (
                not r.is_local
                and r.oseq == oseq.get((r.rank, r.win_id), 0))]
            self.pruned += len(records) - len(keep)
            self._shadow[key] = keep
        self.nrecords = sum(map(len, self._shadow.values()))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations

    def stats_snapshot(self) -> dict:
        by_kind: dict[str, int] = {}
        for v in self.violations:
            by_kind[v.kind] = by_kind.get(v.kind, 0) + v.count
        return {
            "violations": sum(v.count for v in self.violations),
            "unique": len(self.violations),
            "by_kind": dict(sorted(by_kind.items())),
            "accesses": self.accesses_seen,
            "live_records": self.nrecords,
            "pruned_records": self.pruned,
        }


# -- pair predicates -----------------------------------------------------
def _overlaps(a: tuple, b: tuple) -> bool:
    return any(lo1 < hi2 and lo2 < hi1
               for lo1, hi1 in a for lo2, hi2 in b)


def _subtract(a: tuple, b: tuple) -> tuple[tuple[int, int], ...]:
    """The parts of ranges ``a`` that no range of ``b`` covers."""
    for cut_lo, cut_hi in b:  # keep what lies left and right of each cut
        a = tuple((lo, hi) for lo1, hi1 in a for lo, hi in (
            (lo1, min(hi1, cut_lo)), (max(lo1, cut_hi), hi1)) if lo < hi)
    return a


def _first_overlap(a: tuple, b: tuple) -> tuple[int, int]:
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            if lo1 < hi2 and lo2 < hi1:
                return max(lo1, lo2), min(hi1, hi2)
    return 0, 0  # pragma: no cover - caller guarantees an overlap


def _ordered(old: Access, new: Access, seen: VectorClock) -> bool:
    """Is ``old`` ordered before ``new`` (recorded later in event order)?
    ``seen`` is ``new``'s issuing rank's clock at issue time."""
    if old.rank == new.rank:
        if old.oseq != new.oseq:
            return True             # a flush/unlock/complete/fence between
        if old.is_local and new.is_local:
            return True             # two CPU accesses: program order
        # MPI's default accumulate ordering: same-origin accumulates to
        # the same location are ordered even without completion calls.
        return old.is_acc and new.is_acc
    return old.tick <= seen[old.rank]


def _classify(old: Access, new: Access) -> str | None:
    """Violation kind for a concurrent overlapping pair, or None."""
    if old.is_read and new.is_read:
        return None
    if old.is_acc and new.is_acc:
        if old.op == new.op or old.op == "no_op" or new.op == "no_op":
            return None             # same-op (or NO_OP) atomics compose
        return "accumulate-op-mix"
    if old.is_local != new.is_local:
        return "local-remote"
    if old.is_acc or new.is_acc:
        return "atomic-nonatomic"
    if old.rank == new.rank:
        return "same-origin"
    if not old.is_read and not new.is_read:
        return "put-put"
    return "put-get"


# -- capture override ----------------------------------------------------
_CAPTURE: list[RaceChecker] | None = None


def active_check_capture() -> list[RaceChecker] | None:
    """The live checker-capture sink, or None (consulted by World
    construction, mirroring :func:`repro.obs.core.active_capture`)."""
    return _CAPTURE


@contextmanager
def check_capture() -> Iterator[list[RaceChecker]]:
    """Attach a checker to every world built inside the block.

    This is how ``repro check path/to/example.py`` instruments example
    scripts that call :func:`~repro.runtime.job.run_spmd` themselves:
    the script runs unmodified and every run's checker lands in the
    sink.  Nested captures keep the outer sink."""
    global _CAPTURE
    if _CAPTURE is not None:
        yield _CAPTURE
        return
    sink: list[RaceChecker] = []
    _CAPTURE = sink
    try:
        yield sink
    finally:
        _CAPTURE = None
