"""The per-run instrumentation object and the capture override.

:class:`Instrumentation` bundles a :class:`SpanLog` (span timeline) with
a :class:`~repro.obs.metrics.MetricsRegistry` (per-rank
counters/gauges/histograms).  One instance is attached to a
:class:`~repro.runtime.world.World` when observability is enabled; sync
sites reach it through one ``ctx.sync_hook is None`` test, data-path hooks
through ``obs is None``, so disabled runs run the uninstrumented path.

Recording NEVER schedules events or advances the clock: spans are list
appends, metrics are dict updates.  Enabling observability therefore
cannot perturb a schedule -- the test suite asserts enabled and disabled
runs are bit-identical (same event count, same final simulated time).

:func:`capture` is the harness hook: inside the context manager, every
newly built world gets a fresh ``Instrumentation`` even when its config
leaves observability off, and the instances are collected for export.
This is how benchmark drivers trace their slowest point without growing
an ``obs`` parameter through every call chain.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

__all__ = ["Instrumentation", "SpanLog", "SpanRecord", "SYNC_TABLE",
           "capture", "active_capture"]

#: Span-log truncation limit; appends past it only count ``spans.dropped``.
SPAN_LIMIT = 500_000


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span (or instant, when ``dur_ns == 0``) on a track.

    ``track`` names the track family (``"rank"`` or ``"nic"``), ``tid``
    the track instance (rank number / node number).  Times are simulated
    nanoseconds; ``args`` carries free-form labels for the exporters,
    frozen as a sorted item tuple.
    """

    track: str
    tid: int
    name: str
    cat: str
    start_ns: int
    dur_ns: int
    args: tuple[tuple[str, Any], ...] = ()

    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class SpanLog:
    """Append-only log of finished spans with bounded memory.

    Appends past ``limit`` are counted in ``dropped`` instead of stored.
    Append order is the (deterministic) order protocol code closed the
    spans, so exports are reproducible without sorting by insertion time.
    """

    def __init__(self, limit: int = SPAN_LIMIT) -> None:
        self.spans: list[SpanRecord] = []
        self.dropped = 0
        self.limit = limit

    def __len__(self) -> int:
        return len(self.spans)

    def add(
        self,
        track: str,
        tid: int,
        name: str,
        cat: str,
        start_ns: int,
        end_ns: int,
        args: dict | None = None,
    ) -> None:
        """Record a finished span; ``args`` is snapshotted to a tuple."""
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return
        if end_ns < start_ns:
            end_ns = start_ns
        frozen = tuple(sorted(args.items())) if args else ()
        dur_ns = int(end_ns - start_ns)
        span = SpanRecord(track, tid, name, cat, int(start_ns), dur_ns, frozen)
        self.spans.append(span)


class SyncRow(NamedTuple):
    """How a sync kind is recorded (:meth:`Instrumentation.on_sync`)."""

    span: str
    cat: str
    counter: str | None = None
    hist: str | None = None
    args: str | None = None        # a key of _ARGS
    epoch: str | None = None       # "open" | "close"
    side: str | None = None        # None: the call's peers (lock target)


#: Span args from a call's window and peers.
_ARGS = {"target": lambda win, target: {"target": target},
         "peers": lambda win, group: {"peers": len(group)},
         "word": lambda win, base: {"win": win.win_id, "base": base}}
_HOLD = SyncRow("lock.hold", "lock", None, "lock_hold_ns", "target", "close")

#: Sync kind -> its record.  Kinds without a row (the race checker's
#: entry edges) record nothing; a "coll" row takes the collective's name.
SYNC_TABLE = {
    "lock_shared": SyncRow("lock.shared", "lock", "rma.lock",
                           "lock_acquire_ns", "target", "open"),
    "lock_exclusive": SyncRow("lock.exclusive", "lock", "rma.lock",
                              "lock_acquire_ns", "target", "open"),
    "lock_all": SyncRow("lock.lock_all", "lock", "rma.lock_all",
                        "lock_acquire_ns", None, "open"),
    "unlock_shared": _HOLD,
    "unlock_exclusive": _HOLD,
    "unlock_all": SyncRow("lock.hold_all", "lock", None, "lock_hold_ns",
                          None, "close"),
    "post": SyncRow("pscw.post", "epoch", "rma.post", None, "peers", "open",
                    "exposure"),
    "start": SyncRow("pscw.start", "epoch", "rma.start", None, "peers",
                     "open", "access"),
    "complete": SyncRow("pscw.complete", "epoch", None, "epoch_access_ns",
                        None, "close", "access"),
    "wait": SyncRow("pscw.wait", "epoch", None, "epoch_exposure_ns", None,
                    "close", "exposure"),
    "fence": SyncRow("epoch.fence", "epoch", "rma.fence", "fence_ns"),
    "flush": SyncRow("flush", "rma", "rma.flush", "flush_ns"),
    "mcs_acquire": SyncRow("mcs.acquire", "lock", "mcs.acquires",
                           "mcs.acquire_wait_ns", "word"),
    "mcs_release": SyncRow("mcs.release", "lock", "mcs.releases", None,
                           "word"),
    "coll": SyncRow("coll", "coll", "coll"),
}


class Instrumentation:
    """Span timeline + metrics registry for one simulated run."""

    def __init__(self, nranks: int) -> None:
        # Local import keeps repro.sim free of an obs dependency.
        from repro.obs.metrics import MetricsRegistry

        self.nranks = nranks
        self.spans = SpanLog()
        self.metrics = MetricsRegistry()
        self.meta: dict[str, Any] = {}
        # Open epochs: (rank, win_id, side) -> the time they opened.
        self._opened: dict[tuple, int] = {}

    # -- span helpers ----------------------------------------------------
    def rank_span(self, rank: int, name: str, start_ns: int, end_ns: int,
                  cat: str = "rma", args: dict | None = None) -> None:
        """A finished span on ``rank``'s track."""
        self.spans.add("rank", rank, name, cat, start_ns, end_ns, args)

    def rank_instant(self, rank: int, name: str, ts_ns: int,
                     cat: str = "rma", args: dict | None = None) -> None:
        self.spans.add("rank", rank, name, cat, ts_ns, ts_ns, args)

    def nic_span(self, node: int, name: str, start_ns: int, end_ns: int,
                 cat: str = "nic", args: dict | None = None) -> None:
        """A finished span on node ``node``'s NIC track."""
        self.spans.add("nic", node, name, cat, start_ns, end_ns, args)

    def nic_instant(self, node: int, name: str, ts_ns: int,
                    cat: str = "nic", args: dict | None = None) -> None:
        self.spans.add("nic", node, name, cat, ts_ns, ts_ns, args)

    # -- layer-specific hooks -------------------------------------------
    def on_sync(self, kind: str, win: Any, peers: Any,
                t0: int | None) -> None:
        """A sync call on ``win.ctx.rank`` (``win``: a window or a
        collective call) returns: a span from ``t0``, a counter, a
        histogram of the span.  "open" stores now as the epoch's start,
        "close" pops it and measures from it (the span too if no t0)."""
        row = SYNC_TABLE.get(kind)
        if row is None:
            return
        rank, now = win.ctx.rank, win.ctx.now
        start = now if t0 is None else t0
        if row.epoch is not None:
            key = (rank, win.win_id, row.side or peers)
            if row.epoch == "open":
                self._opened[key] = now
            else:
                start = self._opened.pop(key, now)
        name = f"coll.{win.name}" if kind == "coll" else row.span
        self.rank_span(rank, name, start if t0 is None else t0, now, row.cat,
                       _ARGS[row.args](win, peers) if row.args else None)
        if row.counter is not None:
            self.metrics.count(name if kind == "coll" else row.counter, rank)
        if row.hist is not None:
            self.metrics.observe(row.hist, rank, now - start)

    def on_op(self, rank: int, kind: str, target: int, t0: int,
              remote_complete: int, nbytes: int) -> None:
        """One DMAPP data operation: issue at ``t0`` on ``rank``,
        globally complete at ``remote_complete``."""
        self.rank_span(rank, f"dmapp.{kind}", t0,
                       max(t0, remote_complete), cat="dmapp",
                       args={"target": target, "bytes": nbytes})
        self.metrics.count(f"dmapp.{kind}", rank)
        self.metrics.observe(f"{kind}_latency_ns", rank,
                             max(0, remote_complete - t0))

    def on_retransmit(self, rank: int, kind: str, target: int, ts_ns: int,
                      attempt: int, wait_ns: int) -> None:
        """One transport retransmission (DMAPP endpoint, faulty fabric)."""
        self.rank_instant(rank, f"retransmit.{kind}", ts_ns, cat="fault",
                          args={"target": target, "attempt": attempt})
        self.metrics.count("retransmits", rank)
        self.metrics.observe("retransmit_backoff_ns", rank, wait_ns)

    def on_link_retransmit(self, src_node: int, dst_node: int, ts_ns: int,
                           attempt: int, wait_ns: int) -> None:
        """One link-level packet retransmission (reliable MPI-1
        delivery); keyed by source *node*, on the NIC track."""
        self.nic_instant(src_node, "retransmit.packet", ts_ns, cat="fault",
                         args={"dst": dst_node, "attempt": attempt})
        self.metrics.count("link_retransmits", src_node)
        self.metrics.observe("link_retransmit_backoff_ns", src_node, wait_ns)

    def on_packet(self, src_node: int, dst_node: int, nbytes: int,
                  deliver_ns: int, is_amo: bool) -> None:
        """Every delivered network packet (called by the network layer)."""
        self.metrics.link_bytes(src_node, dst_node, nbytes)
        self.nic_instant(dst_node, "amo" if is_amo else "pkt", deliver_ns,
                         args={"src": src_node, "bytes": nbytes})


# -- capture override ----------------------------------------------------
_CAPTURE: list[Instrumentation] | None = None


def active_capture() -> list[Instrumentation] | None:
    """The live capture sink, or None (consulted by World construction)."""
    return _CAPTURE


@contextmanager
def capture() -> Iterator[list[Instrumentation]]:
    """Collect instrumentation from every run built inside the block.

    Nested captures are not supported; the inner block simply keeps the
    outer sink.  Runs in a benchmark pool worker build their world in
    another process and record nothing here, so callers that need spans
    should run the traced points serially.
    """
    global _CAPTURE
    if _CAPTURE is not None:
        yield _CAPTURE
        return
    sink: list[Instrumentation] = []
    _CAPTURE = sink
    try:
        yield sink
    finally:
        _CAPTURE = None
