"""The per-run instrumentation object and the capture override.

:class:`Instrumentation` bundles a :class:`~repro.sim.trace.SpanLog`
(span timeline) with a :class:`~repro.obs.metrics.MetricsRegistry`
(per-rank counters/gauges/histograms).  One instance is attached to a
:class:`~repro.runtime.world.World` when observability is enabled; every
protocol-layer hook is behind a single ``obs is None`` test, so disabled
runs execute the exact pre-observability code path.

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
from typing import Any, Iterator

from repro.sim.trace import SpanLog

__all__ = ["Instrumentation", "capture", "active_capture"]


class Instrumentation:
    """Span timeline + metrics registry for one simulated run."""

    def __init__(self, nranks: int, *, max_spans: int = 500_000) -> None:
        # Local import keeps repro.sim free of an obs dependency.
        from repro.obs.metrics import MetricsRegistry

        self.nranks = nranks
        self.spans = SpanLog(limit=max_spans)
        self.metrics = MetricsRegistry()
        self.meta: dict[str, Any] = {}

    # -- span helpers ----------------------------------------------------
    def rank_span(self, rank: int, name: str, start_ns: int, end_ns: int,
                  cat: str = "rma", args: dict | None = None) -> None:
        """A finished span on ``rank``'s track."""
        self.spans.add("rank", rank, name, cat, start_ns, end_ns, args)

    def rank_instant(self, rank: int, name: str, ts_ns: int,
                     cat: str = "rma", args: dict | None = None) -> None:
        self.spans.instant("rank", rank, name, cat, ts_ns, args)

    def nic_span(self, node: int, name: str, start_ns: int, end_ns: int,
                 cat: str = "nic", args: dict | None = None) -> None:
        """A finished span on node ``node``'s NIC track."""
        self.spans.add("nic", node, name, cat, start_ns, end_ns, args)

    def nic_instant(self, node: int, name: str, ts_ns: int,
                    cat: str = "nic", args: dict | None = None) -> None:
        self.spans.instant("nic", node, name, cat, ts_ns, args)

    # -- layer-specific hooks -------------------------------------------
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

    def snapshot(self) -> dict[str, Any]:
        """Metrics + span statistics as one JSON-ready dict."""
        return {
            "nranks": self.nranks,
            "spans": len(self.spans),
            "spans_dropped": self.spans.dropped,
            "metrics": self.metrics.snapshot(),
            **({"meta": dict(sorted(self.meta.items()))} if self.meta else {}),
        }


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
