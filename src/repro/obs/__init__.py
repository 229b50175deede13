"""Observability layer: spans, per-rank metrics, exporters, run reports.

The protocol layers (``rma``, ``dmapp``, ``runtime``, ``machine``) open
named spans and update metrics on the simulated clock whenever a
:class:`~repro.obs.core.Instrumentation` is attached to the world --
enable it with ``ObsConfig(enabled=True)`` (see :mod:`repro.config`) or
wrap arbitrary driver code in :func:`repro.obs.capture`.  When disabled,
every hook is a single ``is None`` test and schedules stay bit-identical
to uninstrumented code.

Exports: Chrome trace-event JSON (:mod:`repro.obs.chrome`, loadable in
Perfetto with one track per rank and per NIC) and plain-text run reports
(:mod:`repro.obs.report`).  ``repro trace <workload>`` and ``repro
report`` on the CLI drive the named workloads in :mod:`repro.workloads`.
"""

from __future__ import annotations

from repro.obs.chrome import (
    chrome_trace,
    chrome_trace_json,
    write_chrome_trace,
)
from repro.obs.core import Instrumentation, active_capture, capture
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import render_report, span_aggregates

__all__ = [
    "Instrumentation",
    "MetricsRegistry",
    "Histogram",
    "capture",
    "active_capture",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "render_report",
    "span_aggregates",
]
