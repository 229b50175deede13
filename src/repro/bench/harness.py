"""Series containers and plain-text reporting for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Series", "format_table", "format_series_table", "geomean",
           "slowest_point", "trace_point"]


@dataclass
class Series:
    """One labeled curve: (x, y) points plus free-form metadata."""

    label: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, x, y) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def as_dict(self) -> dict:
        return {"label": self.label, "xs": list(self.xs), "ys": list(self.ys),
                **self.meta}


def slowest_point(series: list[Series]) -> tuple[str, object, float] | None:
    """The (label, x, y) of the largest y across all series.

    Figure drivers use this to pick which point of a sweep deserves a
    trace: y is a latency/time in every sweep where tracing the maximum
    is meaningful.  Returns None when the series hold no points.
    """
    best: tuple[str, object, float] | None = None
    for s in series:
        for x, y in zip(s.xs, s.ys):
            if best is None or y > best[2]:
                best = (s.label, x, y)
    return best


def trace_point(run_fn, path: str, *, label: str = "") -> str | None:
    """Run benchmark code under observability; export its slowest trace.

    ``run_fn`` is a zero-argument callable that executes one or more
    benchmark points (any driver function closure).  Every simulation it
    launches is captured via :func:`repro.obs.capture` -- no driver needs
    an ``obs`` parameter -- and the Chrome trace of the run with the
    longest simulated timeline (the sweep's slowest point) is written to
    ``path``.  Returns the path, or None when nothing was simulated in
    this process (e.g. every point ran in a pool worker).
    """
    from repro.obs import capture, write_chrome_trace

    with capture() as sink:
        run_fn()
    if not sink:
        return None

    def extent(obs) -> int:
        return max((s.end_ns() for s in obs.spans.spans), default=0)

    return write_chrome_trace(path, max(sink, key=extent), label=label)


def geomean(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Fixed-width table (the harness prints these for every figure)."""
    cols = [headers] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(str(r[i])) for r in cols) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(c).rjust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(title: str, x_label: str,
                        series: list[Series]) -> str:
    """Merge several series on a shared x axis into one table."""
    xs = sorted({x for s in series for x in s.xs})
    headers = [x_label] + [s.label for s in series]
    # One x -> y dict per series (first occurrence wins, matching the old
    # list.index semantics) instead of an O(len(xs)) scan per cell.
    maps = []
    for s in series:
        m: dict = {}
        for x, y in zip(s.xs, s.ys):
            m.setdefault(x, y)
        maps.append(m)
    rows = [[x] + [m.get(x, "") for m in maps] for x in xs]
    return format_table(title, headers, rows)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)
