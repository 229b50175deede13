"""Plain-text reporting extras: ASCII log-log charts for figure series.

The paper's figures are log-log latency/rate plots; these helpers render a
recognizable terminal approximation so `python -m repro figure <id>` gives
a visual sanity check without any plotting dependency.
"""

from __future__ import annotations

import math

from repro.bench.harness import Series

__all__ = ["ascii_chart"]

_MARKS = "ox+*#@%&"


def _log(v: float) -> float:
    return math.log10(max(v, 1e-12))


def ascii_chart(title: str, series: list[Series], *, width: int = 64,
                height: int = 16, x_label: str = "x",
                y_label: str = "y") -> str:
    """Render series as a log-log ASCII scatter chart."""
    pts = [(x, y, i) for i, s in enumerate(series)
           for x, y in zip(s.xs, s.ys)
           if isinstance(y, (int, float)) and y > 0]
    if not pts:
        return f"{title}\n(no data)"
    xs = [_log(p[0]) for p in pts]
    ys = [_log(p[1]) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (x, y, i) in pts:
        cx = int((_log(x) - x0) / xr * (width - 1))
        cy = int((_log(y) - y0) / yr * (height - 1))
        grid[height - 1 - cy][cx] = _MARKS[i % len(_MARKS)]
    lines = [title, "=" * len(title)]
    top = f"{10 ** y1:.3g}"
    bot = f"{10 ** y0:.3g}"
    pad = max(len(top), len(bot))
    for r, row in enumerate(grid):
        label = top if r == 0 else (bot if r == height - 1 else "")
        lines.append(f"{label.rjust(pad)} |{''.join(row)}|")
    lines.append(" " * pad + " +" + "-" * width + "+")
    lines.append(" " * pad + f"  {10 ** x0:.3g}".ljust(width // 2)
                 + f"{10 ** x1:.3g}".rjust(width // 2)
                 + f"   ({x_label}, log-log, {y_label})")
    legend = "  ".join(f"{_MARKS[i % len(_MARKS)]}={s.label}"
                       for i, s in enumerate(series))
    lines.append("legend: " + legend)
    return "\n".join(lines)
