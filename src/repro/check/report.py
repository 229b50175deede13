"""Plain-text rendering of checker results for the CLI."""

from __future__ import annotations

from repro.check.core import RaceChecker

__all__ = ["render_check_report"]


def render_check_report(ck: RaceChecker, title: str = "") -> str:
    """Human-readable summary: verdict, counters, every violation with
    its conflicting-access pair, epochs and simulated timestamps."""
    stats = ck.stats_snapshot()
    lines = []
    head = f"repro check: {title}" if title else "repro check"
    lines.append(head)
    lines.append("=" * len(head))
    lines.append(f"accesses tracked : {stats['accesses']}")
    lines.append(f"live records     : {stats['live_records']} "
                 f"(pruned {stats['pruned_records']})")
    if ck.clean:
        lines.append("violations       : 0  -- no races detected")
        return "\n".join(lines)
    lines.append(f"violations       : {stats['violations']} "
                 f"({stats['unique']} unique)")
    for kind, n in stats["by_kind"].items():
        lines.append(f"    {kind:<20} {n}")
    lines.append("")
    for i, v in enumerate(sorted(ck.violations,
                                 key=lambda v: (v.win_id, v.lo, v.kind)),
                          1):
        lines.append(f"#{i} {v.describe()}")
    return "\n".join(lines)

