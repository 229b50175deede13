"""Plain-text rendering of checker results for the CLI."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.core import RaceChecker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.perturb import PerturbResult

__all__ = ["check_failed", "render_check_report",
           "render_perturb_report"]


def check_failed(ck: RaceChecker) -> bool:
    """What ``repro check`` and ``repro serve --check`` exit nonzero on:
    a violation, or a run the record cap cut short -- past
    ``CheckConfig.max_records`` nothing was checked, so zero findings
    prove nothing."""
    return bool(ck.violations) or ck.truncated


def render_check_report(ck: RaceChecker, title: str = "") -> str:
    """Human-readable summary: verdict, counters, every violation with
    its conflicting-access pair, epochs and simulated timestamps."""
    stats = ck.stats_snapshot()
    lines = []
    head = f"repro check: {title}" if title else "repro check"
    lines.append(head)
    lines.append("=" * len(head))
    lines.append(
        f"accesses tracked : {stats['accesses']}"
        + (" (record cap hit -- results incomplete)"
           if stats["truncated"] else ""))
    lines.append(f"live records     : {stats['live_records']} "
                 f"(pruned {stats['pruned_records']})")
    if ck.clean:
        lines.append("violations       : 0  -- "
                     + ("run incomplete, NOT verified clean"
                        if ck.truncated else "no races detected"))
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


def render_perturb_report(result: PerturbResult) -> str:
    """Summary of a perturbation sweep (one line per iteration plus the
    reproducer command for every finding)."""
    from repro.check.perturb import reproducer_command

    lines = [f"perturbation sweep: {result.workload} "
             f"({result.iterations} iterations, {result.nranks} ranks)"]
    hits = 0
    for i, (seed, ck) in enumerate(zip(result.seeds, result.checkers)):
        n = sum(v.count for v in ck.violations)
        tag = "clean" if not ck.violations else f"{n} violation(s)"
        lines.append(f"  iter {i:<3} seed {seed:<22} {tag}")
        hits += bool(ck.violations)
    lines.append(f"{hits}/{result.iterations} schedules manifested races")
    for i, (seed, ck) in enumerate(zip(result.seeds, result.checkers)):
        if not ck.violations:
            continue
        lines.append("")
        lines.append(f"-- iteration {i} (seed {seed}) --")
        for v in ck.violations:
            lines.append(v.describe())
        lines.append("reproduce: "
                     + reproducer_command(result.workload, result.nranks,
                                          seed))
    return "\n".join(lines)
