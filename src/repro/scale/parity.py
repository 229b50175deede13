"""Scale parity: hybrid vs full-fidelity at overlapping sizes.

The hybrid mode's correctness claim is structural: at sizes the full
DES can execute, a hybrid run must reproduce the full run's
per-protocol message counts **exactly** -- the whole
``OpCounters.snapshot()`` dict (messages, bytes, per-kind counts,
per-rank maxima), compared as plain equality -- and satisfy the
O(log p) structural bounds at every size.  This module produces that
comparison as data: ``parity_case`` for one (workload, p, rpn) cell,
``parity_table`` for the sweep the CI ``scale-parity`` job runs and
uploads as an artifact.
"""

from __future__ import annotations

from typing import Any

from repro.scale.hybrid import run_hybrid
from repro.scale.units import format_ranks

__all__ = ["parity_case", "parity_table"]


def _stats_diff(full: dict, hybrid: dict) -> dict[str, Any]:
    """Keys where the two stats dicts disagree (empty == exact parity)."""
    diff: dict[str, Any] = {}
    for key in sorted(set(full) | set(hybrid)):
        fv, hv = full.get(key), hybrid.get(key)
        if fv != hv:
            diff[key] = {"full": fv, "hybrid": hv}
    return diff


def parity_case(workload: str, nranks: int, *,
                ranks_per_node: int = 1) -> dict[str, Any]:
    """One parity cell: run the registry entry ``workload`` in both
    modes, diff the stats dicts exactly."""
    # Imported here, not at module level: the registry imports this package.
    from repro.workloads import run_workload

    full = run_workload(workload, nranks, ranks_per_node=ranks_per_node)
    hybrid = run_hybrid(workload, nranks, ranks_per_node=ranks_per_node)
    diff = _stats_diff(full.stats, hybrid.stats)
    return {
        "workload": workload,
        "nranks": nranks,
        "ranks": format_ranks(nranks),
        "ranks_per_node": ranks_per_node,
        "exact": not diff,
        "diff": diff,
        "messages": hybrid.stats.get("messages"),
        "by_kind": hybrid.stats.get("by_kind"),
        "bounds": hybrid.bounds,
        "full_sim_time_ns": full.sim_time_ns,
        "hybrid_sim_time_ns": hybrid.sim_time_ns,
    }


def parity_table(rank_counts: list[int], *, ranks_per_node: int = 1,
                 workloads: list[str] | None = None) -> dict[str, Any]:
    """The full parity sweep: every workload (default: every registry
    entry with a hybrid twin) at every size.

    Returns a JSON-ready report with per-cell results and an overall
    ``ok`` verdict (every cell exact, every bound satisfied).
    """
    from repro.workloads import names

    workloads = workloads or names(scale=True)
    cases = [parity_case(w, p, ranks_per_node=ranks_per_node)
             for w in workloads for p in rank_counts]
    ok = all(c["exact"] and c["bounds"]["max_remote_ops_ok"]
             for c in cases)
    return {
        "ok": ok,
        "ranks_per_node": ranks_per_node,
        "rank_counts": rank_counts,
        "workloads": workloads,
        "cases": cases,
    }
