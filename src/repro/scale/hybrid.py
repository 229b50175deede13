"""The scale-mode engine: exact vectorized counts + the analytic clock.

``run_hybrid`` is the scale-mode counterpart of
:func:`repro.runtime.job.run_spmd`.  It

1. runs the vectorized protocol model
   (:func:`repro.scale.protocols.model_counts`) to produce the exact
   full-fidelity message counts for all p ranks;
2. checks them against what holds at every size: the message total
   must equal the paper's closed form
   (:func:`~repro.scale.protocols.closed_form_messages`) and the
   per-rank maxima must stay inside the O(log p) / O(1) budgets
   (:func:`~repro.scale.protocols.olog_violations`);
3. takes simulated time from the paper's performance models
   (:func:`~repro.scale.protocols.model_time_ns`) -- evaluated, not
   simulated: no rank runs on the DES here.

Any mismatch raises :class:`HybridParityError` -- the scale mode
refuses to return numbers its checks disagree with.  What ties the
counts to the real runtime is :mod:`repro.scale.parity`: dict equality
against ``run_spmd`` at every size both can execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scale import protocols
from repro.scale.protocols import WorkloadSpec
from repro.scale.soa import ScaleCounters, ScaleTopology

__all__ = ["HybridParityError", "HybridResult", "run_hybrid"]


class HybridParityError(AssertionError):
    """The count model broke a closed-form total or an O(log p) bound."""


@dataclass
class HybridResult:
    """Result of one scale-mode run: the scale twin of ``RunResult``.

    ``stats`` has the exact shape of a full-fidelity run's ``stats``
    (``OpCounters.snapshot()``), so parity against ``run_spmd`` is plain
    dict equality.  ``bounds`` carries the O(log p) structural bounds
    the run was checked against.
    """

    workload: str
    nranks: int
    ranks_per_node: int
    sim_time_ns: int
    stats: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)


def run_hybrid(workload: str | WorkloadSpec, nranks: int, *,
               ranks_per_node: int = 1) -> HybridResult:
    """Run one canonical workload in scale mode.

    ``workload`` is the :data:`repro.workloads.WORKLOADS` key of an
    entry with a hybrid twin, or an explicit :class:`WorkloadSpec`.
    ``nranks`` may be any size from 2 to millions; memory is O(p)
    machine words.
    """
    if isinstance(workload, WorkloadSpec):
        spec = workload
    else:
        # Resolved here, not at import: the registry imports this package.
        from repro.workloads import lookup

        twin = lookup(workload, scale=True).scale
        assert twin is not None
        spec = twin
    if nranks < 2:
        raise ValueError("hybrid ring workloads need at least 2 ranks")
    topo = ScaleTopology(nranks, ranks_per_node)
    counters = ScaleCounters(nranks)
    protocols.model_counts(spec, counters, topo)

    bounds = protocols.olog_bounds(spec, nranks, counters)
    violations = protocols.olog_violations(spec, nranks, bounds)
    total = protocols.closed_form_messages(spec, topo)
    if counters.messages != total:
        violations.append(f"count model issued {counters.messages} "
                          f"messages, the closed form gives {total}")
    if violations:
        raise HybridParityError(
            f"{spec.name}@p={nranks}: " + "; ".join(violations))

    return HybridResult(
        workload=spec.name,
        nranks=nranks,
        ranks_per_node=ranks_per_node,
        sim_time_ns=protocols.model_time_ns(spec, nranks),
        stats=counters.snapshot(),
        bounds=bounds,
    )
