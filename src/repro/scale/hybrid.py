"""The hybrid execution engine: sampled DES ranks + vectorized aggregates.

``run_hybrid`` is the scale-mode counterpart of
:func:`repro.runtime.job.run_spmd`.  It

1. draws a seeded, deterministic sample of ranks
   (:func:`repro.sim.random.stream` on the master seed -- same seed,
   same sample, bit-identical results);
2. builds the :class:`~repro.scale.soa.AggregateSoA` for *all* p ranks
   and pre-applies the aggregate tier's state effects vectorized;
3. runs the vectorized protocol model
   (:func:`repro.scale.protocols.model_counts`) to produce the exact
   full-fidelity message counts for all p ranks, recording per-rank
   expectations for the sample;
4. runs one real DES (:class:`repro.sim.kernel.Environment`) hosting a
   protocol-faithful generator process per sampled rank, each charging
   the paper's calibrated cost models and mutating the shared SoA;
5. cross-checks the two tiers: every sampled rank's issued message
   counts must equal the vectorized model's expectation *exactly*, the
   DES clock must land on the analytic completion time, and the
   end-of-run SoA invariants and O(log p) bounds must hold.

Any mismatch raises :class:`HybridParityError` -- the hybrid mode
refuses to return numbers its two tiers disagree on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ObsConfig, ScaleConfig, SimConfig
from repro.scale import protocols
from repro.scale.protocols import SampledRank, WorkloadSpec
from repro.scale.soa import AggregateSoA, ScaleCounters, ScaleTopology
from repro.sim.kernel import Environment
from repro.sim.random import stream

__all__ = ["HybridParityError", "HybridResult", "run_hybrid",
           "sample_ranks"]


class HybridParityError(AssertionError):
    """The sampled-DES tier and the vectorized tier disagreed."""


@dataclass
class HybridResult:
    """Result of one hybrid run: the scale twin of ``RunResult``.

    ``stats`` has the exact shape of a full-fidelity run's ``stats``
    (``OpCounters.snapshot()``), so parity against ``run_spmd`` is plain
    dict equality.  ``bounds`` carries the O(log p) structural bounds
    the run was checked against, ``sample`` the sampled rank ids,
    ``soa_nbytes`` the aggregate-state footprint (the O(p)-words memory
    claim, asserted by the 1Mi smoke test).
    """

    workload: str
    nranks: int
    ranks_per_node: int
    sample: tuple[int, ...]
    sim_time_ns: int
    events_processed: int
    stats: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    soa_nbytes: int = 0
    obs: object | None = None

    @property
    def sample_fraction(self) -> float:
        return len(self.sample) / self.nranks


def sample_ranks(nranks: int, scale: ScaleConfig, seed: int) -> np.ndarray:
    """Deterministic seeded rank sample (sorted, unique).

    Rank 0 is always sampled (it is special: collective root, lock
    master), the rest are drawn without replacement from the master
    seed's ``"scale-sample"`` stream -- independent of every other
    consumer of the seed, stable across runs.
    """
    count = scale.sample_count(nranks)
    if count >= nranks:
        return np.arange(nranks, dtype=np.int64)
    rng = stream(seed, "scale-sample")
    rest = 1 + rng.choice(nranks - 1, size=count - 1, replace=False)
    picked = np.concatenate(([0], rest)).astype(np.int64)
    picked.sort()
    return picked


def _check_tier_parity(spec: WorkloadSpec, counters: ScaleCounters,
                       contexts: list[SampledRank]) -> None:
    """Issued-vs-expected per sampled rank, per kind -- exact."""
    for ctx in contexts:
        expected = counters.expected[ctx.rank]
        if ctx.issued != expected:
            missing = {k: v for k, v in expected.items()
                       if ctx.issued.get(k) != v}
            extra = {k: v for k, v in ctx.issued.items()
                     if expected.get(k) != v}
            raise HybridParityError(
                f"{spec.name}: sampled rank {ctx.rank} issued counts "
                f"diverge from the vectorized model; expected {missing}, "
                f"issued {extra}")


def run_hybrid(workload: str | WorkloadSpec, nranks: int, *,
               ranks_per_node: int = 1,
               scale: ScaleConfig | None = None,
               sim: SimConfig | None = None,
               obs: ObsConfig | None = None) -> HybridResult:
    """Run one canonical workload in hybrid scale mode.

    ``workload`` is the :data:`repro.workloads.WORKLOADS` key of an
    entry with a hybrid twin, or an explicit :class:`WorkloadSpec`.
    ``nranks`` may be any size from 2 to millions; memory is O(p)
    machine words plus O(samples) Python objects.
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
    scale = scale or ScaleConfig(enabled=True)
    sim = sim or SimConfig()
    obs_cfg = obs or ObsConfig()

    topo = ScaleTopology(nranks, ranks_per_node)
    sample = sample_ranks(nranks, scale, sim.seed)
    sampled_mask = np.zeros(nranks, dtype=bool)
    sampled_mask[sample] = True

    # Tier 1: vectorized protocol model -> exact counts for all p ranks.
    counters = ScaleCounters(nranks, tuple(int(r) for r in sample))
    protocols.model_counts(spec, counters, topo)

    # Tier 2: aggregate state effects, applied vectorized.
    soa = AggregateSoA(topo)
    protocols.preapply_aggregates(spec, soa, sampled_mask)

    # Tier 3: sampled ranks as real DES processes over the shared SoA.
    env = Environment(max_events=sim.max_events,
                      watchdog_interval=sim.watchdog_interval,
                      watchdog_stalls=sim.watchdog_stalls)
    instrumentation = None
    if obs_cfg.enabled:
        from repro.obs.core import Instrumentation
        instrumentation = Instrumentation(nranks,
                                          max_spans=obs_cfg.max_spans,
                                          nic_marks=False)
        instrumentation.meta.update(
            mode="hybrid", workload=spec.name, nranks=nranks,
            sampled=len(sample))
    contexts = [SampledRank(env, soa, int(r)) for r in sample]
    for ctx in contexts:
        env.process(protocols.sampled_program(spec, ctx),
                    name=f"scale-rank{ctx.rank}")
    env.run()

    # Tier parity: the DES must land exactly where the model says.
    expected_t = protocols.model_time_ns(spec, nranks)
    if env.now != expected_t:
        raise HybridParityError(
            f"{spec.name}@p={nranks}: DES clock {env.now} ns != analytic "
            f"completion time {expected_t} ns")
    _check_tier_parity(spec, counters, contexts)
    protocols.release_aggregates(spec, soa, sampled_mask)
    violations = protocols.check_invariants(spec, soa)
    violations += protocols.olog_violations(spec, nranks, counters)
    if violations:
        raise HybridParityError(
            f"{spec.name}@p={nranks}: " + "; ".join(violations))

    if instrumentation is not None:
        t = 0
        for phase, dur in protocols.phase_times_ns(spec, nranks):
            for ctx in contexts:
                instrumentation.rank_span(ctx.rank, f"scale.{phase}",
                                          t, t + dur, cat="scale")
            instrumentation.metrics.count(f"scale.{phase}", 0)
            t += dur
        instrumentation.metrics.gauge("scale.sampled_ranks", 0, len(sample))
        instrumentation.metrics.gauge("scale.soa_bytes", 0, soa.nbytes)

    return HybridResult(
        workload=spec.name,
        nranks=nranks,
        ranks_per_node=ranks_per_node,
        sample=tuple(int(r) for r in sample),
        sim_time_ns=env.now,
        events_processed=env.events_processed,
        stats=counters.snapshot(),
        bounds=protocols.olog_bounds(spec, nranks, counters),
        soa_nbytes=soa.nbytes,
        obs=instrumentation,
    )
