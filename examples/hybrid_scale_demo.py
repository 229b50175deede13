#!/usr/bin/env python3
"""Hybrid scale mode: full-fidelity parity, then a paper-scale run.

Three acts:

1. run the registry's ``fence_ring`` workload (``repro.workloads``)
   *full-fidelity* -- every rank a real DES process through the complete
   RMA stack (this part is what
   ``repro check`` instruments: the memory-model checker attaches to
   every simulated world the script builds);
2. run the *same* workload in scale mode -- the vectorized count
   model plus the paper's analytic clock -- and assert the per-kind
   message counts, bytes moved and max-per-rank metrics are EXACTLY
   equal -- the structural validation behind every paper-scale number;
3. rerun at 512Ki ranks, where no rank executes protocol code: every
   round of every collective is one numpy vector over all p ranks.

The scale-mode acts are exempt from race checking *by construction*,
not by a flag: the count model never executes a memory operation (each
protocol step is a vectorized count update), so there are no loads or
stores for a happens-before checker to order.  The engine's own gates
-- the closed-form message totals and the O(log p) per-rank bounds --
play the equivalent validation role, and acts 1+2 tie them back to the
fully-checked semantics at overlap sizes.

Run:  python examples/hybrid_scale_demo.py
"""

from repro.scale import format_ranks, run_hybrid
from repro.workloads import run_workload

OVERLAP_RANKS = 64
PAPER_RANKS = 512 * 1024
RANKS_PER_NODE = 32
WORKLOAD = "fence_ring"


def main():
    # Act 1: full fidelity (race-checked when run under `repro check`).
    full = run_workload(WORKLOAD, OVERLAP_RANKS,
                        ranks_per_node=RANKS_PER_NODE)
    print(f"full fidelity  @ {format_ranks(OVERLAP_RANKS):>6}: "
          f"{full.stats['messages']:>12,} msgs, "
          f"{full.sim_time_ns / 1e3:.1f} us simulated")

    # Act 2: hybrid at the same size -- counts must match exactly.
    hyb = run_hybrid(WORKLOAD, OVERLAP_RANKS, ranks_per_node=RANKS_PER_NODE)
    print(f"hybrid         @ {format_ranks(OVERLAP_RANKS):>6}: "
          f"{hyb.stats['messages']:>12,} msgs, "
          f"{hyb.sim_time_ns / 1e3:.1f} us (analytic clock)")
    # Under `repro check` the attached checker injects a "check" section
    # into the full-fidelity stats; the counts contract is everything else.
    full_counts = {k: v for k, v in full.stats.items() if k != "check"}
    assert hyb.stats == full_counts, (hyb.stats, full_counts)
    print("parity: hybrid counts identical to full fidelity "
          "(times are model-derived, counts are the contract).")

    # Act 3: paper scale.  512Ki ranks; the state is a few flat numpy
    # arrays, the run re-checks the closed-form total and the bounds.
    big = run_hybrid(WORKLOAD, PAPER_RANKS, ranks_per_node=RANKS_PER_NODE)
    print(f"hybrid         @ {format_ranks(PAPER_RANKS):>6}: "
          f"{big.stats['messages']:>12,} msgs, "
          f"{big.sim_time_ns / 1e3:.1f} us (analytic clock)")
    assert big.bounds["max_remote_ops_ok"], big.bounds
    print(f"O(log p) bound: max {big.bounds['max_remote_ops']} msgs/rank "
          f"(budget {big.bounds['max_remote_ops_budget']}) -- scalable.")
    print("OK: paper-scale run validated against full-fidelity semantics.")


if __name__ == "__main__":
    main()
