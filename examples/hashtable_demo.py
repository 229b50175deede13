#!/usr/bin/env python3
"""Distributed hashtable (paper Section 4.1) across three transports.

Inserts random keys into a distributed hashtable with the paper's three
implementations (MPI-3 RMA / UPC atomics / MPI-1 active messages),
verifies every key landed exactly once, and prints the aggregate insert
rates -- a miniature Figure 7a.

Run:  python examples/hashtable_demo.py

Crash-and-recover mode (the rollback-recovery layer, docs/FAULT_TOLERANCE.md):

    python examples/hashtable_demo.py --ft --crash-rank 2
    python examples/hashtable_demo.py --ft --crash-rank 0 --ft-mode shrink

runs the FT variant of the RMA hashtable fault-free, crashes one rank
mid-run, restores it from its buddy-replicated checkpoint + put-log, and
checks the recovered final table is bit-identical to the fault-free one
(exit code 1 if not).
"""

import argparse
import sys

from repro import run_spmd
from repro.apps.hashtable import (
    HashTableLayout,
    mpi1_insert_program,
    rma_insert_program,
    upc_insert_program,
    verify_contents,
)
from repro.bench.harness import format_table
from repro.config import MachineConfig

VARIANTS = {"fompi (MPI-3 RMA)": rma_insert_program,
            "cray-upc": upc_insert_program,
            "mpi-1 active msg": mpi1_insert_program}


def main_ft(args) -> int:
    from repro.ft.workloads import run_crash_to_completion

    out = run_crash_to_completion(
        "ft_hashtable", args.ranks, inserts=args.inserts,
        crash_rank=args.crash_rank, crash_frac=args.crash_frac,
        mode=args.ft_mode)
    row = out.stats_row()
    print(f"fault-free reference: {out.reference.sim_time_ns / 1e3:.1f} us")
    print(f"crashed rank {out.crash_rank} at {out.crash_time_ns} ns; "
          f"recovered ({out.mode}) in {out.recovered.sim_time_ns / 1e3:.1f} "
          f"us with {row['ranks_restored']} rank(s) restored")
    if not out.match:
        print("FAILED: recovered table differs from fault-free run")
        return 1
    print("recovered table is bit-identical to the fault-free run")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ft", action="store_true",
                    help="crash-and-recover demo instead of the "
                         "three-transport rate table")
    ap.add_argument("--crash-rank", type=int, default=1)
    ap.add_argument("--crash-frac", type=float, default=0.5)
    ap.add_argument("--ft-mode", choices=("spare", "shrink"),
                    default="spare")
    ap.add_argument("--ranks", type=int, default=4)
    ap.add_argument("--inserts", type=int, default=4)
    # parse_known_args: the test harness runs this file via runpy with
    # its own argv; stray flags must not abort the demo.
    args, _ = ap.parse_known_args()
    if args.ft:
        sys.exit(main_ft(args))
    p, inserts = 16, 48
    layout = HashTableLayout(table_slots=32, heap_cells=1024)
    machine = MachineConfig(ranks_per_node=4)
    rows = []
    for name, prog in VARIANTS.items():
        box = {}
        res = run_spmd(prog, p, layout, inserts, box, machine=machine)
        verify_contents(layout,
                        [box["volumes"][r] for r in range(p)],
                        [box["keys"][r] for r in range(p)])
        worst_ns = max(res.returns)
        rate = p * inserts / (worst_ns / 1e9)
        rows.append([name, round(worst_ns / 1e3, 1), round(rate / 1e6, 2)])
    print(format_table(
        f"Hashtable: {p} ranks x {inserts} inserts (all keys verified)",
        ["transport", "time [us]", "aggregate [M inserts/s]"], rows))


if __name__ == "__main__":
    main()
