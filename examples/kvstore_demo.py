#!/usr/bin/env python3
"""Open-loop KV serving demo (docs/SERVING.md).

Serves a small seeded Zipfian workload against the RMA-backed KV store
(repro.apps.kvstore: lock-free atomic-read gets and CAS writes), prints
the deterministic tail-latency report, and cross-checks the final store
contents against the schedule-replay model -- the "serving traffic"
quickstart from the README.

Run:  python examples/kvstore_demo.py

The run is fault-free and checker-clean: the CI memory-model job sweeps
this script under ``repro check`` and requires zero violations.
"""

import argparse

from repro.serve.driver import (expected_contents, merged_contents,
                                run_kv_serve)
from repro.serve.slo import build_report, render_report
from repro.serve.zipf import ServeSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ranks", type=int, default=4)
    ap.add_argument("--requests", type=int, default=600)
    ap.add_argument("--nkeys", type=int, default=64)
    ap.add_argument("--skew", type=float, default=0.99)
    ap.add_argument("--seed", type=int, default=7)
    # parse_known_args: the test harness runs this file via runpy with
    # its own argv; stray flags must not abort the demo.
    args, _ = ap.parse_known_args()

    spec = ServeSpec(nkeys=args.nkeys, theta=args.skew,
                     total_requests=args.requests, seed=args.seed)
    res = run_kv_serve(args.ranks, spec)
    print(render_report(build_report(res, spec, args.ranks)))

    keys, determined = expected_contents(spec, args.ranks)
    final = merged_contents(res)
    # Exit nonzero only on failure: the CI checker job runs this file
    # via runpy, and a clean pass must fall through so the captured
    # worlds get their race report rendered.
    if set(final) != keys:
        raise SystemExit("FAILED: final key set differs from the "
                         "replay model")
    bad = [k for k, v in determined.items() if final[k] != v]
    if bad:
        raise SystemExit(f"FAILED: {len(bad)} deterministic value(s) "
                         f"differ from the replay model")
    print(f"final store verified: {len(keys)} keys, "
          f"{len(determined)} model-determined values match")


if __name__ == "__main__":
    main()
