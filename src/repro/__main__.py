"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``            run the quickstart program and print the results
``figure <id>``     run one figure (4a 4b 4c 5a 5b 5c 6a 6b 6c 7a 7b 7c 8),
                    print a table + ASCII chart: its first points, or
                    with ``--full`` ``benchmarks/results/fig<id>.txt``
``models``          print the paper's performance-model catalog
``calibrate``       fit the simulated put/get/atomics series against the
                    paper's measured functions and report errors
``trace <wl>``      run a registry workload under observability and
                    write a Chrome trace-event JSON file (open in
                    Perfetto / chrome://tracing)
``report [wl]``     run a registry workload and print the plain-text run
                    report (span aggregates, counters, histograms, links)
``check <wl>``      run a registry workload (or a ``.py`` example script)
                    under the memory-model checker and report every RMA
                    semantics violation (exit code 1 when violations are
                    found)
``scale <action>``  hybrid million-rank scale mode: ``parity`` diffs
                    hybrid vs full-fidelity message counts exactly at
                    overlapping sizes (exit 1 on any mismatch),
                    ``smoke`` runs every workload hybrid at paper scale
                    (``--ranks 512Ki``) under a wall-clock budget,
                    ``run`` runs one workload and prints its stats
``serve kvstore``   serve a seeded Zipfian open-loop workload against the
                    RMA KV store (or the ``--variant mpi1`` comparator)
                    and print the deterministic tail-latency report;
                    ``--slo-p99-us`` gates the exact p99 (exit 1 on
                    violation); ``--ft --crash R`` crashes rank R
                    mid-serve, recovers, verifies the final store state
                    bit-for-bit and reports the availability gap and
                    post-recovery p99
``ft <wl>``         crash-to-completion experiment: run the FT workload
                    (``hashtable``) fault-free, crash ``--crash-rank`` at
                    ``--crash-frac`` of the reference run, recover, and
                    compare final states bit-for-bit; ``ft soak`` sweeps
                    ``--runs`` seeded randomized crash schedules over
                    the crash-recoverable registry entries (exit code 1
                    on any mismatch)

Workload names are the keys of ``repro.workloads.WORKLOADS``; each
verb's ``--help`` lists the ones it accepts.
"""

from __future__ import annotations

import argparse

from repro.bench import format_series_table
from repro.bench.report import ascii_chart
from repro.config import SimConfig
from repro.workloads import lookup, names, run_workload

_NAMES = ", ".join(names())
_SCALE_NAMES = ",".join(names(scale=True))


def _refused(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; the ``ValueError`` it raises on a bad
    argument (an unknown workload name, a bad rank count), before anything
    is simulated, is a one-line exit as ``repro figure 99`` is."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _rank_counts(text: str) -> list[int]:
    """``--ranks`` of ``repro scale`` and ``figure --hybrid``: a count that
    does not parse, or is below the ring workloads' two ranks, is a
    one-line exit too."""
    from repro.scale.units import parse_ranks_list

    try:
        ranks = parse_ranks_list(text)
    except ValueError as exc:
        raise SystemExit(f"--ranks: {exc}") from None
    if min(ranks) < 2:
        raise SystemExit(
            f"--ranks {text}: the ring workloads need at least 2 ranks")
    return ranks


def _crash_run(name: str, nranks: int, **kwargs):
    """``run_crash_to_completion`` for ``repro ft`` and ``serve --ft``: a
    crash rank, crash fraction or interval it refuses is a one-line exit
    (it refuses them before the reference run)."""
    from repro.ft.workloads import run_crash_to_completion

    return _refused(run_crash_to_completion, name, nranks, **kwargs)


def _run(args, **kwargs):
    """``run_workload`` on a verb's ``workload`` / ``--ranks`` / ``--seed``."""
    return _refused(run_workload, args.workload, nranks=args.ranks,
                    seed=args.seed, **kwargs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("demo")
    f = sub.add_parser("figure")
    f.add_argument("id")
    f.add_argument("--full", action="store_true",
                   help="the whole sweep, not its first points (slower)")
    f.add_argument("--hybrid", action="store_true",
                   help="extend the figure to paper scale with the "
                        "hybrid engine (figures 7a and 8)")
    f.add_argument("--ranks", default=None,
                   help="comma-separated rank counts for --hybrid "
                        "(binary units OK: 512,4Ki,512Ki,1Mi)")
    f.add_argument("--trace", metavar="PATH", default=None,
                   help="re-run the figure under observability and write "
                        "a Chrome trace of its slowest simulated point")
    sub.add_parser("models")
    sub.add_parser("calibrate")
    t = sub.add_parser("trace")
    t.add_argument("workload", help=f"one of {_NAMES}")
    t.add_argument("--ranks", type=int, default=4)
    t.add_argument("--seed", type=int, default=SimConfig.seed)
    t.add_argument("--out", default=None,
                   help="output path (default trace_<workload>.json)")
    r = sub.add_parser("report")
    r.add_argument("workload", nargs="?", default="putget",
                   help=f"one of {_NAMES} (default putget)")
    r.add_argument("--ranks", type=int, default=4)
    r.add_argument("--seed", type=int, default=SimConfig.seed)
    c = sub.add_parser("check")
    c.add_argument("workload",
                   help=f"one of {_NAMES}, or path to a .py script to "
                        "run under check_capture()")
    c.add_argument("--ranks", type=int, default=4)
    c.add_argument("--seed", type=int, default=SimConfig.seed)
    c.add_argument("--rpn", type=int, default=1,
                   help="ranks per node (default 1)")
    sc = sub.add_parser("scale")
    sc.add_argument("action", choices=("parity", "smoke", "run"),
                    help="parity: hybrid vs full-fidelity exact message "
                         "counts; smoke: paper-scale hybrid run under a "
                         "wall budget; run: one hybrid run, print stats")
    sc.add_argument("--ranks", default=None,
                    help="rank count(s); comma-separated for parity "
                         "(binary units OK: 256,1Ki,4Ki or 512Ki)")
    sc.add_argument("--rpn", type=int, default=32,
                    help="ranks per node (default 32, as in the paper)")
    sc.add_argument("--workloads", default=None,
                    help=f"comma-separated subset of {_SCALE_NAMES} "
                         "(default: all)")
    sc.add_argument("--workload", default="fence_ring",
                    help="workload for 'run' (default fence_ring)")
    sc.add_argument("--budget-s", type=float, default=None,
                    help="hard wall-clock budget for 'smoke' (exit 1 if "
                         "exceeded)")
    sc.add_argument("--out", metavar="PATH", default=None,
                    help="write the JSON report (parity table / smoke "
                         "rows)")
    sv = sub.add_parser("serve")
    sv.add_argument("workload", nargs="?", default="kvstore",
                    help="only 'kvstore' for now")
    sv.add_argument("--ranks", type=int, default=8)
    sv.add_argument("--requests", type=int, default=4000,
                    help="total requests across all clients")
    sv.add_argument("--nkeys", type=int, default=512)
    sv.add_argument("--skew", type=float, default=0.99,
                    help="Zipf theta (0 = uniform)")
    sv.add_argument("--rate", type=float, default=2e5,
                    help="per-client open-loop arrival rate [req/s]")
    sv.add_argument("--get-frac", type=float, default=0.8)
    sv.add_argument("--update-frac", type=float, default=0.1)
    sv.add_argument("--seed", type=int, default=SimConfig.seed)
    sv.add_argument("--rpn", type=int, default=8,
                    help="ranks per node (fault-free runs; --ft always "
                         "places one rank per node)")
    sv.add_argument("--stripes", type=int, default=8,
                    help="MCS lock stripes guarding inserts (the data "
                         "plane takes no lock)")
    sv.add_argument("--variant", choices=("rma", "mpi1"), default="rma")
    sv.add_argument("--check", action="store_true",
                    help="also attach the memory-model checker (exit 1 "
                         "on violations)")
    sv.add_argument("--ft", action="store_true",
                    help="crash-through serving over rollback recovery")
    sv.add_argument("--crash", type=int, default=1, metavar="RANK")
    sv.add_argument("--crash-frac", type=float, default=0.5)
    sv.add_argument("--interval", type=int, default=16,
                    help="checkpoint every N requests (--ft)")
    sv.add_argument("--slo-p99-us", type=float, default=None,
                    help="fail (exit 1) if exact p99 exceeds this")
    sv.add_argument("--slo-gap-us", type=float, default=None,
                    help="fail (exit 1) if the availability gap "
                         "exceeds this (--ft)")
    sv.add_argument("--out", metavar="PATH", default=None,
                    help="write the JSON report")
    ft = sub.add_parser("ft")
    ft.add_argument("workload", nargs="?", default="hashtable",
                    help="'hashtable' (single crash-to-completion "
                         "experiment) or 'soak' (seeded randomized sweep "
                         "over ft_hashtable and ft_kvstore)")
    ft.add_argument("--ranks", type=int, default=4)
    ft.add_argument("--inserts", type=int, default=4,
                    help="inserts per rank (hashtable)")
    ft.add_argument("--seed", type=int, default=SimConfig.seed)
    ft.add_argument("--crash-rank", type=int, default=1)
    ft.add_argument("--crash-frac", type=float, default=0.5,
                    help="crash time as a fraction of the fault-free "
                         "run's length")
    ft.add_argument("--mode", choices=("spare", "shrink"), default="spare")
    ft.add_argument("--interval", type=int, default=2,
                    help="checkpoint every N inserts")
    ft.add_argument("--runs", type=int, default=5,
                    help="number of soak runs (soak workload only)")
    ft.add_argument("--stats-out", metavar="PATH", default=None,
                    help="write per-run recovery stats as JSON")
    args = ap.parse_args(argv)

    if args.cmd == "demo":
        import numpy as np

        from repro import run_spmd
        from repro.config import MachineConfig
        from repro.rma.enums import Op

        def program(ctx):
            win = yield from ctx.rma.win_allocate(4096, disp_unit=8)
            yield from win.fence()
            yield from win.put(np.array([100 + ctx.rank], np.int64),
                               (ctx.rank + 1) % ctx.nranks, 0)
            yield from win.fence(no_succeed=True)
            yield from win.lock_all()
            old = yield from win.fetch_and_op(np.int64(1), 0, 1, Op.SUM)
            yield from win.unlock_all()
            yield from ctx.coll.barrier()
            return int(win.local_view(np.int64)[0]), int(old)

        res = run_spmd(program, 4, machine=MachineConfig(ranks_per_node=1))
        print(f"simulated {res.sim_time_ns / 1e3:.1f} us, "
              f"{res.events_processed} events")
        for rank, (received, ticket) in enumerate(res.returns):
            print(f"rank {rank}: received {received}, atomic ticket {ticket}")
    elif args.cmd == "figure":
        if args.hybrid:
            from repro.scale.figures import HYBRID_FIGURES

            ranks = _rank_counts(args.ranks) if args.ranks else None
            if args.id not in HYBRID_FIGURES:
                raise SystemExit(
                    f"--hybrid supports figures 7a and 8, not {args.id!r}")
            title, hybrid_series = HYBRID_FIGURES[args.id]
            series = hybrid_series(ranks)
            print(format_series_table(title, "p", series))
            print()
            print(ascii_chart(title, series))
            return 0
        from repro.bench.figures import FIGURES, figure_series

        fig = FIGURES.get(args.id)
        if fig is None:
            raise SystemExit(f"unknown figure {args.id!r} "
                             f"(have {' '.join(FIGURES)})")
        series = figure_series(args.id, full=args.full)
        print(format_series_table(fig.title, fig.x_label, series))
        print()
        print(ascii_chart(fig.title, series))
        if args.trace:
            from repro.bench.harness import slowest_point, trace_point

            worst = slowest_point(series)
            # Serial: a pool worker's simulation would not be captured.
            path = trace_point(
                lambda: figure_series(args.id, full=args.full, workers=1),
                args.trace, label=f"figure {args.id}")
            if worst is not None:
                print(f"slowest point: {worst[0]} at x={worst[1]} "
                      f"(y={worst[2]:.3g})")
            print(f"wrote {path} (load it in https://ui.perfetto.dev)")
    elif args.cmd == "models":
        from repro.models.params_fompi import PAPER_MODELS

        for name, m in sorted(PAPER_MODELS.items()):
            print(f"{name:12s} {m.name:14s} {m.domain_str()}")
    elif args.cmd == "calibrate":
        from repro.bench import microbench as mb
        from repro.models.fitting import fit_affine, relative_error
        from repro.models.params_fompi import PAPER_MODELS

        sizes = [8, 512, 8192, 65536]
        for name, fn in (("put", mb.put_latency), ("get", mb.get_latency)):
            base = PAPER_MODELS[name].base_ns
            slope = PAPER_MODELS[name].per_byte_ns
            a, b = fit_affine(sizes, [fn("fompi", s) for s in sizes])
            print(f"{name}: measured {b:.3f} ns/B + {a / 1e3:.2f} us  "
                  f"(paper {slope} ns/B + {base / 1e3:.2f} us; "
                  f"err {100 * relative_error(a, base):.1f}% / "
                  f"{100 * relative_error(b, slope):.1f}%)")
    elif args.cmd == "trace":
        from repro.obs import write_chrome_trace

        res = _run(args, obs=True)
        path = args.out or f"trace_{args.workload}.json"
        write_chrome_trace(path, res.obs, label=args.workload)
        print(f"simulated {res.sim_time_ns / 1e3:.1f} us, "
              f"{res.events_processed} events, {len(res.obs.spans)} spans")
        print(f"wrote {path} (load it in https://ui.perfetto.dev)")
    elif args.cmd == "report":
        from repro.obs import render_report

        res = _run(args, obs=True)
        print(render_report(
            res.obs, title=f"{args.workload} ({args.ranks} ranks)",
            sim_time_ns=res.sim_time_ns,
            events_processed=res.events_processed))
    elif args.cmd == "check":
        return _check_cmd(args)
    elif args.cmd == "scale":
        return _scale_cmd(args)
    elif args.cmd == "serve":
        return _serve_cmd(args)
    elif args.cmd == "ft":
        return _ft_cmd(args)
    return 0


def _scale_cmd(args) -> int:
    """``repro scale``: parity gate, paper-scale smoke, or a single
    hybrid run.  Exit code 1 iff the gate / budget fails."""
    import json
    import time

    from repro.scale import format_ranks, run_hybrid
    from repro.scale.parity import parity_table

    workloads = (args.workloads or _SCALE_NAMES).split(",")
    for w in [*workloads, args.workload]:
        _refused(lookup, w, scale=True)
    ranks = _rank_counts(args.ranks or {"parity": "64,256,1Ki",
                                        "smoke": "512Ki",
                                        "run": "4Ki"}[args.action])
    if args.action != "parity" and len(ranks) != 1:
        raise SystemExit(
            f"--ranks {args.ranks}: 'scale {args.action}' takes one count")
    if args.rpn < 1:
        raise SystemExit(f"--rpn {args.rpn}: ranks per node must be >= 1")
    nranks = ranks[0]

    if args.action == "parity":
        table = parity_table(ranks, ranks_per_node=args.rpn,
                             workloads=workloads)
        for case in table["cases"]:
            verdict = "exact" if case["exact"] else "MISMATCH"
            print(f"{case['workload']:10s} p={case['ranks']:>6s} "
                  f"rpn={args.rpn:<3d} msgs={case['messages']:>12,d} "
                  f"{verdict}")
            if not case["exact"]:
                print(f"  diff: {json.dumps(case['diff'])}")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(table, fh, indent=1)
            print(f"wrote {args.out}")
        print("parity " + ("OK: hybrid reproduces full-fidelity message "
                           "counts exactly" if table["ok"] else "FAILED"))
        return 0 if table["ok"] else 1

    if args.action == "smoke":
        rows = []
        t0 = time.perf_counter()
        for w in workloads:
            tw = time.perf_counter()
            res = run_hybrid(w, nranks, ranks_per_node=args.rpn)
            wall = time.perf_counter() - tw
            rows.append({
                "workload": w, "nranks": nranks,
                "ranks": format_ranks(nranks),
                "wall_s": round(wall, 3),
                "ranks_per_sec": round(nranks / wall),
                "messages": res.stats["messages"],
                "sim_time_ns": res.sim_time_ns,
                "bounds": res.bounds,
            })
            print(f"{w:10s} p={format_ranks(nranks):>6s} "
                  f"msgs={res.stats['messages']:>14,d} "
                  f"wall={wall:6.2f}s "
                  f"({nranks / wall:,.0f} ranks/s)")
        total = time.perf_counter() - t0
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"nranks": nranks, "ranks_per_node": args.rpn,
                           "total_wall_s": round(total, 3),
                           "rows": rows}, fh, indent=1)
            print(f"wrote {args.out}")
        print(f"total wall {total:.2f}s"
              + (f" (budget {args.budget_s:.0f}s)" if args.budget_s else ""))
        if args.budget_s is not None and total > args.budget_s:
            print(f"smoke FAILED: {total:.2f}s exceeds the "
                  f"{args.budget_s:.0f}s budget")
            return 1
        return 0

    # action == "run"
    res = run_hybrid(args.workload, nranks, ranks_per_node=args.rpn)
    print(f"{args.workload} p={format_ranks(nranks)} rpn={args.rpn}: "
          f"simulated {res.sim_time_ns / 1e3:.1f} us (analytic clock)")
    print(json.dumps(res.stats, indent=1))
    return 0


def _serve_cmd(args) -> int:
    """``repro serve``: open-loop KV serving with a deterministic
    tail-latency report.  Exit code 1 iff an SLO gate fails, the FT
    final state mismatches, or the checker finds a violation."""
    import json

    from repro.serve.slo import build_report, render_report
    from repro.serve.zipf import ServeSpec

    if args.workload != "kvstore":
        raise SystemExit(f"unknown serve workload {args.workload!r} "
                         "(expected 'kvstore')")
    if args.requests < 1:
        raise SystemExit(f"--requests {args.requests}: an SLO over no "
                         "requests tests nothing")
    nranks = args.ranks
    spec = _refused(ServeSpec, nkeys=args.nkeys, theta=args.skew,
                    get_frac=args.get_frac, update_frac=args.update_frac,
                    total_requests=args.requests, rate_hz=args.rate,
                    seed=args.seed, ft_mode=args.ft)
    failures = []

    if args.ft:
        from repro.serve.slo import ft_section

        out = _crash_run("ft_kvstore", nranks, seed=args.seed,
                         crash_rank=args.crash, crash_frac=args.crash_frac,
                         interval=args.interval, obs=True, spec=spec,
                         n_stripes=args.stripes)
        report = build_report(out.recovered, spec, nranks, variant="rma-ft")
        report["ft"] = ft_section(out)
        gap_ns = report["ft"]["availability_gap_ns"]
        if not out.match:
            failures.append("final store state MISMATCHES the "
                            "fault-free run")
        if args.slo_gap_us is not None and gap_ns > args.slo_gap_us * 1e3:
            failures.append(
                f"availability gap {gap_ns / 1e3:.2f} us "
                f"exceeds the {args.slo_gap_us:.2f} us SLO")
    else:
        from repro.serve.driver import run_kv_serve

        res = _refused(run_kv_serve, nranks, spec, variant=args.variant,
                       n_stripes=args.stripes, ranks_per_node=args.rpn,
                       check=args.check)
        report = build_report(res, spec, nranks, variant=args.variant)
        if args.check:
            from repro.check.report import render_check_report

            print(render_check_report(res.check,
                                      f"serve kvstore ({nranks} ranks)"))
            print()
            if not res.check.clean:
                failures.append("memory-model checker found violations")

    print(render_report(report))
    p99_us = report["latency_ns"]["p99"] / 1e3
    if args.slo_p99_us is not None and p99_us > args.slo_p99_us:
        failures.append(f"p99 {p99_us:.2f} us exceeds the "
                        f"{args.slo_p99_us:.2f} us SLO")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    for msg in failures:
        print(f"SLO FAILED: {msg}")
    return 1 if failures else 0


def _ft_cmd(args) -> int:
    """``repro ft``: crash-to-completion experiments over the rollback-
    recovery layer.  Exit code 1 iff any final state mismatched."""
    import json

    from repro.ft.workloads import soak

    if args.workload == "soak":
        if args.runs < 1:
            raise SystemExit(f"--runs {args.runs}: a soak of no runs "
                             "recovers nothing")
        rows = soak(args.runs, nranks=args.ranks, base_seed=args.seed)
        for r in rows:
            print(f"run {r['run']}: seed={r['seed']} {r['workload']:12s} "
                  f"crash_rank={r['crash_rank']} mode={r['mode']:6s} "
                  f"t_crash={r['crash_time_ns']}ns "
                  f"restored={r['ranks_restored']} "
                  f"{'MATCH' if r['match'] else 'MISMATCH'}")
        ok = all(r["match"] for r in rows)
        if args.stats_out:
            with open(args.stats_out, "w") as fh:
                json.dump(rows, fh, indent=2, default=str)
            print(f"wrote {args.stats_out}")
        print(f"{sum(r['match'] for r in rows)}/{len(rows)} runs "
              f"recovered to the fault-free state")
        return 0 if ok else 1
    if args.workload != "hashtable":
        raise SystemExit(f"unknown ft workload {args.workload!r} "
                         "(expected 'hashtable' or 'soak')")
    if args.inserts < 1:
        raise SystemExit(f"--inserts {args.inserts}: the crash needs at "
                         "least one insert per rank to interrupt")
    out = _crash_run("ft_hashtable", args.ranks, seed=args.seed,
                     crash_rank=args.crash_rank, crash_frac=args.crash_frac,
                     mode=args.mode, interval=args.interval,
                     inserts=args.inserts)
    row = out.stats_row()
    print(f"reference run: {out.reference.sim_time_ns / 1e3:.1f} us "
          f"fault-free")
    print(f"crashed rank {out.crash_rank} at {out.crash_time_ns} ns "
          f"({args.crash_frac:.0%} of reference), mode={out.mode}")
    print(f"recovered run: {out.recovered.sim_time_ns / 1e3:.1f} us, "
          f"{row['ranks_restored']} rank(s) restored")
    ftstats = row.get("ft") or {}
    if ftstats:
        print("ft stats: " + ", ".join(f"{k}={v}"
                                       for k, v in sorted(ftstats.items())))
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(row, fh, indent=2, default=str)
        print(f"wrote {args.stats_out}")
    print("final state: "
          + ("bit-identical to fault-free run"
             if out.match else "MISMATCH vs fault-free run"))
    return 0 if out.match else 1


def _check_cmd(args) -> int:
    """``repro check``: named workload or example script.  Exit code 1
    iff any violation was found."""
    from repro.check.report import render_check_report

    if args.workload.endswith(".py"):
        # Run an arbitrary script (e.g. examples/*.py); every world it
        # builds gets a checker via the capture block.
        import runpy

        from repro.check.core import check_capture

        with check_capture() as checkers:
            runpy.run_path(args.workload, run_name="__main__")
        if not checkers:
            print(f"{args.workload}: no simulated runs captured")
            return 0
        dirty = False
        for i, ck in enumerate(checkers):
            title = f"{args.workload} run {i}" if len(checkers) > 1 \
                else args.workload
            print(render_check_report(ck, title))
            dirty |= not ck.clean
        return 1 if dirty else 0

    res = _run(args, ranks_per_node=args.rpn, check=True)
    print(render_check_report(
        res.check, f"{args.workload} ({args.ranks} ranks, "
                   f"{res.sim_time_ns / 1e3:.1f} us simulated)"))
    return 0 if res.check.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
