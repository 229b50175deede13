"""The benchmark's metric names, units, directions and bounds.

``BENCHMARK.json`` records the same table; ``test_perfbench.py`` checks
that the two agree and that a run prints exactly these names.  What each
metric means is written down in ``README.md``.
"""

from __future__ import annotations

from perfbench.layers import LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "UNITS", "HOST_CLOCK"]

# (name, unit, better, bound) -- bound: share of the parent's median by
# which the metric may get worse before a change counts as a regression.
END_TO_END = (
    ("host_wall_s", "s", "lower", 0.25),
    ("host_ops_per_s", "1/s", "higher", 0.25),
    ("host_events_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("sim_ops_per_s", "1/s", "higher", 0.20),
    ("sim_p50_us", "us", "lower", 0.25),
    ("sim_p95_us", "us", "lower", 0.25),
    ("sim_makespan_us", "us", "lower", 0.20),
)

#: End-to-end metrics read from this machine's clock; all others are a
#: pure function of the seed.
HOST_CLOCK = ("host_wall_s", "host_ops_per_s", "host_events_per_s",
              "peak_rss_mb", "setup_s")

# (name, unit, better)
PER_LAYER = tuple(
    [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    + [(f"{layer}.pycalls_per_op", "count", "lower") for layer in LAYERS]
    + [
        # host clock, untraced repetitions of the traced invocation
        ("sim.events_per_op", "count", "lower"),
        ("sim.host_us_per_event", "us", "lower"),
        ("runtime.world_build_s", "s", "lower"),
        # host clock, instrument on / instrument off
        ("obs.host_overhead_ratio", "ratio", "lower"),
        ("check.host_overhead_ratio", "ratio", "lower"),
        ("trace.host_overhead_ratio", "ratio", "lower"),
        # counts per application operation (simulated half)
        ("rma.calls_per_op", "count", "lower"),
        ("dmapp.calls_per_op", "count", "lower"),
        ("dmapp.put_per_op", "count", "lower"),
        ("dmapp.get_per_op", "count", "lower"),
        ("dmapp.amo_per_op", "count", "lower"),
        ("machine.packets_per_op", "count", "lower"),
        ("machine.bytes_per_op", "B", "lower"),
        ("xpmem.calls_per_op", "count", "lower"),
        ("mpi1.msgs_per_op", "count", "lower"),
        ("runtime.coll_per_op", "count", "lower"),
        ("rma.cas_success_ratio", "ratio", "higher"),
        ("serve.hot_owner_share", "ratio", "lower"),
        # simulated time per application operation
        ("rma.lock_wait_us_per_op", "us", "lower"),
        ("rma.lock_hold_us_per_op", "us", "lower"),
        ("rma.lock_release_us_per_op", "us", "lower"),
        ("rma.lock_wait_share", "ratio", "lower"),
        ("rma.flush_us_per_op", "us", "lower"),
        ("rma.data_us_per_op", "us", "lower"),
        ("rma.sync_us_per_op", "us", "lower"),
        ("dmapp.wait_us_per_op", "us", "lower"),
        ("mpi1.wait_us_per_op", "us", "lower"),
        ("runtime.coll_us_per_op", "us", "lower"),
        ("apps.self_us_per_op", "us", "lower"),
        ("apps.op_us_per_op", "us", "lower"),
        ("serve.queue_us_per_op", "us", "lower"),
        ("serve.queue_p99_us", "us", "lower"),
        ("serve.service_p99_us", "us", "lower"),
        ("serve.backlog_end_us", "us", "lower"),
        # The rate ladder and the model check say something on some
        # workloads only.  The harness wants a number everywhere, so they
        # are put such that 0 -- what a workload without a ladder or a
        # reference reports, and a rung that raises -- is the worst
        # value, never the best (see README).
        ("serve.max_rate_rps", "1/s", "higher"),
        ("serve.fail_rate", "ratio", "lower"),
        ("serve.slo_share_5khz", "ratio", "higher"),
        ("serve.slo_share_10khz", "ratio", "higher"),
        ("serve.slo_share_20khz", "ratio", "higher"),
        ("serve.slo_share_50khz", "ratio", "higher"),
        ("machine.model_agreement_pct", "%", "higher"),
    ])

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
