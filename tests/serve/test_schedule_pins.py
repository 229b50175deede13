"""Both serving backends' schedules, pinned.

One small open-loop run of each store on 16 ranks, 4 per node (so both
the network and the intra-node XPMEM paths carry requests): the final
clock, the event count, and a hash of every rank's latency rows and
final contents.  A host-side rewrite of either program (placement,
polling, dispatch) must leave all three where they are.

Crash-through serving (``ft_kvstore``, one rank per node) is pinned the
same way, fault-free and with rank 1's node crashing mid-serve: the
clock, the event count and a hash of every rank's latency rows and final
window bytes.
"""

import hashlib

import pytest

from repro.apps.kvstore.mpi1_kv import mpi1_kv_program
from repro.config import FaultPlan, FTConfig, MachineConfig, NodeCrash, \
    SimConfig
from repro.ft.workloads import final_bytes
from repro.runtime.job import run_spmd
from repro.serve.driver import kv_serve_program
from repro.serve.zipf import ServeSpec
from repro.workloads import run_workload

SPEC = ServeSpec(nkeys=128, total_requests=480, rate_hz=100_000.0, seed=5)
NRANKS = 16

PINS = {
    "mpi1": (339274, 14049, "bae96bc8cc2c82cb"),
    "rma": (329319, 3889, "ac82619a90a14bf5"),
}


def _digest(returns) -> str:
    h = hashlib.sha256()
    for value in returns:
        if isinstance(value, BaseException):
            raise value
        lat, contents = value
        h.update(lat.tobytes())
        h.update(repr(sorted(contents.items())).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("variant", sorted(PINS))
def test_serving_schedule_pinned(variant):
    program, args = {"mpi1": (mpi1_kv_program, (SPEC,)),
                     "rma": (kv_serve_program, (SPEC,))}[variant]
    res = run_spmd(program, NRANKS, *args,
                   machine=MachineConfig(ranks_per_node=4),
                   sim=SimConfig(seed=SPEC.seed))
    got = (res.sim_time_ns, res.events_processed, _digest(res.returns))
    assert got == PINS[variant]


FT_SPEC = ServeSpec(nkeys=64, total_requests=400, seed=7, ft_mode=True)
FT_CRASH_NS = 268_000     # about half the fault-free run

FT_PINS = {
    "no-fault": (536882, 2708, "d0ceb5bbb371fe06"),
    "crash": (625480, 3483, "cc28e1db71680d4b"),
}


def _ft_run(case):
    faults = (FaultPlan(crashes=(NodeCrash(1, FT_CRASH_NS),))
              if case == "crash" else None)
    return run_workload("ft_kvstore", 4, seed=FT_SPEC.seed,
                        ft=FTConfig(interval=16), faults=faults,
                        spec=FT_SPEC)


def _ft_digest(returns) -> str:
    h = hashlib.sha256()
    for value in returns:
        if isinstance(value, BaseException):
            raise value
        lat, state = value
        h.update(lat.tobytes())
        h.update(state)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(FT_PINS))
def test_crash_through_serving_pinned(case):
    res = _ft_run(case)
    got = (res.sim_time_ns, res.events_processed, _ft_digest(res.returns))
    assert got == FT_PINS[case]
    if case == "crash":
        assert res.stats["recovery"]["ranks_restored"] == 1
        assert final_bytes(res) == final_bytes(_ft_run("no-fault"))
