"""Both serving backends' schedules, pinned.

One small open-loop run of each store on 16 ranks, 4 per node (so both
the network and the intra-node XPMEM paths carry requests): the final
clock, the event count, and a hash of every rank's latency rows and
final contents.  A host-side rewrite of either program (placement,
polling, dispatch) must leave all three where they are.
"""

import hashlib

import pytest

from repro.apps.kvstore.mpi1_kv import mpi1_kv_program
from repro.config import MachineConfig, SimConfig
from repro.runtime.job import run_spmd
from repro.serve.driver import kv_serve_program
from repro.serve.zipf import ServeSpec

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
