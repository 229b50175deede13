"""Hybrid-vs-full exact message-count parity at overlapping sizes.

The load-bearing claim of the scale mode: at sizes the full DES can
execute, a hybrid run's ``stats`` dict equals the full-fidelity run's
``OpCounters.snapshot()`` **exactly** -- total messages, bytes moved,
per-kind counts, per-rank maxima -- across workloads, rank counts
(powers of two and not), and placements (1 and 32 ranks/node).
"""

import dataclasses

import pytest

from repro.scale import run_hybrid
from repro.scale.parity import parity_case, parity_table
from repro.workloads import WORKLOADS, run_workload
from tests.scale import RING


@pytest.mark.parametrize("workload", RING)
@pytest.mark.parametrize("nranks", [2, 3, 16, 63])
def test_exact_parity_rpn1(workload, nranks):
    case = parity_case(workload, nranks, ranks_per_node=1)
    assert case["exact"], case["diff"]


@pytest.mark.parametrize("workload", RING)
@pytest.mark.parametrize("nranks", [16, 63, 96])
def test_exact_parity_rpn32(workload, nranks):
    # 32 ranks/node: intra-node puts become XPMEM stores, PSCW posts
    # become message-free CPU atomics -- the kind split must match too.
    case = parity_case(workload, nranks, ranks_per_node=32)
    assert case["exact"], case["diff"]


@pytest.mark.parametrize("workload", RING)
@pytest.mark.parametrize("rpn", [1, 4])
@pytest.mark.parametrize("epochs,nbytes", [(1, 1), (3, 4096)])
def test_exact_parity_off_the_registry_defaults(workload, rpn, epochs, nbytes):
    # parity_case only ever runs epochs=2, nbytes=8; the spec's two
    # fields must scale the counts the way the program's arguments do.
    full = run_workload(workload, 8, ranks_per_node=rpn,
                        epochs=epochs, nbytes=nbytes)
    spec = dataclasses.replace(WORKLOADS[workload].scale,
                               epochs=epochs, nbytes=nbytes)
    assert run_hybrid(spec, 8, ranks_per_node=rpn).stats == full.stats


def test_parity_table_verdict():
    table = parity_table([16, 32], ranks_per_node=32,
                         workloads=["fence_ring", "lock_ring"])
    assert table["ok"]
    assert len(table["cases"]) == 4
    for case in table["cases"]:
        assert case["exact"]
        assert case["bounds"]["max_remote_ops_ok"]


def test_olog_bounds_present():
    case = parity_case("fence_ring", 64, ranks_per_node=32)
    bounds = case["bounds"]
    assert bounds["log2p"] == 6
    assert bounds["fence_rounds"] == 6
    assert bounds["max_remote_ops"] <= bounds["max_remote_ops_budget"]
    assert bounds["control_words_per_rank"] == 78
