"""Unit tests for the performance-model objects."""

import math

import pytest

from repro.models.fitting import fit_affine, fit_log_linear, relative_error
from repro.models.params_fompi import PAPER_MODELS, paper_model
from repro.models.perfmodel import (
    AffineBytesModel,
    ConstantModel,
    LinearNeighborsModel,
    LogProcsModel,
    prefer_pscw,
)


def test_constant_model():
    m = ConstantModel("P_CAS", 2400.0)
    assert m() == 2400.0
    assert m.domain_str() == "P:{} -> T"


def test_affine_model():
    m = AffineBytesModel("P_put", 1000.0, 0.16)
    assert m(s=0) == 1000.0
    assert m(s=1000) == 1160.0
    assert m.domain_str() == "P:{s} -> T"


def test_log_model():
    m = LogProcsModel("P_fence", 0.0, 2900.0)
    assert m(p=2) == 2900.0
    assert m(p=1024) == 2900.0 * 10


def test_neighbor_model():
    m = LinearNeighborsModel("P_post", 0.0, 350.0)
    assert m(k=6) == 2100.0


def test_missing_input_raises():
    with pytest.raises(ValueError, match="needs input"):
        AffineBytesModel("x", 1, 1)()


def test_sum_model_composes_domains():
    m = paper_model("put") + paper_model("fence")
    assert set(m.domain) == {"s", "p"}
    assert m(s=8, p=4) == pytest.approx(
        paper_model("put")(s=8) + paper_model("fence")(p=4))


def test_paper_models_complete():
    for key in ("put", "get", "acc_sum", "acc_min", "cas", "fence", "post",
                "complete", "start", "wait", "lock_excl", "lock_shrd",
                "unlock", "flush", "sync"):
        assert key in PAPER_MODELS


def test_paper_model_unknown_raises():
    with pytest.raises(KeyError):
        paper_model("nope")


def test_prefer_pscw_decision_rule():
    """Section 6: fence wins only for large groups relative to log p."""
    # Small neighborhood on many processes: PSCW much cheaper.
    assert prefer_pscw(PAPER_MODELS, p=4096, k=2)
    # Tiny job where fence is one round: fence is cheaper than
    # post+complete+start+wait for a large k.
    assert not prefer_pscw(PAPER_MODELS, p=2, k=16)


def test_fit_affine_recovers_constants():
    xs = [8, 64, 512, 4096, 32768]
    ys = [1000 + 0.16 * x for x in xs]
    a, b = fit_affine(xs, ys)
    assert a == pytest.approx(1000, rel=1e-6)
    assert b == pytest.approx(0.16, rel=1e-6)


def test_fit_log_linear_recovers_constants():
    ps = [2, 8, 64, 1024]
    ys = [100 + 2900 * math.log2(p) for p in ps]
    a, b = fit_log_linear(ps, ys)
    assert a == pytest.approx(100, rel=1e-3, abs=1)
    assert b == pytest.approx(2900, rel=1e-6)


def test_relative_error():
    assert relative_error(110, 100) == pytest.approx(0.1)
    assert relative_error(0, 0) == 0.0
    assert relative_error(1, 0) == math.inf
