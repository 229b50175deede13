"""The figure catalog reproduces the committed result files exactly.

``benchmarks/results/fig*.{json,txt}`` were written by the sweep code
the catalog replaced; they are the pin.  Regenerate one only together
with the protocol or timing change that moved it.
"""

import json
import pathlib

import pytest

from repro.bench import appbench as ab
from repro.bench import format_series_table
from repro.bench import microbench as mb
from repro.bench import syncbench as sb
from repro.bench.figures import FIGURES, figure_series

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


# put + model overlay, put + get labels, per-curve grids, the noise rule,
# and the get-latency (4b), overlap (5a), message-rate (5b, 5c) and
# global-sync (6b) drivers: all of Figures 4-6
@pytest.mark.parametrize("fig_id",
                         ["4a", "4b", "4c", "5a", "5b", "5c", "6a", "6b",
                          "6c"])
def test_catalog_matches_committed_results(fig_id, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fig = FIGURES[fig_id]
    series = figure_series(fig_id)
    assert json.dumps([s.as_dict() for s in series], indent=1) \
        == (RESULTS / f"{fig.name}.json").read_text()
    assert format_series_table(fig.title, fig.x_label, series) + "\n" \
        == (RESULTS / f"{fig.name}.txt").read_text()

    quick = figure_series(fig_id, full=False)
    assert [q.label for q in quick] == [s.label for s in series]
    for q, s in zip(quick, series):
        assert 0 < len(q.xs) <= fig.quick
        assert q.xs == s.xs[:len(q.xs)] and q.ys == s.ys[:len(q.ys)]
        assert q.meta == s.meta

    # A sweep computes every point and leaves nothing on disk.
    assert list(tmp_path.iterdir()) == []


def test_lock_constants_match_committed_results():
    """The Section 3.2 constants, the one syncbench driver outside the
    figure catalog, reproduce ``fig6_locks.json`` exactly."""
    assert [sb.lock_constants()] == \
        json.loads((RESULTS / "fig6_locks.json").read_text())


@pytest.mark.parametrize("kind", ["upc_swap", "fompi_max", "fompi", "cas"])
def test_atomic_latency_refuses_unknown_kind(kind, monkeypatch):
    """An unknown kind is refused before any simulation runs -- not
    measured as a CAS, nor failed from inside the run."""
    monkeypatch.setattr(mb, "run_spmd", None)
    with pytest.raises(ValueError, match="unknown atomic kind"):
        mb.atomic_latency(kind, 1)


@pytest.mark.parametrize("driver,variant", [
    ("hashtable_rate", "bogus"), ("dsde_time_us", "bogus"),
    ("fft_gflops", "bogus"), ("milc_time_s", "fompi")])
def test_app_drivers_refuse_unknown_variant(driver, variant, monkeypatch):
    """An unknown variant is refused, naming the valid ones, before any
    simulation runs -- not failed with a KeyError from inside the run."""
    monkeypatch.setattr(ab, "run_spmd", None)
    with pytest.raises(ValueError, match=r"unknown \w+ variant .*; choose"):
        getattr(ab, driver)(variant, 4)
