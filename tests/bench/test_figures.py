"""The figure catalog reproduces the committed result files exactly.

``benchmarks/results/fig*.{json,txt}`` were written by the sweep code
the catalog replaced; they are the pin.  Regenerate one only together
with the protocol or timing change that moved it.
"""

import json
import pathlib

import pytest

from repro.bench import format_series_table
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
