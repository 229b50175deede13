"""The hybrid figures' anchor constants are the committed full-fidelity
end points they claim to be (``benchmarks/results/fig7a.json``,
``fig8.json``): a regenerated figure that moves a curve's last point
must move its anchor with it."""

import json
import pathlib

from repro.scale import figures as sf

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _committed(name):
    return {s["label"]: s
            for s in json.loads((RESULTS / f"{name}.json").read_text())}


def test_anchors_are_the_committed_end_points():
    fig7a, fig8 = _committed("fig7a"), _committed("fig8")
    for label, anchor in sf.FIG7A_ANCHORS.items():
        assert (fig7a[label]["xs"][-1], fig7a[label]["ys"][-1]) \
            == (sf.FIG7A_ANCHOR_P, anchor)
    assert (fig7a["mpi1"]["xs"][-2], fig7a["mpi1"]["ys"][-2]) \
        == sf.FIG7A_MPI1_PREV
    for label, anchor in sf.FIG8_ANCHORS.items():
        assert (fig8[label]["xs"][-1], fig8[label]["ys"][-1]) \
            == (sf.FIG8_ANCHOR_P, anchor)
