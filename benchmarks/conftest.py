"""Benchmark-suite configuration.

Each target regenerates one figure/table of the paper (Figures 4-8 are
``bench_figures.py::test_figure[<id>]``): it runs the simulated
experiment, prints the series as a fixed-width table (run with ``-s`` to
see it), stores it in pytest-benchmark ``extra_info``, and wraps the
whole driver in ``benchmark`` so the usual
``pytest benchmarks/ --benchmark-only`` flow reports wall-clock cost of
regenerating each figure.

Perf plumbing (see DESIGN.md, "Performance subsystem"):

* figure sweeps fan out over a process pool (``repro.bench.pool``) and
  compute every point: there is no result cache, so a recorded wall is
  always a cold one;
* at session end the per-figure wall times and the suite-wide pool
  counters are merged into ``BENCH_simperf.json`` at the repo root, next
  to the kernel-throughput section written by ``bench_kernel.py``.
"""

import json
import os
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPORT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simperf.json"

_FIGURE_TIMES: dict[str, float] = {}
_SCALE_SECTION: dict = {}
_SERVE_SECTION: dict = {}


@pytest.fixture
def record_series(request):
    """Print + persist a figure's series; returns the writer function."""
    RESULTS_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()

    def _write(name: str, table: str, series: list) -> None:
        _FIGURE_TIMES[name] = round(time.perf_counter() - t0, 3)
        print()
        print(table)
        payload = [s.as_dict() if hasattr(s, "as_dict") else s
                   for s in series]
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1))
        (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")

    return _write


@pytest.fixture
def record_scale():
    """Collect the hybrid scale-mode throughput section.

    ``bench_scale.py`` reports ranks-per-second here; session finish
    merges them into ``BENCH_simperf.json`` under the ``"scale"`` key
    (sub-dicts merged key-wise, like figure walls, so a partial sweep
    never erases earlier sizes).
    """

    def _write(section: dict) -> None:
        for key, value in section.items():
            if isinstance(value, dict):
                _SCALE_SECTION.setdefault(key, {}).update(value)
            else:
                _SCALE_SECTION[key] = value

    return _write


@pytest.fixture
def record_serve():
    """Collect the KV-serving throughput/tail-latency section.

    ``bench_kvstore.py`` reports req/s and exact p99 per (variant, p)
    here; session finish merges them into ``BENCH_simperf.json`` under
    the ``"serve"`` key, same merge discipline as ``record_scale``.
    """

    def _write(section: dict) -> None:
        for key, value in section.items():
            if isinstance(value, dict):
                _SERVE_SECTION.setdefault(key, {}).update(value)
            else:
                _SERVE_SECTION[key] = value

    return _write


def pytest_sessionfinish(session, exitstatus):
    """Merge per-figure wall times + pool totals into the report."""
    if not _FIGURE_TIMES and not _SCALE_SECTION and not _SERVE_SECTION:
        return
    try:
        from repro.bench.pool import default_workers, pool_totals
    except ImportError:
        return
    totals = pool_totals()
    workers = default_workers()
    # CI fan-out gate: when the workflow pins REPRO_BENCH_WORKERS above 1
    # it is asserting that the figure sweeps really used the process pool
    # -- a silent fall-back to serial execution would still pass the perf
    # job while measuring something else entirely.
    if (os.environ.get("REPRO_BENCH_WORKERS") and workers > 1
            and totals.points > 1 and not totals.parallel):
        raise RuntimeError(
            f"REPRO_BENCH_WORKERS={workers} but no sweep ran in parallel "
            f"(points={totals.points}); used_parallel must be true in the "
            "aggregated report")
    report = {}
    if REPORT.exists():
        try:
            report = json.loads(REPORT.read_text())
        except (ValueError, OSError):
            report = {}
    # Merge, don't replace: a partial session (say, fig4 alone) must not
    # erase the wall times the expensive figures (fig5-fig8) recorded in
    # an earlier session -- the kernel win on those would be invisible to
    # the perf gate otherwise.
    prior = report.get("figures", {}).get("wall_s", {})
    if isinstance(prior, dict):
        walls = {**prior, **_FIGURE_TIMES}
    else:  # pragma: no cover - malformed report
        walls = dict(_FIGURE_TIMES)
    if walls:
        report["figures"] = {"wall_s": dict(sorted(walls.items())),
                             "total_wall_s": round(sum(walls.values()), 3)}
    for section_key, collected in (("scale", _SCALE_SECTION),
                                   ("serve", _SERVE_SECTION)):
        if not collected:
            continue
        prior_sec = report.get(section_key, {})
        merged = dict(prior_sec) if isinstance(prior_sec, dict) else {}
        for key, value in collected.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key] = {**merged[key], **value}
            else:
                merged[key] = value
        report[section_key] = merged
    report["pool"] = {"workers": workers,
                      "points": totals.points,
                      "used_parallel": totals.parallel}
    try:
        REPORT.write_text(json.dumps(report, indent=1) + "\n")
    except OSError:
        pass
