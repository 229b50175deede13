"""Content-addressed run cache: hits, keying, source-edit invalidation."""

import pytest

import repro.bench.cache as cache_mod
from repro.bench import microbench as mb
from repro.bench.cache import RunCache, cache_enabled, source_digest
from repro.bench.pool import BenchPoint, last_run_stats, run_points
from repro.config import MachineConfig, SimConfig
from repro.machine.params import GeminiParams


def test_cache_hit_returns_equal_value(tmp_path):
    cache = RunCache(tmp_path)
    cold = run_points([BenchPoint(mb.put_latency, ("fompi", 8)),
                       BenchPoint(mb.put_latency, ("fompi", 64))],
                      workers=1, cache=cache)
    assert last_run_stats().cache_hits == 0
    warm = run_points([BenchPoint(mb.put_latency, ("fompi", 8)),
                       BenchPoint(mb.put_latency, ("fompi", 64))],
                      workers=1, cache=cache)
    assert warm == cold
    assert last_run_stats().cache_hits == 2
    assert last_run_stats().executed == 0
    assert cache.hit_rate == 0.5  # 2 hits / 4 lookups


def test_key_covers_args_kwargs_and_driver(tmp_path):
    cache = RunCache(tmp_path)
    base = cache.key_for(mb.put_latency, ("fompi", 8), {})
    assert cache.key_for(mb.put_latency, ("fompi", 8), {}) == base
    assert cache.key_for(mb.put_latency, ("fompi", 64), {}) != base
    assert cache.key_for(mb.put_latency, ("fompi", 8), {"intra": True}) != base
    assert cache.key_for(mb.get_latency, ("fompi", 8), {}) != base


def test_key_covers_config_snapshot_and_seed(tmp_path):
    cache = RunCache(tmp_path)

    def key(**kw):
        return cache.key_for(mb.put_latency, ("fompi", 8), kw)

    assert key(machine=MachineConfig(ranks_per_node=1)) \
        != key(machine=MachineConfig(ranks_per_node=32))
    assert key(sim=SimConfig(seed=1)) != key(sim=SimConfig(seed=2))


def test_source_edit_invalidates(tmp_path, monkeypatch):
    """Editing any module under the package root changes every key."""
    pkg = tmp_path / "pkg"
    (pkg / "machine").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "machine" / "params.py").write_text("WIRE_BASE = 310\n")
    monkeypatch.setattr(cache_mod, "package_digest",
                        lambda: source_digest(pkg))
    cache = RunCache(tmp_path / "cache")
    key = cache.key_for(mb.put_latency, ("fompi", 8), {})
    cache.put(key, 123.0)
    assert cache.get(key) == 123.0
    assert cache.key_for(mb.put_latency, ("fompi", 8), {}) == key

    (pkg / "machine" / "params.py").write_text("WIRE_BASE = 910\n")
    edited = cache.key_for(mb.put_latency, ("fompi", 8), {})
    assert edited != key
    assert cache.get(edited) is RunCache.MISS
    # a renamed module is an edit too, even with the same bytes
    (pkg / "machine" / "params.py").rename(pkg / "machine" / "gemini.py")
    assert cache.key_for(mb.put_latency, ("fompi", 8), {}) \
        not in (key, edited)


def test_change_below_the_driver_is_not_served_from_cache(tmp_path,
                                                          monkeypatch):
    """The failure the package digest fixes: a timing parameter changed
    two layers below ``put_latency`` and the sweep kept printing the old
    number (the key held only the driver's own source and a version
    string nobody bumped)."""
    cache = RunCache(tmp_path)
    point = BenchPoint(mb.put_latency, ("fompi", 8), {"intra": False})
    assert run_points([point], workers=1, cache=cache) == [1047.0]

    # what editing wire_base 310 -> 910 in machine/params.py does: new
    # behaviour, new digest
    monkeypatch.setattr(
        GeminiParams, "wire_latency",
        lambda self, hops: 910.0 + self.wire_per_hop * hops)
    monkeypatch.setattr(cache_mod, "package_digest", lambda: "edited")
    assert run_points([point], workers=1, cache=cache) == [2247.0]
    assert last_run_stats().cache_hits == 0


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = RunCache(tmp_path)
    key = cache.key_for(mb.put_latency, ("fompi", 8), {})
    cache.put(key, 1.0)
    cache._path(key).write_bytes(b"not a pickle")
    assert cache.get(key) is RunCache.MISS


def test_cache_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    assert cache_enabled() is True
    for off in ("0", "off", "false", "no"):
        monkeypatch.setenv("REPRO_BENCH_CACHE", off)
        assert cache_enabled() is False


def test_run_points_cache_false_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
    run_points([BenchPoint(mb.put_latency, ("fompi", 8))],
               workers=1, cache=False)
    assert not (tmp_path / "cachedir").exists()
