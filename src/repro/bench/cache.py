"""Content-addressed run cache for benchmark points.

Regenerating a figure means re-running many independent simulation points;
most of them are unchanged between invocations.  This module caches point
results on disk, keyed by a digest of everything that determines the
result:

* the source of the whole ``repro`` package (:func:`package_digest`:
  every ``*.py`` under it, path and bytes), so a change anywhere below a
  driver -- a timing parameter, a protocol, the kernel -- misses,
* the fully qualified name **and source hash** of the driver / SPMD
  program, which covers drivers defined outside the package
  (``benchmarks/``, tests),
* the full argument/config snapshot (dataclass configs are canonicalized
  field by field, numpy arrays by digest), which covers machine/sim/
  transport parameters and the master seed.

Nothing has to be remembered to invalidate an entry: the key is worked
out from the code that would produce the value.  ``--no-cache`` on the
benchmark suite and ``REPRO_BENCH_CACHE=0`` bypass the cache altogether.

Entries are pickled under ``benchmarks/results/cache/<digest>.pkl``
(override the root with ``REPRO_CACHE_DIR``).  Unreadable or corrupt
entries count as misses and are overwritten.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable

__all__ = ["RunCache", "cache_enabled", "default_cache_dir",
           "fingerprint", "source_digest", "package_digest"]

_MISS = object()


def cache_enabled() -> bool:
    """False when ``REPRO_BENCH_CACHE`` is 0/off/false (default: on)."""
    return os.environ.get("REPRO_BENCH_CACHE", "1").lower() \
        not in ("0", "off", "false", "no")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``<cwd>/benchmarks/results/cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.cwd() / "benchmarks" / "results" / "cache"


def source_digest(root: Path) -> str:
    """Digest of every ``*.py`` under ``root``: relative path + bytes."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@functools.cache
def package_digest() -> str:
    """:func:`source_digest` of the ``repro`` package in use (read once
    per process: ~120 files, a few ms)."""
    return source_digest(Path(__file__).resolve().parents[1])


def fingerprint(fn: Callable) -> dict:
    """Identity of a driver function: qualified name + source digest."""
    name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    try:
        src = inspect.getsource(fn)
    except (OSError, TypeError):
        code = getattr(fn, "__code__", None)
        src = code.co_code.hex() if code is not None else repr(fn)
    return {"fn": name,
            "src": hashlib.sha256(src.encode()).hexdigest()[:16]}


def _canon(obj: Any) -> Any:
    """Reduce an argument to a canonical JSON-encodable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__qualname__,
                "fields": {f.name: _canon(getattr(obj, f.name))
                           for f in dataclasses.fields(obj)}}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_canon(v)) for v in obj)
    tobytes = getattr(obj, "tobytes", None)
    if callable(tobytes):  # numpy arrays / scalars
        return {"__ndarray__": hashlib.sha256(tobytes()).hexdigest()[:16],
                "dtype": str(getattr(obj, "dtype", "?")),
                "shape": list(getattr(obj, "shape", []))}
    if callable(obj):
        return fingerprint(obj)
    return repr(obj)


class RunCache:
    """Disk cache mapping content digests to pickled point results."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------
    def key_for(self, fn: Callable, args: tuple = (),
                kwargs: dict | None = None) -> str:
        """Digest of (package source, driver identity, full arguments)."""
        blob = json.dumps({
            "source": package_digest(),
            "driver": fingerprint(fn),
            "args": _canon(list(args)),
            "kwargs": _canon(kwargs or {}),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # -- access --------------------------------------------------------
    def get(self, key: str) -> Any:
        """Cached value for ``key`` or ``RunCache.MISS``."""
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
            self.hits += 1
            return value
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError):
            self.misses += 1
            return _MISS

    def put(self, key: str, value: Any) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self._path(key).with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh)
            os.replace(tmp, self._path(key))
        except (OSError, pickle.PickleError):
            pass  # caching is best-effort; never fail the benchmark

    def clear(self) -> None:
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- stats ---------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4)}


RunCache.MISS = _MISS
