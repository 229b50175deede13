"""Per-layer attribution, measured from this directory only.

Two instruments, both used in runs that are separate from the timed ones:

* :class:`Tracer` -- the simulated half.  It wraps the public generator
  methods at each layer boundary and records a span (name, rank, entry and
  exit on the simulated clock, parent, root operation) per call.  A wrapper
  adds a generator frame but schedules nothing, so a traced run must
  reproduce the untraced ``sim_digest``; the runner checks that it does.
* :func:`profile_layers` -- the host half.  One ``cProfile`` repetition,
  aggregated by the package (``src/repro/<layer>``) that owns each
  function's source file.

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import os
import pstats
from collections import defaultdict
from operator import attrgetter

__all__ = ["LAYERS", "Tracer", "profile_layers"]

#: The layers are the packages under src/repro that the workloads execute.
LAYERS = ("sim", "machine", "dmapp", "xpmem", "mem", "rma", "mpi1",
          "runtime", "apps", "serve", "obs", "check")

# Span record fields (lists, mutated in place at exit).
NAME, RANK, T0, T1, PARENT, ROOT, CHILD_NS, CAT, LAYER, CAS_OK = range(10)

# (owner, method names, layer, category, where the rank is found)
_BOUNDARIES = (
    ("repro.rma.window.Window",
     ("put", "get", "get_blocking", "accumulate", "get_accumulate",
      "fetch_and_op", "compare_and_swap"), "rma", "data", "rank"),
    ("repro.rma.window.Window",
     ("flush", "flush_all", "flush_local", "flush_local_all"),
     "rma", "flush", "rank"),
    ("repro.rma.window.Window", ("lock", "lock_all"),
     "rma", "lock_wait", "rank"),
    ("repro.rma.window.Window", ("unlock", "unlock_all"),
     "rma", "lock_release", "rank"),
    ("repro.rma.window.Window",
     ("fence", "sync", "post", "start", "complete", "wait"),
     "rma", "sync", "rank"),
    ("repro.rma.mcs.McsLock", ("acquire",), "rma", "lock_wait",
     "win.ctx.rank"),
    ("repro.rma.mcs.McsLock", ("release",), "rma", "lock_release",
     "win.ctx.rank"),
    ("repro.dmapp.api.DmappEndpoint", ("put_nbi",), "dmapp", "put", "rank"),
    ("repro.dmapp.api.DmappEndpoint", ("get_nbi",), "dmapp", "get", "rank"),
    ("repro.dmapp.api.DmappEndpoint",
     ("amo_nbi", "amo_custom_nbi", "amo_stream_nbi"), "dmapp", "amo",
     "rank"),
    ("repro.dmapp.api.DmappEndpoint", ("wait", "wait_local", "gsync"),
     "dmapp", "wait", "rank"),
    ("repro.xpmem.api.XpmemEndpoint",
     ("store", "load", "amo", "amo_custom", "amo_stream"),
     "xpmem", "xpmem", "rank"),
    ("repro.mpi1.pt2pt.Mpi1Endpoint", ("isend",), "mpi1", "msg", "rank"),
    ("repro.mpi1.pt2pt.Mpi1Endpoint",
     ("send", "issend", "recv", "mrecv", "sendrecv"), "mpi1", "mpi1",
     "rank"),
    ("repro.mpi1.pt2pt.Request", ("wait",), "mpi1", "mpi1",
     "endpoint.rank"),
    ("repro.runtime.collectives.Collectives",
     ("barrier", "bcast", "allreduce", "allgather", "reduce_scatter_block",
      "alltoall"), "runtime", "coll", "ctx.rank"),
)


def _resolve(path: str):
    """``pkg.mod`` or ``pkg.mod.Class`` -> the module or class object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def _op_rank(first_arg) -> int:
    """Rank of an application-operation call from its first argument (a
    window, a rank context, or an object holding one)."""
    rank = getattr(first_arg, "rank", None)
    return first_arg.ctx.rank if rank is None else rank


class Tracer:
    """Span recorder installed around layer-boundary calls."""

    def __init__(self, op_targets=(), *, layers: bool = True) -> None:
        self.spans: list[list] = []
        self.packets: list[tuple] = []    # (issue time, bytes)
        self.env = None
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._patched: list[tuple] = []
        self._op_targets = tuple(op_targets)
        self._layers = layers

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        for path, attr in self._op_targets:
            self._patch(_resolve(path), attr, "apps", "op", _op_rank)
        if self._layers:
            for path, names, layer, cat, rank_attr in _BOUNDARIES:
                owner = _resolve(path)
                for attr in names:
                    self._patch(owner, attr, layer, cat,
                                attrgetter(rank_attr))
            network = _resolve("repro.machine.network.Network")
            self._patch_packet(network)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def attach(self, world) -> None:
        """Read the simulated clock of ``world`` from now on."""
        self.env = world.env
        self._stacks.clear()

    def _patch(self, owner, attr, layer, cat, rank_of) -> None:
        orig = inspect.getattr_static(owner, attr)
        if not inspect.isgeneratorfunction(orig):
            raise TypeError(f"{owner.__name__}.{attr} is not a generator "
                            "function; it has no simulated duration")
        cas = attr == "compare_and_swap"
        tr = self

        @functools.wraps(orig)
        def traced(first, *args, **kwargs):
            rank = rank_of(first)
            stack = tr._stacks[rank]
            spans = tr.spans
            idx = len(spans)
            if stack:
                parent = stack[-1]
                root = spans[parent][ROOT]
            else:
                parent, root = -1, idx
            rec = [attr, rank, tr.env.now, -1, parent, root, 0, cat, layer,
                   None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = yield from orig(first, *args, **kwargs)
            finally:
                stack.pop()
                rec[T1] = now = tr.env.now
                if parent >= 0:
                    spans[parent][CHILD_NS] += now - rec[T0]
            if cas:
                rec[CAS_OK] = int(result) == int(args[0])
            return result

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def _patch_packet(self, network) -> None:
        # Network.packet is a plain function (it computes the delivery
        # time and returns): counted, not timed.
        orig = network.packet
        tr = self

        @functools.wraps(orig)
        def counted(net, src_node, dst_node, nbytes, **kwargs):
            tr.packets.append((tr.env.now, nbytes))
            return orig(net, src_node, dst_node, nbytes, **kwargs)

        self._patched.append((network, "packet", orig))
        network.packet = counted

    # -- reading the spans ------------------------------------------------
    def op_spans(self) -> list[tuple]:
        """(rank, t0, t1, name) of every application-operation span."""
        return [(s[RANK], s[T0], s[T1], s[NAME]) for s in self.spans
                if s[CAT] == "op"]

    def summary(self, ops: int, since_ns: int = 0) -> tuple[dict, dict]:
        """Per-layer counts and simulated times per application op, from
        the spans that start at or after ``since_ns``.

        Also returns the operation breakdown: the direct children of the
        ``op`` spans, by category, plus the operations' self time.  These
        partition the operations' total duration exactly.
        """
        spans = self.spans
        calls = defaultdict(int)          # layer -> wrapped calls
        kinds = defaultdict(int)          # category -> calls
        in_op = defaultdict(int)          # category -> ns, directly in ops
        bare = defaultdict(int)           # category -> ns, outside any op
        outer = defaultdict(int)          # layer -> ns in outermost spans
        op_ns = op_self_ns = hold_ns = cas_tried = cas_won = 0
        acquired: dict[int, int] = {}     # rank -> when it took its MCS
        for s in spans:
            if s[T0] < since_ns:
                continue
            cat, layer, dur = s[CAT], s[LAYER], s[T1] - s[T0]
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            calls[layer] += 1
            kinds[cat] += 1
            if cat == "op":
                # Nested op spans (an exchange inside a solve) count once.
                if parent is None:
                    op_ns += dur
                op_self_ns += dur - s[CHILD_NS]
            elif parent is None:
                bare[cat] += dur
            elif parent[CAT] == "op":
                in_op[cat] += dur
            if parent is None or parent[LAYER] != layer:
                if cat == "wait":
                    outer["dmapp"] += dur
                elif layer in ("mpi1", "runtime"):
                    outer[layer] += dur
            if s[CAS_OK] is not None:
                cas_tried += 1
                cas_won += s[CAS_OK]
            if s[NAME] == "acquire":
                acquired[s[RANK]] = s[T1]
            elif s[NAME] == "release" and s[RANK] in acquired:
                hold_ns += s[T1] - acquired.pop(s[RANK])

        packets = [n for t, n in self.packets if t >= since_ns]

        def per_op_us(ns: int) -> float:
            return ns / 1e3 / ops

        def rma_us(cat: str) -> float:
            return per_op_us(in_op[cat] + bare[cat])

        metrics = {
            "rma.calls_per_op": calls["rma"] / ops,
            "dmapp.calls_per_op": calls["dmapp"] / ops,
            "dmapp.put_per_op": kinds["put"] / ops,
            "dmapp.get_per_op": kinds["get"] / ops,
            "dmapp.amo_per_op": kinds["amo"] / ops,
            "machine.packets_per_op": len(packets) / ops,
            "machine.bytes_per_op": sum(packets) / ops,
            "xpmem.calls_per_op": calls["xpmem"] / ops,
            "mpi1.msgs_per_op": kinds["msg"] / ops,
            "runtime.coll_per_op": kinds["coll"] / ops,
            "rma.cas_success_ratio":
                cas_won / cas_tried if cas_tried else 1.0,
            "rma.lock_wait_us_per_op": rma_us("lock_wait"),
            "rma.lock_hold_us_per_op": per_op_us(hold_ns),
            "rma.lock_release_us_per_op": rma_us("lock_release"),
            "rma.lock_wait_share":
                in_op["lock_wait"] / op_ns if op_ns else 0.0,
            "rma.flush_us_per_op": rma_us("flush"),
            "rma.data_us_per_op": rma_us("data"),
            "rma.sync_us_per_op": rma_us("sync"),
            "dmapp.wait_us_per_op": per_op_us(outer["dmapp"]),
            "mpi1.wait_us_per_op": per_op_us(outer["mpi1"]),
            "runtime.coll_us_per_op": per_op_us(outer["runtime"]),
            "apps.self_us_per_op": per_op_us(op_self_ns),
            "apps.op_us_per_op": per_op_us(op_ns),
        }
        breakdown = {cat: per_op_us(ns) for cat, ns in sorted(in_op.items())}
        breakdown["app_self"] = per_op_us(op_self_ns)
        breakdown["op_total"] = per_op_us(op_ns)
        return metrics, breakdown

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, layer, category, rank,
        t0, t1, parent, root operation)."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s[NAME], "layer": s[LAYER], "cat": s[CAT],
                     "rank": s[RANK], "t0": s[T0], "t1": s[T1],
                     "parent": s[PARENT], "op": s[ROOT]}) + "\n")


# ----------------------------------------------------------------------
# host half
# ----------------------------------------------------------------------
def _layer_of(filename: str, repo_src: str, bench_dir: str) -> str | None:
    """The layer owning a source file, or None for code outside the repo
    (builtins, the standard library, numpy)."""
    if filename.startswith(repo_src):
        head = filename[len(repo_src):].lstrip(os.sep).split(os.sep)[0]
        return head if head in LAYERS else "other"
    if filename.startswith(bench_dir):
        # The stream programs live here: they are the application.
        return "apps"
    return None


def profile_layers(profiler: cProfile.Profile, ops: int, repo_src: str,
                   bench_dir: str) -> dict:
    """Attribute one profiled repetition to layers.

    Returns ``<layer>.self_share`` (share of profiled self time; time in
    library code is charged to the calling layer through the profiler's
    caller table -- and with ``Profile(builtins=False)`` time in C
    functions already sits in their caller's self time) and
    ``<layer>.pycalls_per_op`` (calls of the layer's own Python functions
    per application operation, which is exact and machine-independent).
    """
    stats = pstats.Stats(profiler).stats
    owner = {func: _layer_of(func[0], repo_src, bench_dir)
             for func in stats}
    memo: dict = {}

    def charge(func, depth: int = 0) -> dict:
        """Layer -> fraction that pays for time spent in ``func``."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}        # breaks caller cycles
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if not callers or total <= 0 or depth > 16:
            return memo[func]
        mix: dict = defaultdict(float)
        for caller, edge in callers.items():
            for layer, frac in charge(caller, depth + 1).items():
                mix[layer] += frac * edge[3] / total
        memo[func] = dict(mix)
        return memo[func]

    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        # Library code: each caller pays for the self time spent on its
        # behalf (the caller table splits tottime per calling function).
        if not callers:
            self_s["other"] += tottime
        for caller, edge in callers.items():
            for layer, frac in charge(caller).items():
                self_s[layer] += frac * edge[2]
    total = sum(self_s.values()) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total
        out[f"{layer}.pycalls_per_op"] = calls[layer] / ops
    out["_other_self_share"] = self_s["other"] / total
    return out
