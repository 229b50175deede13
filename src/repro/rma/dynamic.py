"""Dynamic windows: attach/detach + the one-sided descriptor cache
(paper Section 2.2, "Dynamic Windows").

Base protocol (quoting the paper): attach registers the region and inserts
it into a linked list, detach removes it -- O(1) memory per region, both
non-collective.  Remote access is "purely one sided using a local cache
of remote descriptors": every rank keeps an id counter that attach/detach
increment; an origin first *gets* the target's id to validate its cache,
and on mismatch discards it and re-fetches the whole region list with a
series of remote operations.

The id counter lives in the window control words (``IDX_DYN_ID``); the
region list fetch is charged as a real DMAPP get of
``len(list) * dyn_descriptor_bytes`` bytes from a registered directory
segment on the target, so its cost scales with the number of attached
regions exactly as a real implementation's would.

**Optimized variant** (the paper's optimization paragraph): "instead of
the id counter, each process could maintain a list of processes that have
a cached copy of its local memory descriptors.  Before returning from
detach, a process notifies all these processes to invalidate their cache
[...]  After a cache invalidation or a first time access, a process has
to register itself on the target for detach notifications."  The
cacher/invalidation lists use the same free-storage ring scheme as the
PSCW matching lists (Figure 2c).  The variant "enables better latency for
communication functions, but has a small memory overhead and is
suboptimal for frequent detach operations" -- properties the test suite
measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RmaError, WindowError
from repro.mem.atomic import SegmentCells
from repro.rma import window as win_mod

__all__ = ["DynamicState", "OptimizedDynamicState", "attach", "detach"]

_DIRECTORY_BYTES = 64 * 1024  # registered directory segment per rank
_RING_CAPACITY = 64           # cacher/invalidation ring slots


@dataclass
class DynamicState:
    """Per-rank dynamic-window state."""

    regions: list = field(default_factory=list)      # local attached descs
    directory_seg: object = None                      # registered directory
    directory_desc: object = None
    cache: dict = field(default_factory=dict)         # target -> (id, [descs])
    cache_hits: int = 0
    cache_misses: int = 0

    def resolve(self, win, target: int, vaddr: int, nbytes: int):
        """Origin-side lookup with the id-validation protocol (generator)."""
        cached = self.cache.get(target)
        # Validate the cache: one 8-byte remote read of the id counter.
        current_id = yield from win.ctx.amo(
            target, win.peers[target].ctrl, win_mod.IDX_DYN_ID, "add", 0)
        if cached is None or cached[0] != current_id:
            self.cache_misses += 1
            yield from self._refetch(win, target, current_id)
        else:
            self.cache_hits += 1
        return self._find(win, target, vaddr, nbytes)

    def _find(self, win, target: int, vaddr: int, nbytes: int):
        """The cached descriptor of ``target``'s region holding the range;
        raises :class:`WindowError` when no attached region does."""
        for desc in self.cache[target][1]:
            if desc.contains(vaddr, nbytes):
                return desc
        raise WindowError(
            f"rank {win.rank}: dynamic-window access to unattached memory "
            f"{vaddr:#x}+{nbytes} at target {target}")

    def _refetch(self, win, target: int, current_id: int):
        """Discard and reload the remote region list (a real get whose size
        scales with the region count)."""
        ctx = win.ctx
        remote = win.peers[target].dyn
        n = max(1, len(remote.regions))
        yield from ctx.dmapp.get_b(remote.directory_desc, 0,
                                   n * win.params.dyn_descriptor_bytes)
        self.cache[target] = (current_id, list(remote.regions))


@dataclass
class OptimizedDynamicState(DynamicState):
    """Notification-based cache invalidation (the paper's optimization).

    * ``cachers``: ring of ranks holding a cached copy of *my* region
      list (they registered on first access / after invalidation),
    * ``inval``: ring into which targets push their rank when they detach,
      drained locally before each communication attempt.
    """

    cachers: SegmentCells = None
    inval: SegmentCells = None
    notifications_sent: int = 0
    invalidations_seen: int = 0

    def _ring_append(self, ring: SegmentCells, value: int):
        def mutate():
            for s in range(len(ring)):
                if ring.load(s) == 0:
                    ring.store(s, value + 1)
                    return s
            raise RmaError("dynamic-window notification ring overflow")
        return mutate

    def _drain_invalidations(self) -> None:
        for s in range(len(self.inval)):
            v = self.inval.load(s)
            if v != 0:
                self.cache.pop(v - 1, None)
                self.inval.store(s, 0)
                self.invalidations_seen += 1

    def resolve(self, win, target: int, vaddr: int, nbytes: int):
        """Optimized lookup: a *local* invalidation check replaces the
        remote id read -- cache hits cost no remote operations at all."""
        ctx = win.ctx
        self._drain_invalidations()
        if target not in self.cache:
            self.cache_misses += 1
            yield from self._refetch(win, target, 0)
            # register for detach notifications at the target
            remote = win.peers[target].dyn
            yield from ctx.amo_custom(
                target, remote._ring_append(remote.cachers, ctx.rank),
                win.params.instr_lock)
        else:
            self.cache_hits += 1
        return self._find(win, target, vaddr, nbytes)

    def notify_detach(self, win):
        """Before detach returns: invalidate every registered cacher and
        discard the remote process list (generator)."""
        ctx = win.ctx
        for s in range(len(self.cachers)):
            v = self.cachers.load(s)
            if v == 0:
                continue
            peer = v - 1
            self.cachers.store(s, 0)
            self.notifications_sent += 1
            other = win.peers[peer].dyn
            yield from ctx.amo_custom(
                peer, other._ring_append(other.inval, ctx.rank),
                win.params.instr_lock)


def attach(win, seg):
    """MPI_Win_attach: register and list a local memory region (O(1))."""
    st: DynamicState = win.dyn
    if any(d.seg_id == seg.seg_id for d in st.regions):
        raise WindowError("region already attached")
    desc = win.ctx.reg.register(seg)
    st.regions.append(desc)
    win.ctrl.fadd(win_mod.IDX_DYN_ID, 1)
    win.ctx.world.counters.add_control_memory(win.rank, 3)  # one list node
    yield from win.ctx.instr(200)  # registration syscall-ish cost
    return desc


def detach(win, desc):
    """MPI_Win_detach: unlist and deregister.  Remote caches are
    invalidated via the id counter (base protocol) or by explicit
    notifications (optimized protocol)."""
    st: DynamicState = win.dyn
    for i, d in enumerate(st.regions):
        if d.seg_id == desc.seg_id and d.generation == desc.generation:
            del st.regions[i]
            break
    else:
        raise WindowError("detaching a region that was never attached")
    win.ctx.reg.deregister(desc)
    win.ctrl.fadd(win_mod.IDX_DYN_ID, 1)
    if isinstance(st, OptimizedDynamicState):
        yield from st.notify_detach(win)
    win.ctx.world.counters.add_control_memory(win.rank, -3)
    yield from win.ctx.instr(200)
