"""Open-loop serving drivers: one client co-located with each store rank.

Each owner installs its partition of the keyspace, then replays its seeded
schedule (:func:`repro.serve.zipf.client_schedule`) open-loop: request
``i`` is *scheduled* at phase-relative time ``t_i``; if the client is
still busy when ``t_i`` passes, the request queues and its measured
latency includes the queueing delay (completion minus scheduled arrival)
-- the honest open-loop tail, not the coordinated-omission one.

Two store backends share the schedule: the RMA :class:`KvStore`
(:func:`kv_serve_program` here) and the MPI-1 active-message comparator
(:func:`repro.apps.kvstore.mpi1_kv.mpi1_kv_program`), which models the
paper's receiver involvement -- every remote request interrupts the
owner, exactly the cost fig7a's two-sided curve pays.
"""

from __future__ import annotations

import numpy as np

from repro.apps.hashtable.common import place_key
from repro.apps.kvstore.layout import KvLayout
from repro.apps.kvstore.rma_kv import KvStore
from repro.config import CheckConfig, MachineConfig, ObsConfig, SimConfig
from repro.ft.steps import run_steps
from repro.serve.zipf import OP_GET, OP_PUT, OP_UPDATE, ServeSpec, \
    client_schedule
from repro.sim.random import derive_seed

__all__ = ["kv_serve_program", "ft_kvstore", "run_kv_serve", "initial_value",
           "expected_contents", "merged_contents", "all_latencies"]

_MASK63 = (1 << 63) - 1


def initial_value(seed: int, key: int) -> int:
    """Preloaded value of ``key`` (shared by all backends + the model)."""
    return derive_seed(seed, f"kv-init-{key}") & _MASK63


# ----------------------------------------------------------------------
# RMA backend
# ----------------------------------------------------------------------
def _new_store(ctx, spec: ServeSpec, n_stripes: int) -> KvStore:
    layout = KvLayout.default(max(1, spec.nkeys // ctx.nranks + 1))
    return KvStore(ctx, layout, n_stripes=n_stripes)


def _preload(store: KvStore, spec: ServeSpec) -> None:
    """Owner-side preload through the local view, as the MPI-1 comparator
    installs its dict; the caller's barrier orders it before any remote
    access."""
    layout, nranks, rank = store.layout, store.ctx.nranks, store.ctx.rank
    store.win.note_local("store", layout.nbytes)
    volume = store.win.local_view(np.int64)
    owners, slots = place_key(np.arange(1, spec.nkeys + 1, dtype=np.uint64),
                              nranks, layout.table_slots)
    # The store keeps the placement for its requests: memoryviews of the
    # narrowest unsigned type, which index to int (as lists, 64 ranks'
    # placements held ~0.5 MB).
    store.owners = memoryview(owners.astype(np.min_scalar_type(nranks - 1)))
    store.slots = memoryview(
        slots.astype(np.min_scalar_type(layout.table_slots - 1)))
    mine = np.flatnonzero(owners == rank)     # ascending, as placed
    for key, slot in zip(mine.tolist(), slots[mine].tolist()):
        layout.insert_local(volume, slot, key + 1,
                            initial_value(spec.seed, key))


def _request(store: KvStore, op: int, key: int, value: int):
    """The store generator of one schedule request (0-based ``key``)."""
    if op == OP_GET:
        return store.get(key + 1)
    if op == OP_PUT:
        return store.put(key + 1, value)
    return store.update(key + 1, value)


def _lat_row(ctx, t_arr: int, op: int) -> tuple[int, int, int]:
    """The ``(scheduled, completed, op)`` row of a request done now."""
    done = ctx.env.now
    if ctx.obs is not None:
        ctx.obs.metrics.observe("kv.latency_ns", ctx.rank, done - t_arr)
    return t_arr, done, op


def kv_serve_program(ctx, spec: ServeSpec, n_stripes: int = 8):
    """One rank of the RMA serving phase.

    Returns ``(lat, contents)``: ``lat`` is an int64 array of
    ``(scheduled_ns, completed_ns, op)`` rows, ``contents`` this rank's
    final (key, value) partition from the post-barrier occupancy scan.
    Schedule keys are 0-based; the store keys are ``key + 1`` (zero
    marks an empty slot word).
    """
    store = _new_store(ctx, spec, n_stripes)
    yield from store.setup()
    _preload(store, spec)
    yield from ctx.coll.barrier()

    sched = client_schedule(spec, ctx.rank, ctx.nranks)
    lat = np.zeros((len(sched), 3), dtype=np.int64)
    env = ctx.env
    t0 = env.now
    for i, row in enumerate(sched):
        # Row by row: a whole-schedule list would hold ~1 MB.
        t_rel, op, key, value = row.tolist()
        t_arr = t0 + t_rel
        if env.now < t_arr:
            yield t_arr - env.now
        yield from _request(store, op, key, value)
        lat[i] = _lat_row(ctx, t_arr, op)

    yield from store.win.flush_all()
    # Orders every rank's remote operations before the local scans.
    yield from ctx.coll.barrier()
    contents = store.scan_local()
    yield from store.close()
    return lat, contents


def ft_kvstore(ctx, spec: ServeSpec | None = None, n_stripes: int = 8):
    """One rank of crash-through serving: :func:`kv_serve_program`'s
    store, preload and dispatch, one request per
    :func:`~repro.ft.run_steps` step, so a node crash mid-serve recovers
    to the fault-free final store bit for bit.

    Replay is deterministic because every access of a serving run on
    preloaded keys, the ``NO_OP`` reads included, is a sequence-numbered
    NIC atomic: a restarted rank reads its pre-crash answers back from
    the injector's replay cache and retraces its control flow (DESIGN.md
    section 10).  That needs the single-writer schedule
    (``ServeSpec.ft_mode``) and one rank per node -- a rank's accesses to
    its own partition would take the unlogged XPMEM path.

    ``spec`` defaults to a small ``ft_mode`` schedule on the run's seed.
    Returns ``(lat, state)``: latency rows as :func:`kv_serve_program`
    (a restarted incarnation reports only its post-restore rows) and the
    rank's final store volume as ``bytes`` (:meth:`KvLayout.scan`
    decodes it).
    """
    if spec is None:
        spec = ServeSpec(nkeys=64, total_requests=200,
                         seed=ctx.world.sim.seed, ft_mode=True)
    if not spec.ft_mode:
        raise ValueError("crash-through serving needs the single-writer "
                         "schedule (ServeSpec.ft_mode)")
    store = _new_store(ctx, spec, n_stripes)
    sched = client_schedule(spec, ctx.rank, ctx.nranks)
    lat: list = []
    t_base = None

    def create():
        win = yield from store.setup()
        _preload(store, spec)
        done = yield from ctx.rma.win_allocate(8, disp_unit=8)
        yield from ctx.coll.barrier()
        return (win, done), done, 0

    def serve(windows, i):
        nonlocal t_base
        t_rel, op, key, value = sched[i].tolist()
        if t_base is None:
            # First request of this incarnation.  Arrivals stay
            # schedule-relative from here: a restarted rank re-bases at
            # its restart request, so the checkpointed backlog drains
            # immediately (that catch-up IS the recovery cost measured).
            if store.win is None:
                store.bind(windows[0])
            t_base = ctx.now - t_rel
        t_arr = t_base + t_rel
        if ctx.now < t_arr:
            yield t_arr - ctx.now
        yield from _request(store, op, key, value)
        lat.append(_lat_row(ctx, t_arr, op))

    win, _done = yield from run_steps(ctx, create, len(sched), serve)
    return (np.array(lat, dtype=np.int64).reshape(-1, 3),
            win.seg.snapshot_bytes()[:store.layout.nbytes])


def run_kv_serve(nranks: int, spec: ServeSpec, *, variant: str = "rma",
                 n_stripes: int = 8, ranks_per_node: int = 8,
                 check: bool = False):
    """One-shot serving run against the RMA store (``variant="rma"``) or
    the MPI-1 comparator (``"mpi1"``), with observability (and
    optionally the race checker) attached."""
    from repro.runtime.job import run_spmd

    if variant == "rma":
        program, args = kv_serve_program, (spec, n_stripes)
    elif variant == "mpi1":
        # not at module level: mpi1_kv imports this module
        from repro.apps.kvstore.mpi1_kv import mpi1_kv_program

        program, args = mpi1_kv_program, (spec,)
    else:
        raise ValueError(f"unknown kv serve variant {variant!r}")
    return run_spmd(program, nranks, *args,
                    machine=MachineConfig(ranks_per_node=ranks_per_node),
                    sim=SimConfig(seed=spec.seed),
                    obs=ObsConfig(enabled=True),
                    check=CheckConfig(enabled=True) if check else None)


# ----------------------------------------------------------------------
# verification helpers
# ----------------------------------------------------------------------
def all_latencies(result) -> np.ndarray:
    """Per-request latencies (completed - scheduled) across all ranks;
    raises the first rank failure."""
    rows = []
    for value in result.returns:
        if isinstance(value, BaseException):
            raise value
        rows.append(value[0])
    lat = np.concatenate(rows) if rows else np.zeros((0, 3), np.int64)
    return lat[:, 1] - lat[:, 0]


def merged_contents(result) -> dict[int, int]:
    """Union of all ranks' final partitions (1-based store keys)."""
    merged: dict[int, int] = {}
    for value in result.returns:
        if isinstance(value, BaseException):
            raise value
        merged.update(value[1])
    return merged


def expected_contents(spec: ServeSpec, nclients: int):
    """Replay the schedules into a model: returns (key set, and for keys
    never PUT, the deterministic final value).

    PUT overwrites resolve by timing against other clients' PUTs and
    UPDATEs (last writer wins), so only the key *set* is
    schedule-independent for them; keys touched by GETs/UPDATEs only
    keep a deterministic value (updates commute and are applied under
    CAS).  Both returned structures use 1-based store keys."""
    keys = {k + 1 for k in range(spec.nkeys)}
    put_by: dict[int, set] = {}
    deltas: dict[int, int] = {}
    for client in range(nclients):
        for t, op, key, value in client_schedule(spec, client, nclients):
            k = int(key) + 1
            if op == OP_PUT:
                put_by.setdefault(k, set()).add(client)
            elif op == OP_UPDATE:
                deltas[k] = (deltas.get(k, 0) + int(value)) & _MASK63
    determined = {}
    for k in keys:
        if k in put_by:
            continue
        determined[k] = (initial_value(spec.seed, k - 1)
                         + deltas.get(k, 0)) & _MASK63
    return keys, determined
