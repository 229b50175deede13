"""Crash-through serving: the KV workload over rollback recovery.

The full chained store (:mod:`repro.apps.kvstore.rma_kv`) cannot run on
log-protected windows -- its REPLACE-link path and CAS-update are fine
(hardware AMOs), but the *software*-fallback risk and the MCS control
words living outside the logged data volume make replay incomplete.  The
FT serving mode therefore mirrors :func:`repro.workloads.ft_hashtable`
and restructures the store V1-style:

* **Direct-mapped values.**  Key ``k`` owns one 8-byte word on rank
  ``k % nranks`` at byte ``(k // nranks) * 8``; GET is a plain get, PUT
  a hardware REPLACE and UPDATE a hardware FADD (both logged at the
  target and exactly-once under replay via the injector's AMO dedup
  cache; a plain put would be re-applied by a restarted rank and wipe
  the deduplicated UPDATEs that followed it).

* **Single-writer mutations.**  The schedule runs with
  ``ServeSpec.ft_mode`` so each key is mutated by exactly one client
  (:func:`repro.serve.zipf.mutator_of`); with per-rank program order
  preserved (every mutation is a blocking fetch), the final bytes are a
  pure function of the seed -- bit-comparable between the crashed and
  fault-free runs.

* **Collective-free steady state** after window creation: checkpoints
  every ``FTConfig.interval`` requests, completion via a counter in
  window memory, one rank per node (the V1 put-log requirement).

The availability gap is read off the recovered run's observability
timeline: crash instant to the end of the ``ft.restore`` NIC span; the
post-recovery p99 is the tail over requests completing after that point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import NodeCrash, ObsConfig, RunResult, SimConfig
from repro.ft.workloads import ft_faults, ft_machine
from repro.rma.enums import Op
from repro.serve.driver import initial_value
from repro.serve.slo import exact_percentiles
from repro.serve.zipf import OP_GET, OP_PUT, ServeSpec, client_schedule

__all__ = ["ft_kv_serve", "run_kv_ft", "run_kv_crash_to_completion",
           "state_bytes", "restore_end_ns", "KvFtOutcome"]

_POLL_NS = 500  # completion-counter poll backoff


def _nlocal(spec: ServeSpec, nranks: int) -> int:
    return (spec.nkeys + nranks - 1) // nranks


def ft_kv_serve(ctx, spec: ServeSpec):
    """One rank of the crash-through serving phase.

    Returns ``(lat, state)``: latency rows ``(scheduled_ns,
    completed_ns, op)`` -- a restarted incarnation reports only its
    post-restore rows -- and the rank's final value region as ``bytes``.
    """
    rank, nranks = ctx.rank, ctx.nranks
    nlocal = _nlocal(spec, nranks)
    size = nlocal * 8 + 8  # value words + completion counter
    ft = ctx.ft
    interval = ft.rt.cfg.interval if ft is not None else 0
    sched = client_schedule(spec, rank, nranks)

    restarting = ft is not None and ft.restarting
    if restarting:
        st = ft.restored_state()
        win = ft.adopt(st["win_id"])
        start_i = st["next_i"]
    else:
        win = yield from ctx.rma.win_allocate(size, disp_unit=1)
        if ft is not None:
            ft.protect(win)
        start_i = 0

    yield from win.lock_all()
    # Not on a restart from the v0 checkpoint (next_i == 0 there too):
    # the restored window already holds the preload plus every logged
    # mutation since, which a second preload would wipe.
    if not restarting:
        # Preload this rank's slots, then take the v0 checkpoint so the
        # local writes are inside the restart line.
        for key in range(rank, spec.nkeys, nranks):
            val = np.array([initial_value(spec.seed, key)], np.int64)
            yield from win.put(val, rank, (key // nranks) * 8)
        yield from win.flush_all()
        if ft is not None:
            yield from ft.checkpoint(win, {"win_id": win.win_id,
                                           "next_i": 0})

    lat = []
    # Pacing baseline: arrivals stay schedule-relative; a restarted rank
    # re-bases at its restart request, so the checkpointed backlog drains
    # immediately (that catch-up IS the recovery cost being measured).
    t_base = ctx.now - (int(sched[start_i, 0]) if start_i < len(sched)
                        else 0)
    for i in range(start_i, len(sched)):
        t_arr = t_base + int(sched[i, 0])
        if ctx.now < t_arr:
            yield ctx.env.timeout(t_arr - ctx.now)
        op, key, value = int(sched[i, 1]), int(sched[i, 2]), int(sched[i, 3])
        owner, off = key % nranks, (key // nranks) * 8
        if op == OP_GET:
            yield from win.get_blocking(owner, off, 8, np.int64)
        elif op == OP_PUT:
            # An atomic REPLACE, not a put: a restarted rank re-executes
            # its interval, and a re-applied put would wipe an UPDATE of
            # the same key that the dedup cache then (rightly) skips.
            yield from win.fetch_and_op(np.int64(value), owner, off,
                                        Op.REPLACE)
        else:
            yield from win.fetch_and_op(np.int64(value), owner, off,
                                        Op.SUM)
        lat.append((t_arr, ctx.now, op))
        if ft is not None and interval and (i + 1) % interval == 0:
            yield from win.flush_all()
            yield from ft.checkpoint(win, {"win_id": win.win_id,
                                           "next_i": i + 1})

    yield from win.flush_all()
    # Collective-free completion: bump rank 0's counter, poll until all
    # ranks arrived (re-executed bumps deduped by the replay cache).
    done_off = nlocal * 8
    yield from win.fetch_and_op(1, 0, done_off, Op.SUM)
    while True:
        count = yield from win.fetch_and_op(0, 0, done_off, Op.SUM)
        if count >= nranks:
            break
        yield from ctx.compute(_POLL_NS)
    yield from win.unlock_all()
    return (np.array(lat, dtype=np.int64).reshape(-1, 3),
            win.seg.snapshot_bytes()[:nlocal * 8])


# ----------------------------------------------------------------------
# run helpers
# ----------------------------------------------------------------------
def run_kv_ft(nranks: int, spec: ServeSpec, *, faults,
              obs: bool = True) -> RunResult:
    from repro.runtime.job import run_spmd

    return run_spmd(ft_kv_serve, nranks, spec, machine=ft_machine(),
                    sim=SimConfig(seed=spec.seed), faults=faults,
                    obs=ObsConfig(enabled=True) if obs else None)


def state_bytes(result: RunResult) -> bytes:
    """Concatenated final value regions; raises the first rank failure."""
    chunks = []
    for value in result.returns:
        if isinstance(value, BaseException):
            raise value
        chunks.append(value[1])
    return b"".join(chunks)


def restore_end_ns(result: RunResult) -> int | None:
    """End of the last ``ft.restore`` span (None if no restore ran)."""
    if result.obs is None:
        return None
    ends = [s.end_ns() for s in result.obs.spans.spans
            if s.name == "ft.restore"]
    return max(ends) if ends else None


@dataclass
class KvFtOutcome:
    """One crash-through serving experiment."""

    reference: RunResult
    recovered: RunResult
    crash_rank: int
    crash_time_ns: int
    match: bool
    availability_gap_ns: int
    post_recovery_p99_ns: int

    def report_section(self) -> dict:
        return {
            "crash_rank": self.crash_rank,
            "crash_time_ns": self.crash_time_ns,
            "state_match": self.match,
            "availability_gap_ns": self.availability_gap_ns,
            "post_recovery_p99_ns": self.post_recovery_p99_ns,
            "ranks_restored": self.recovered.stats.get(
                "recovery", {}).get("ranks_restored", 0),
        }


def run_kv_crash_to_completion(nranks: int, spec: ServeSpec, *,
                               crash_rank: int = 1,
                               crash_frac: float = 0.5,
                               mode: str = "spare", interval: int = 16,
                               policy: str = "log") -> KvFtOutcome:
    """Crash ``crash_rank`` mid-serve, recover, and compare the final
    store bytes bit-for-bit against a fault-free (but checkpointing)
    reference run of the same spec."""
    import dataclasses as _dc

    spec = _dc.replace(spec, ft_mode=True)
    faults0 = ft_faults(mode=mode, interval=interval, policy=policy)
    ref = run_kv_ft(nranks, spec, faults=faults0)
    t = max(1, int(ref.sim_time_ns * crash_frac))
    faults = ft_faults(crashes=(NodeCrash(crash_rank, t),), mode=mode,
                       interval=interval, policy=policy)
    rec = run_kv_ft(nranks, spec, faults=faults)

    end = restore_end_ns(rec)
    gap = max(0, end - t) if end is not None else 0
    post = []
    for value in rec.returns:
        if isinstance(value, BaseException):
            raise value
        rows = value[0]
        if end is not None and rows.size:
            done = rows[:, 1]
            post.extend((rows[done >= end, 1]
                         - rows[done >= end, 0]).tolist())
    p99 = exact_percentiles(post)["p99"] if post else 0
    return KvFtOutcome(reference=ref, recovered=rec,
                       crash_rank=crash_rank, crash_time_ns=t,
                       match=state_bytes(rec) == state_bytes(ref),
                       availability_gap_ns=gap,
                       post_recovery_p99_ns=p99)
