"""The six benchmark workloads.

Each workload turns ``--seed`` into inputs (sizes, keys, schedules), names
the SPMD program and its arguments, and knows how to check a finished run
and read the simulated-clock numbers out of it.  The program receives only
the generated inputs, never the seed's provenance or the workload's name.

Why these six, which layers each one stresses and which it bypasses is
recorded in ``README.md`` (and, in one line each, in ``BENCHMARK.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.apps.hashtable import HashTableLayout, rma_insert_program
from repro.apps.hashtable.common import verify_contents
from repro.apps.kvstore.layout import KvLayout
from repro.apps.kvstore.mpi1_kv import mpi1_kv_program
from repro.apps.milc import MilcSpec, milc_program
from repro.config import CheckConfig, MachineConfig, ObsConfig, SimConfig
from repro.rma.enums import Op
from repro.runtime.job import Job
from repro.serve.driver import (
    expected_contents,
    kv_serve_program,
    merged_contents,
)
from repro.serve.slo import exact_percentiles
from repro.serve.zipf import ServeSpec, client_schedule
from repro.sim.random import stream

__all__ = ["WORKLOADS", "Outcome", "make", "percentiles_us"]

# Same value as repro.bench.microbench.INTER_2; not imported from there
# because importing the repro.bench package loads the run cache and the
# process pool, which this benchmark must never touch.
INTER_2 = MachineConfig(ranks_per_node=1)

# Paper performance functions (EXPERIMENTS.md), in ns.
P_PUT = (1000.0, 0.16)        # base, per byte
P_GET = (1900.0, 0.17)
P_CAS = 2400.0
P_ACC_SUM = (2400.0, 28.0)    # base, per element
O_INJECT = 416.0


@dataclass
class Outcome:
    """What one finished run says on the simulated clock."""

    makespan_ns: int            # simulated time of the measured phase
    latencies_ns: np.ndarray    # per-operation latency sample
    extra: dict = field(default_factory=dict)   # workload-specific numbers


def _rel_err_pct(measured: float, model: float) -> float:
    return abs(measured - model) / model * 100.0


class Workload:
    """Base: a seeded input set plus the launch configuration."""

    name = ""
    nranks = 2
    machine = INTER_2
    #: (owner, attribute) pairs whose calls delimit one application
    #: operation; the tracer wraps them as ``op`` spans.
    op_targets: tuple = ()

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def job(self, *, obs: bool = False, check: bool = False) -> Job:
        return Job(nranks=self.nranks, machine=self.machine,
                   sim=SimConfig(seed=self.seed),
                   obs=ObsConfig(enabled=obs),
                   check=CheckConfig(enabled=check))

    def launch(self):
        """(program, args) for ``run_on_world``."""
        raise NotImplementedError

    def verify(self, result) -> int:
        """Number of operations of ``result`` that failed or left wrong
        output (0 for a correct run)."""
        raise NotImplementedError

    def outcome(self, result, op_spans) -> Outcome:
        """The simulated-clock numbers of ``result``.  ``op_spans`` are
        the (rank, t0, t1, name) operation spans of the run, for the
        workloads whose programs do not time their own operations."""
        raise NotImplementedError

    def trace_since(self, result, op_spans) -> int:
        """Simulated time at which the measured phase of ``result``
        starts; spans before it (set-up, preload) are not attributed."""
        return min((t0 for _rank, t0, _t1, _name in op_spans), default=0)

    def small(self) -> "Workload":
        """The smoke-sized instance of this workload, on which the
        instruments' on/off costs are measured (a checked full-size
        stream alone would take minutes)."""
        return self if self.smoke else type(self)(self.seed, smoke=True)

    def sizes(self) -> dict:
        """Problem sizes, for the provenance block."""
        return {"nranks": self.nranks,
                "ranks_per_node": self.machine.ranks_per_node}


# ----------------------------------------------------------------------
# put_stream
# ----------------------------------------------------------------------
def put_flush(win, data, disp):
    """One closed-loop write: put + remote completion."""
    yield from win.put(data, 1, disp)
    yield from win.flush(1)


def put_burst(win, pool, starts, disps, nbytes):
    """A burst of back-to-back puts completed by one flush; returns the
    simulated time at which the last put was issued."""
    for s, d in zip(starts, disps):
        yield from win.put(pool[s:s + nbytes], 1, d)
    issued = win.ctx.now
    yield from win.flush(1)
    return issued


@dataclass(frozen=True)
class PutPlan:
    win_bytes: int
    pool: np.ndarray            # seeded payload bytes
    lat: np.ndarray             # rows (pool start, disp): 8 B put+flush
    bursts: np.ndarray          # [burst, 64, (pool start, disp)]: 8 B puts
    bulk: np.ndarray            # rows (pool start, disp): 64 KiB put+flush
    mix: np.ndarray             # rows (pool start, disp, nbytes)


def put_stream_program(ctx, plan: PutPlan):
    win = yield from ctx.rma.win_allocate(plan.win_bytes)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    out = None
    if ctx.rank == 0:
        pool = plan.pool
        t0 = ctx.now
        for s, d in plan.lat.tolist():
            yield from put_flush(win, pool[s:s + 8], d)
        t1 = ctx.now
        issue_ns = 0
        for burst in plan.bursts.tolist():
            tb = ctx.now
            issued = yield from put_burst(
                win, pool, [b[0] for b in burst], [b[1] for b in burst], 8)
            issue_ns += issued - tb
        t2 = ctx.now
        for s, d in plan.bulk.tolist():
            yield from put_flush(win, pool[s:s + 65536], d)
        t3 = ctx.now
        lat = np.empty(len(plan.mix), np.int64)
        for i, (s, d, n) in enumerate(plan.mix.tolist()):
            ts = ctx.now
            yield from put_flush(win, pool[s:s + n], d)
            lat[i] = ctx.now - ts
        out = {"lat8_ns": t1 - t0, "issue_ns": issue_ns, "bulk_ns": t3 - t2,
               "makespan_ns": ctx.now - t0, "mix_lat_ns": lat}
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    if ctx.rank == 1:
        out = win.local_view(np.uint8).copy()
    return out


class PutStream(Workload):
    name = "put_stream"
    op_targets = (("perfbench.workloads", "put_flush"),
                  ("perfbench.workloads", "put_burst"))

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        n_lat, n_burst, n_bulk, n_mix = \
            (200, 8, 20, 600) if smoke else (6000, 120, 400, 6000)
        rng = stream(seed, "perfbench-put")
        win = 128 * 1024
        pool = rng.integers(0, 256, size=256 * 1024, dtype=np.uint8)

        def rows(n, nbytes):
            return np.stack([rng.integers(0, pool.size - nbytes, size=n),
                             8 * rng.integers(0, (win - nbytes) // 8 + 1,
                                              size=n)], axis=1)

        lat = rows(n_lat, 8)
        bursts = np.empty((n_burst, 64, 2), np.int64)
        for b in range(n_burst):
            # Distinct targets inside a burst: unflushed puts may land in
            # any order, so overlapping ones would make the check racy.
            bursts[b, :, 0] = rng.integers(0, pool.size - 8, size=64)
            bursts[b, :, 1] = 8 * rng.choice(win // 8, size=64,
                                             replace=False)
        bulk = rows(n_bulk, 65536)
        # Seeded size mix, log-uniform 64 B .. 64 KiB in 8-byte steps: the
        # latency sample.  Most of it lies above ~300 B, where latency
        # grows with size, so its quantiles move with the seed.
        nbytes = 8 * np.rint(2.0 ** rng.uniform(3, 13, size=n_mix)) \
            .astype(np.int64)
        mix = np.stack([rng.integers(0, pool.size - 65536, size=n_mix),
                        8 * (rng.integers(0, 1 << 30, size=n_mix)
                             % ((win - nbytes) // 8 + 1)),
                        nbytes], axis=1)
        self.plan = PutPlan(win, pool, lat, bursts, bulk, mix)
        self.ops = n_lat + 64 * n_burst + n_bulk + n_mix

    def launch(self):
        return put_stream_program, (self.plan,)

    def sizes(self):
        p = self.plan
        return {**super().sizes(), "puts_8B": len(p.lat),
                "bursts_of_64": len(p.bursts), "puts_64KiB": len(p.bulk),
                "puts_mixed": len(p.mix), "window_bytes": p.win_bytes}

    @cached_property
    def _expected_buffer(self) -> np.ndarray:
        p = self.plan
        buf = np.zeros(p.win_bytes, np.uint8)
        writes = ([(s, d, 8) for s, d in p.lat.tolist()]
                  + [(s, d, 8) for s, d in p.bursts.reshape(-1, 2).tolist()]
                  + [(s, d, 65536) for s, d in p.bulk.tolist()]
                  + p.mix.tolist())
        for s, d, n in writes:
            buf[d:d + n] = p.pool[s:s + n]
        return buf

    def verify(self, result):
        # A wrong byte cannot be pinned on one put: any mismatch fails
        # the whole stream.
        target = result.returns[1]
        return 0 if np.array_equal(target, self._expected_buffer) \
            else self.ops

    def outcome(self, result, op_spans):
        got = result.returns[0]
        p = self.plan
        errs = {
            "put_8B": _rel_err_pct(got["lat8_ns"] / len(p.lat),
                                   P_PUT[0] + P_PUT[1] * 8),
            "inject_8B": _rel_err_pct(
                got["issue_ns"] / (64 * len(p.bursts)), O_INJECT),
            "put_64KiB": _rel_err_pct(got["bulk_ns"] / len(p.bulk),
                                      P_PUT[0] + P_PUT[1] * 65536),
        }
        return Outcome(int(got["makespan_ns"]), got["mix_lat_ns"],
                       {"model_err_pct": max(errs.values()),
                        "model_errs_pct": errs})


# ----------------------------------------------------------------------
# get_amo_stream
# ----------------------------------------------------------------------
def get_op(win, disp, nbytes):
    return (yield from win.get_blocking(1, disp, nbytes, np.int64))


def cas_op(win, compare, swap, disp):
    return (yield from win.compare_and_swap(np.int64(compare),
                                            np.int64(swap), 1, disp))


def fao_op(win, value, disp):
    return (yield from win.fetch_and_op(np.int64(value), 1, disp, Op.SUM))


def acc_op(win, values, disp):
    yield from win.accumulate(values, 1, disp, Op.SUM)
    yield from win.flush(1)


@dataclass(frozen=True)
class AmoPlan:
    words: int                  # window size in 8-byte words
    init: np.ndarray            # target's initial contents (int64)
    gets: np.ndarray            # word displacements of the 8 B gets
    cas: np.ndarray             # rows (compare, swap): on word CAS_WORD
    fao: np.ndarray             # addends: on word FAO_WORD
    acc: np.ndarray             # [op, 64] addends: on words ACC_BASE..
    mix: np.ndarray             # rows (word disp, nbytes): seeded gets


# Word layout of the target window: read-only region first, then the
# words the atomics mutate (so a get is never racing an atomic).
_RO_WORDS = 8192
_CAS_WORD = _RO_WORDS
_FAO_WORD = _RO_WORDS + 1
_ACC_BASE = _RO_WORDS + 8


def get_amo_stream_program(ctx, plan: AmoPlan):
    win = yield from ctx.rma.win_allocate(plan.words * 8, disp_unit=8)
    if ctx.rank == 1:
        win.local_store(plan.init.view(np.uint8))
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    out = None
    if ctx.rank == 0:
        # The four kinds are interleaved, not run as four phases: the
        # progress watchdog takes a long run of atomics with no data
        # movement in between for a livelock.
        t0 = ctx.now
        got, cas_old, fao_old = [], [], []
        ns = {"get": 0, "cas": 0, "fao": 0, "acc": 0}
        gets, cas, fao = plan.gets.tolist(), plan.cas.tolist(), \
            plan.fao.tolist()
        every = len(gets) // len(plan.acc)
        for i in range(len(gets)):
            ta = ctx.now
            got.append(int((yield from get_op(win, gets[i], 8))[0]))
            tb = ctx.now
            cas_old.append(int((yield from cas_op(win, *cas[i],
                                                  _CAS_WORD))))
            tc = ctx.now
            fao_old.append(int((yield from fao_op(win, fao[i], _FAO_WORD))))
            td = ctx.now
            ns["get"] += tb - ta
            ns["cas"] += tc - tb
            ns["fao"] += td - tc
            if i % every == 0:
                yield from acc_op(win, plan.acc[i // every], _ACC_BASE)
                ns["acc"] += ctx.now - td
        lat = np.empty(len(plan.mix), np.int64)
        mix_sum = 0
        for i, (d, n) in enumerate(plan.mix.tolist()):
            ts = ctx.now
            words = yield from get_op(win, d, n)
            lat[i] = ctx.now - ts
            mix_sum += int(words.sum())
        out = {"get_ns": ns["get"], "cas_ns": ns["cas"],
               "fao_ns": ns["fao"], "acc_ns": ns["acc"],
               "makespan_ns": ctx.now - t0,
               "mix_lat_ns": lat, "got": np.array(got, np.int64),
               "cas_old": np.array(cas_old, np.int64),
               "fao_old": np.array(fao_old, np.int64), "mix_sum": mix_sum}
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    if ctx.rank == 1:
        out = win.local_view(np.int64).copy()
    return out


class GetAmoStream(Workload):
    name = "get_amo_stream"
    op_targets = tuple(("perfbench.workloads", f)
                       for f in ("get_op", "cas_op", "fao_op", "acc_op"))

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        # n_each gets, CASes and fetch-and-ops, one accumulate per two
        n_each, n_mix = (100, 600) if smoke else (3000, 6000)
        n_get = n_cas = n_fao = n_each
        n_acc = n_each // 2
        rng = stream(seed, "perfbench-amo")
        words = _ACC_BASE + 64
        init = rng.integers(1, 1 << 40, size=words, dtype=np.int64)
        gets = rng.integers(0, _RO_WORDS, size=n_get)
        # One CAS in four carries a stale compare value and must fail.
        swaps = rng.integers(1, 1 << 40, size=n_cas)
        stale = rng.random(n_cas) < 0.25
        cas = np.empty((n_cas, 2), np.int64)
        current = int(init[_CAS_WORD])
        for i in range(n_cas):
            cas[i] = (current ^ 1 if stale[i] else current, swaps[i])
            if not stale[i]:
                current = int(swaps[i])
        fao = rng.integers(1, 1 << 20, size=n_fao)
        acc = rng.integers(1, 1 << 20, size=(n_acc, 64), dtype=np.int64)
        # Same size mix as put_stream's, read instead of written.
        nbytes = 8 * np.rint(2.0 ** rng.uniform(3, 13, size=n_mix)) \
            .astype(np.int64)
        mix = np.stack([rng.integers(0, 1 << 30, size=n_mix)
                        % (_RO_WORDS - nbytes // 8 + 1), nbytes], axis=1)
        self.plan = AmoPlan(words, init, gets, cas, fao, acc, mix)
        self.ops = n_get + n_cas + n_fao + n_acc + n_mix

    def launch(self):
        return get_amo_stream_program, (self.plan,)

    def sizes(self):
        p = self.plan
        return {**super().sizes(), "gets_8B": len(p.gets),
                "cas": len(p.cas), "fetch_and_op": len(p.fao),
                "accumulate_64": len(p.acc), "gets_mixed": len(p.mix)}

    def verify(self, result):
        got, target = result.returns
        p = self.plan
        # Expected values from a sequential replay (one origin, every
        # atomic completes before the next is issued).
        cas_state = [int(p.init[_CAS_WORD])]
        for compare, swap in p.cas.tolist():
            cas_state.append(swap if compare == cas_state[-1]
                             else cas_state[-1])
        fao_state = int(p.init[_FAO_WORD]) + np.concatenate(
            [[0], np.cumsum(p.fao)])
        final = p.init.copy()
        final[_CAS_WORD] = cas_state[-1]
        final[_FAO_WORD] = fao_state[-1]
        final[_ACC_BASE:_ACC_BASE + 64] += p.acc.sum(axis=0)
        csum = np.concatenate([[0], np.cumsum(p.init[:_RO_WORDS])])
        mix_sum = int(sum(csum[d + n // 8] - csum[d]
                          for d, n in p.mix.tolist()))
        failed = (
            int(np.count_nonzero(got["got"] != p.init[p.gets]))
            + int(np.count_nonzero(got["cas_old"] != cas_state[:-1]))
            + int(np.count_nonzero(got["fao_old"] != fao_state[:-1]))
            + (len(p.mix) if got["mix_sum"] != mix_sum else 0)
            + (len(p.acc) if not np.array_equal(target, final) else 0))
        return min(failed, self.ops)

    def outcome(self, result, op_spans):
        got = result.returns[0]
        p = self.plan
        errs = {
            "get_8B": _rel_err_pct(got["get_ns"] / len(p.gets),
                                   P_GET[0] + P_GET[1] * 8),
            "cas": _rel_err_pct(got["cas_ns"] / len(p.cas), P_CAS),
            "acc_sum_64": _rel_err_pct(got["acc_ns"] / len(p.acc),
                                       P_ACC_SUM[0] + P_ACC_SUM[1] * 64),
        }
        return Outcome(int(got["makespan_ns"]), got["mix_lat_ns"],
                       {"model_err_pct": max(errs.values()),
                        "model_errs_pct": errs})


# ----------------------------------------------------------------------
# hashtable_p256
# ----------------------------------------------------------------------
class Hashtable(Workload):
    name = "hashtable_p256"
    op_targets = (("repro.apps.hashtable.rma_ht", "rma_insert"),)

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.nranks, self.inserts = (32, 32) if smoke else (256, 64)
        self.machine = MachineConfig(
            ranks_per_node=8 if smoke else 32)
        self.layout = HashTableLayout.default(self.inserts)
        self.ops = self.nranks * self.inserts
        self._box: dict = {}

    def launch(self):
        # The keys come from ctx.rng("ht-keys"), i.e. from SimConfig.seed.
        self._box = {}
        return rma_insert_program, (self.layout, self.inserts, self._box)

    def sizes(self):
        return {**super().sizes(), "inserts_per_rank": self.inserts,
                "table_slots": self.layout.table_slots}

    def verify(self, result):
        box = self._box
        volumes = [box["volumes"][r] for r in range(self.nranks)]
        stored = sum(len(self.layout.all_contents(v)) for v in volumes)
        if stored != self.ops:
            return abs(self.ops - stored)
        try:
            verify_contents(self.layout, volumes,
                            [box["keys"][r] for r in range(self.nranks)])
        except AssertionError:
            return self.ops
        return 0

    def outcome(self, result, op_spans):
        lat = np.array([t1 - t0 for _r, t0, t1, _n in op_spans], np.int64)
        return Outcome(int(max(result.returns)), lat)


# ----------------------------------------------------------------------
# kv_zipf_rma / kv_zipf_mpi1
# ----------------------------------------------------------------------
def percentiles_us(sample_ns, *qs) -> list[float]:
    """Nearest-rank percentiles of a nanosecond sample, in microseconds
    (the serving report's rule: every reported value was observed)."""
    got = exact_percentiles(sample_ns, [(str(q), float(q)) for q in qs])
    return [got[str(q)] / 1e3 for q in qs]


class KvZipf(Workload):
    """Open loop: every client replays a seeded Poisson/Zipf schedule and
    a request's latency runs from its *scheduled* arrival."""

    nranks = 64
    machine = MachineConfig(ranks_per_node=8)
    #: offered per-client rates of the ladder, Hz
    RUNGS_HZ = (5_000, 10_000, 20_000, 50_000)
    #: the rung the host clock is measured on (BENCH_simperf `serve`)
    HOST_RUNG_HZ = 50_000
    N_STRIPES = 8

    def __init__(self, seed, smoke=False, rate_hz=HOST_RUNG_HZ):
        super().__init__(seed, smoke)
        if smoke:
            self.nranks = 16
        self.spec = ServeSpec(total_requests=400 if smoke else 6400,
                              rate_hz=float(rate_hz), seed=seed)
        self.ops = self.spec.total_requests

    def at_rate(self, rate_hz: int) -> "KvZipf":
        """The same schedule offered at another per-client rate."""
        return type(self)(self.seed, self.smoke, rate_hz)

    def sizes(self):
        s = self.spec
        return {**super().sizes(), "requests": s.total_requests,
                "nkeys": s.nkeys, "theta": s.theta, "rate_hz": s.rate_hz,
                "get_frac": s.get_frac, "update_frac": s.update_frac}

    def hot_owner_share(self) -> float:
        """Share of all requests addressed to the busiest owner rank."""
        layout = KvLayout.default(max(1, self.spec.nkeys // self.nranks + 1))
        owners = np.zeros(self.nranks, np.int64)
        for client in range(self.nranks):
            keys = client_schedule(self.spec, client, self.nranks)[:, 2]
            for key, n in zip(*np.unique(keys, return_counts=True)):
                owners[layout.place(int(key) + 1, self.nranks)[0]] += n
        return float(owners.max() / owners.sum())

    @cached_property
    def _expected(self):
        return expected_contents(self.spec, self.nranks)

    def verify(self, result):
        keys, determined = self._expected
        got = merged_contents(result)
        wrong = len(keys ^ set(got)) + sum(
            1 for k, v in determined.items() if got.get(k) != v)
        return min(wrong, self.ops)

    def trace_since(self, result, op_spans):
        # Every preload operation ends before the barrier that precedes
        # the first scheduled arrival.
        return int(min(v[0][0, 0] for v in result.returns if len(v[0])))

    def outcome(self, result, op_spans):
        rows = [v[0] for v in result.returns]
        lat = np.concatenate(rows)
        latency = lat[:, 1] - lat[:, 0]
        # Open-loop decomposition from the returned rows alone: a client
        # is a single server, so a request starts when it is due or when
        # the previous one completes, whichever is later.
        queue, tail_queue = [], []
        for r in rows:
            prev_done = np.concatenate([[0], r[:-1, 1]])
            q = np.maximum(0, prev_done - r[:, 0])
            queue.append(q)
            tail_queue.append(q[-max(1, len(q) // 10):])
        queue = np.concatenate(queue)
        return Outcome(
            int(result.sim_time_ns), latency,
            {"queue_p99_us": percentiles_us(queue, 99)[0],
             "service_p99_us": percentiles_us(latency - queue, 99)[0],
             # How far behind schedule the clients are when the run
             # ends: mean queueing delay of each client's last tenth.
             "backlog_end_us": float(np.concatenate(tail_queue).mean()) / 1e3,
             "queue_us_per_op": float(queue.mean()) / 1e3})


class KvZipfRma(KvZipf):
    name = "kv_zipf_rma"
    op_targets = tuple(("repro.apps.kvstore.rma_kv.KvStore", m)
                       for m in ("get", "put", "update"))

    def launch(self):
        return kv_serve_program, (self.spec, self.N_STRIPES)


class KvZipfMpi1(KvZipf):
    name = "kv_zipf_mpi1"
    # mpi1_kv_program issues its requests inline: there is no method
    # boundary to wrap, so this workload has no op spans.

    def launch(self):
        return mpi1_kv_program, (self.spec,)


# ----------------------------------------------------------------------
# milc_p64
# ----------------------------------------------------------------------
class Milc(Workload):
    name = "milc_p64"
    machine = MachineConfig(ranks_per_node=32)
    op_targets = (("repro.apps.milc.driver", "cg_solve"),
                  ("repro.apps.milc.comm.RmaHalo", "exchange"))

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.nranks = 16 if smoke else 64
        # The seed draws the gauge phases and the CG source.  The
        # simulated clock sees neither (fixed iteration count, compute
        # charged from the flop model), so the seed also draws the
        # modelled core rate within +-1 %: otherwise every simulated
        # metric of this workload would be one constant for all seeds.
        jitter = stream(seed, "perfbench-milc").uniform(-0.01, 0.01)
        self.spec = MilcSpec(maxiter=10 if smoke else 25, tol=0.0,
                             seed=seed,
                             flop_rate=MilcSpec.flop_rate * (1.0 + jitter))
        self.ops = self.nranks * self.spec.maxiter

    def launch(self):
        return milc_program, (self.spec, "rma")

    def sizes(self):
        return {**super().sizes(), "local_lattice": list(self.spec.local),
                "iterations": self.spec.maxiter,
                "flop_rate": self.spec.flop_rate}

    def verify(self, result):
        _elapsed, iters, residual, checksum = zip(*result.returns)
        # Every rank ran all iterations and agrees on a residual that
        # went down.  (That the residual repeats across repetitions is
        # covered by the digest, which hashes the returns.)
        ok = (len(set(residual)) == 1 and 0.0 <= residual[0] < 1.0
              and all(i == self.spec.maxiter for i in iters)
              and all(np.isfinite(c) for c in checksum))
        return 0 if ok else self.ops

    def outcome(self, result, op_spans):
        # One sample per rank and iteration: from the start of a halo
        # exchange to the start of the next (or the end of the solve).
        by_rank: dict[int, list] = {}
        for rank, t0, t1, name in op_spans:
            by_rank.setdefault(rank, []).append((t0, t1, name))
        lat = []
        for spans in by_rank.values():
            end = max(t1 for _t0, t1, name in spans if name == "cg_solve")
            starts = sorted(t0 for t0, _t1, name in spans
                            if name == "exchange")
            lat.extend(np.diff(starts + [end]).tolist())
        return Outcome(int(max(r[0] for r in result.returns)),
                       np.array(lat, np.int64),
                       {"residual": result.returns[0][2]})


WORKLOADS = {w.name: w for w in (PutStream, GetAmoStream, Hashtable,
                                 KvZipfRma, KvZipfMpi1, Milc)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
