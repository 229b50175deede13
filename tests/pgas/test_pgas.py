"""UPC-like and CAF-like comparator layers + the Cray MPI-2.2 baseline."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig

INTER = MachineConfig(ranks_per_node=1)
INTRA = MachineConfig(ranks_per_node=64)


def test_upc_memput_memget():
    def program(ctx):
        arr = yield from ctx.upc.all_alloc(256)
        yield from ctx.upc.barrier()
        if ctx.rank == 0:
            yield from ctx.upc.memput(arr, 1, 0, np.full(16, 5, np.uint8))
            yield from ctx.upc.fence()
        yield from ctx.upc.barrier()
        got = yield from ctx.upc.memget(arr, 1, 0, 16)
        return got.tolist()

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] == [5] * 16
    assert res.returns[1] == [5] * 16


def test_upc_atomics_unique_tickets():
    p = 5

    def program(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        old = yield from ctx.upc.aadd(arr, 0, 0, 1)
        yield from ctx.upc.barrier()
        return int(old)

    res = run_spmd(program, p, machine=INTER)
    assert sorted(res.returns) == list(range(p))


def test_upc_cas_single_winner():
    def program(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        old = yield from ctx.upc.cas(arr, 0, 0, 0, ctx.rank + 1)
        yield from ctx.upc.barrier()
        return int(old)

    res = run_spmd(program, 4, machine=INTER)
    assert [o for o in res.returns if o == 0] == [0]


def test_upc_put_slower_than_fompi_small():
    """Figure 4a: foMPI >50% lower latency than UPC at small sizes."""
    def upc_prog(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        t0 = ctx.now
        if ctx.rank == 0:
            yield from ctx.upc.memput(arr, 1, 0, np.zeros(8, np.uint8))
            yield from ctx.upc.fence()
        dt = ctx.now - t0
        yield from ctx.upc.barrier()
        return dt

    def fompi_prog(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from win.lock_all()
        t0 = ctx.now
        if ctx.rank == 0:
            yield from win.put(np.zeros(8, np.uint8), 1, 0)
            yield from win.flush(1)
        dt = ctx.now - t0
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return dt

    t_upc = run_spmd(upc_prog, 2, machine=INTER).returns[0]
    t_fompi = run_spmd(fompi_prog, 2, machine=INTER).returns[0]
    assert t_fompi < 0.66 * t_upc, (t_fompi, t_upc)
    assert 900 <= t_fompi <= 1300       # ~1.0 us
    assert 1700 <= t_upc <= 2700        # ~2 us


def test_caf_assign_read():
    def program(ctx):
        co = yield from ctx.caf.coarray_alloc(128)
        yield from ctx.caf.sync_all()
        if ctx.rank == 0:
            yield from ctx.caf.assign(co, 1, 0, np.full(8, 3.5, np.float64))
            yield from ctx.caf.sync_memory()
        yield from ctx.caf.sync_all()
        return co.local_view(np.float64)[:8].tolist()

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == [3.5] * 8


def test_caf_put_slowest_pgas():
    """CAF sits above UPC in Figure 4a."""
    def caf_prog(ctx):
        co = yield from ctx.caf.coarray_alloc(64)
        yield from ctx.caf.sync_all()
        t0 = ctx.now
        if ctx.rank == 0:
            yield from ctx.caf.assign(co, 1, 0, np.zeros(8, np.uint8))
            yield from ctx.caf.sync_memory()
        dt = ctx.now - t0
        yield from ctx.caf.sync_all()
        return dt

    t_caf = run_spmd(caf_prog, 2, machine=INTER).returns[0]
    assert 2400 <= t_caf <= 3800, t_caf


def test_cray22_put_has_protocol_change():
    """Figure 4a: ~10 us small-put latency, dropping after the DMAPP
    protocol change threshold."""
    from repro.rma.cray22 import win_allocate_cray22

    def timed(nbytes):
        def program(ctx):
            win = yield from win_allocate_cray22(ctx, 1 << 20)
            yield from ctx.coll.barrier()
            t0 = ctx.now
            if ctx.rank == 0:
                yield from win.put(np.zeros(nbytes, np.uint8), 1, 0)
                yield from win.flush(1)
            dt = ctx.now - t0
            yield from ctx.coll.barrier()
            return dt

        return run_spmd(program, 2, machine=INTER).returns[0]

    t_small = timed(8)
    t_2k = timed(2048)
    t_8k = timed(8192)
    assert 8000 <= t_small <= 13000, t_small       # ~10 us software path
    assert t_2k > t_small                          # software byte cost
    assert t_8k < t_2k                             # protocol change kicked in


def test_cray22_pscw_grows_with_p():
    """Figure 6c: Cray PSCW overhead grows with process count."""
    from repro.rma.cray22 import win_allocate_cray22

    def timed(p):
        def program(ctx):
            win = yield from win_allocate_cray22(ctx, 4096)
            yield from ctx.coll.barrier()
            left = (ctx.rank - 1) % ctx.nranks
            right = (ctx.rank + 1) % ctx.nranks
            t0 = ctx.now
            yield from win.post([left, right])
            yield from win.start([left, right])
            yield from win.complete()
            yield from win.wait()
            return ctx.now - t0

        return max(run_spmd(program, p, machine=INTER).returns)

    assert timed(16) > timed(4)


def test_upc_memget_nb_and_sync():
    import numpy as np

    def program(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        arr.local_view(np.uint8)[:8] = ctx.rank + 1
        yield from ctx.upc.barrier()
        out = np.zeros(8, np.uint8)
        yield from ctx.upc.memget_nb(arr, (ctx.rank + 1) % ctx.nranks,
                                     0, 8, out)
        yield from ctx.upc.fence()
        yield from ctx.upc.barrier()
        return out.tolist()

    res = run_spmd(program, 3, machine=INTER)
    assert res.returns[0] == [2] * 8
    assert res.returns[2] == [1] * 8


def test_upc_aadd_nb_is_fire_and_forget():
    def program(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        t0 = ctx.now
        yield from ctx.upc.aadd_nb(arr, (ctx.rank + 1) % ctx.nranks, 0, 1)
        issue = ctx.now - t0
        yield from ctx.upc.fence()
        yield from ctx.upc.barrier()
        import numpy as np
        return issue, int(arr.local_view(np.int64)[0])

    res = run_spmd(program, 4, machine=INTER)
    for issue, total in res.returns:
        assert issue < 1500          # no round trip at issue
        assert total == 1            # every AMO landed


def test_caf_assign_nb_cheaper_than_assign():
    import numpy as np

    def program(ctx):
        co = yield from ctx.caf.coarray_alloc(64)
        yield from ctx.caf.sync_all()
        out = None
        if ctx.rank == 0:
            data = np.zeros(8, np.uint8)
            t0 = ctx.now
            yield from ctx.caf.assign(co, 1, 0, data)
            t_blocking = ctx.now - t0
            t0 = ctx.now
            yield from ctx.caf.assign_nb(co, 1, 0, data)
            t_nb = ctx.now - t0
            out = (t_blocking, t_nb)
        yield from ctx.caf.sync_all()
        return out

    t_blocking, t_nb = run_spmd(program, 2, machine=INTER).returns[0]
    assert t_nb < t_blocking


def test_upc_affinity_check():
    """A shared array is a window: a put past the end of the target's
    64-byte affinity block is refused, on-node (XPMEM) and off-node
    (DMAPP) alike."""
    from repro.errors import MemoryError_

    def program(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        if ctx.rank == 0:
            with pytest.raises(MemoryError_):
                yield from ctx.upc.memput(arr, 1, 64, np.zeros(8, np.uint8))
        yield from ctx.upc.barrier()

    for machine in (INTER, INTRA):
        run_spmd(program, 2, machine=machine)


def test_upc_app_points_pinned():
    """The UPC curves of Figures 7a, 7c and 8, one exact point each: the
    hashtable's cas / aadd / memput_nb, the FFT's memput_nb and the MILC
    halo's aadd_nb / memget_nb, each on a mix of on-node and off-node
    peers."""
    from repro.bench.appbench import fft_gflops, hashtable_rate, milc_time_s
    from repro.bench.figures import FFT_SPEC, MILC_SPEC

    assert hashtable_rate("upc", 8, 64, ranks_per_node=4) \
        == 1894345.8217094992
    assert fft_gflops("upc_overlap", 8, FFT_SPEC, ranks_per_node=2) \
        == 65.10701709845131
    assert milc_time_s("upc", 8, MILC_SPEC, ranks_per_node=4) == 0.001823648


def _upc_write(ctx, offset):
    arr = yield from ctx.upc.all_alloc(64)
    yield from ctx.upc.barrier()
    if ctx.rank in (1, 2):
        yield from ctx.upc.memput_nb(arr, 0, offset, np.ones(8, np.uint8))
        yield from ctx.upc.fence()
    yield from ctx.upc.barrier()


def _caf_write(ctx, offset):
    co = yield from ctx.caf.coarray_alloc(64)
    yield from ctx.caf.sync_all()
    if ctx.rank in (1, 2):
        yield from ctx.caf.assign(co, 0, offset, np.ones(8, np.uint8))
        yield from ctx.caf.sync_memory()
    yield from ctx.caf.sync_all()


@pytest.mark.parametrize("rpn", [1, 4])
@pytest.mark.parametrize("racy", [True, False])
@pytest.mark.parametrize("write", [_upc_write, _caf_write],
                         ids=["upc_memput_nb", "caf_assign"])
def test_checker_sees_pgas_writes(write, racy, rpn):
    """Ranks 1 and 2 write 8 bytes of rank 0 with no ordering between
    them: the same bytes are a put-put race, disjoint ones are clean,
    and checking moves no clock."""
    from repro.config import CheckConfig

    def program(ctx):
        yield from write(ctx, 0 if racy else 8 * ctx.rank)

    machine = MachineConfig(ranks_per_node=rpn)
    checked = run_spmd(program, 3, machine=machine,
                       check=CheckConfig(enabled=True))
    kinds = {v.kind for v in checked.check.violations}
    assert kinds == ({"put-put"} if racy else set())
    assert checked.sim_time_ns == run_spmd(program, 3,
                                           machine=machine).sim_time_ns


def test_checker_orders_a_fence():
    """upc_fence completes a rank's puts, so rewriting the same bytes
    after it is no same-origin race."""
    from repro.config import CheckConfig

    def program(ctx):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        if ctx.rank == 1:
            for v in (1, 2):
                yield from ctx.upc.memput(arr, 0, 0, np.full(8, v, np.uint8))
                yield from ctx.upc.fence()
        yield from ctx.upc.barrier()

    res = run_spmd(program, 2, machine=INTER, check=CheckConfig(enabled=True))
    assert res.check.clean, [v.describe() for v in res.check.violations]


@pytest.mark.parametrize("rpn", [1, 4])
def test_checker_sees_aadd_nb(rpn):
    """The MILC port's notification add is an atomic to the checker:
    two ranks' adds to one word compose, a put over it does not."""
    from repro.config import CheckConfig

    def program(ctx, put):
        arr = yield from ctx.upc.all_alloc(64)
        yield from ctx.upc.barrier()
        if ctx.rank == 1:
            yield from ctx.upc.aadd_nb(arr, 0, 0, 1)
        elif ctx.rank == 2:
            if put:
                yield from ctx.upc.memput_nb(arr, 0, 0, np.ones(8, np.uint8))
            else:
                yield from ctx.upc.aadd_nb(arr, 0, 0, 1)
        yield from ctx.upc.fence()
        yield from ctx.upc.barrier()

    machine = MachineConfig(ranks_per_node=rpn)
    kinds = [{v.kind for v in run_spmd(program, 3, put, machine=machine,
                                       check=CheckConfig(enabled=True))
              .check.violations} for put in (False, True)]
    assert kinds == [set(), {"atomic-nonatomic"}]
