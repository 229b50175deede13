"""Collectives over the MPI-1 point-to-point layer.

foMPI itself needs only a handful of collectives (window creation uses
allgather/allreduce/bcast/barrier), and the DSDE study (Figure 7b) compares
alltoall, reduce_scatter, and the NBX nonblocking-barrier protocol.  All
algorithms are the standard O(log p) ones the paper assumes ("a good
barrier implementation"):

* barrier, ibarrier -- dissemination [Hoefler et al., PPoPP'10 for NBX]
* bcast            -- binomial tree
* allreduce        -- recursive doubling (with pre/post folding for
                      non-powers of two)
* allgather        -- recursive doubling (pow2) / ring (general)
* reduce_scatter   -- recursive halving (pow2) / allreduce-then-slice
* alltoall         -- pairwise exchange

Each call draws a fresh tag from a per-rank counter; MPI's ordering rules
(all ranks issue collectives in the same order) keep the counters aligned.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from repro.errors import FaultError, Mpi1Error

__all__ = ["Collectives", "IBarrier"]


def _ceil_log2(p: int) -> int:
    return max(1, (p - 1).bit_length()) if p > 1 else 0


class _Call:
    """One collective call on one rank, as a ``with`` block around the
    algorithm (so it adds no generator frame to every resume inside it).

    A :class:`FaultError` escaping the block (a crashed or unreachable
    peer hit mid-algorithm) is annotated with the collective's name and
    participant set, so diagnostics name the operation rather than just
    the underlying point-to-point send.

    It is also the call's sync site: ``ctx.sync_hook`` hears "coll_enter"
    at entry (the race checker's deposit; returns the instance id) and
    "coll" at return (the checker's merge, obs's ``coll.<name>`` span)."""

    __slots__ = ("ctx", "name", "hook", "t0", "seq")

    def __init__(self, ctx, name: str) -> None:
        self.ctx = ctx
        self.name = name

    def __enter__(self) -> None:
        ctx = self.ctx
        hook = self.hook = ctx.sync_hook
        if hook is not None:
            self.t0 = ctx.now
            self.seq = hook.on_sync("coll_enter", self, None, self.t0)

    def __exit__(self, _etype, exc, _tb) -> None:
        if exc is not None:
            if isinstance(exc, FaultError):
                nranks = self.ctx.nranks
                exc.annotate_collective(self.name, tuple(range(nranks)))
            return
        if self.hook is not None:
            self.hook.on_sync("coll", self, self.seq, self.t0)


class IBarrier:
    """Handle for a nonblocking dissemination barrier."""

    def __init__(self, ctx, tag: int) -> None:
        self.ctx = ctx
        # Race checker: the ibarrier is a collective too -- deposit at
        # issue, acquire once at the first completion *observation*
        # (test() or wait()); before that, no happens-before edge exists
        # for this rank even if the child process finished already.
        hook = self._hook = ctx.sync_hook
        if hook is not None:
            self._seq = hook.on_sync("coll_enter", self, None, ctx.now)
        self._acquired = False
        self._proc = ctx.env.process(self._run(tag), name=f"ibarrier@{ctx.rank}")

    def _observe_completion(self) -> None:
        if self._acquired:
            return
        self._acquired = True
        if self._hook is not None:
            self._hook.on_sync("ibarrier", self, self._seq, None)

    def _run(self, tag: int):
        ctx = self.ctx
        p, r = ctx.nranks, ctx.rank
        try:
            for step in range(_ceil_log2(p)):
                dst = (r + (1 << step)) % p
                src = (r - (1 << step)) % p
                sreq = yield from ctx.mpi.isend(dst, None, tag=tag + step,
                                                channel="nbx", nbytes=0)
                yield from ctx.mpi.recv(src, tag=tag + step, channel="nbx")
                yield from sreq.wait()
        except FaultError as exc:
            exc.annotate_collective("ibarrier", tuple(range(p)))
            raise

    def test(self) -> bool:
        done = self._proc.triggered
        if done:
            self._observe_completion()
        return done

    def wait(self):
        if not self._proc.triggered:
            yield self._proc
        self._observe_completion()


class Collectives:
    """Collective operations bound to one rank's context."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self._tag = 0
        self._nbx_tag = 0

    def _next_tag(self, width: int = 64) -> int:
        """Reserve a tag range for one collective instance."""
        t = self._tag
        self._tag += width
        return t

    # ------------------------------------------------------------------
    def barrier(self):
        """Dissemination barrier: ceil(log2 p) rounds."""
        ctx = self.ctx
        with _Call(ctx, "barrier"):
            p, r = ctx.nranks, ctx.rank
            tag = self._next_tag()
            for step in range(_ceil_log2(p)):
                dst = (r + (1 << step)) % p
                src = (r - (1 << step)) % p
                sreq = yield from ctx.mpi.isend(dst, None, tag=tag + step,
                                                channel="coll", nbytes=0)
                yield from ctx.mpi.recv(src, tag=tag + step, channel="coll")
                yield from sreq.wait()

    def ibarrier(self) -> IBarrier:
        """Nonblocking barrier (the heart of the NBX DSDE protocol)."""
        tag = self._nbx_tag
        self._nbx_tag += 64
        return IBarrier(self.ctx, tag)

    # ------------------------------------------------------------------
    def bcast(self, value: Any, root: int = 0, nbytes: int | None = None):
        """Binomial-tree broadcast; returns the root's value on every rank."""
        ctx = self.ctx
        with _Call(ctx, "bcast"):
            p = ctx.nranks
            tag = self._next_tag()
            vr = (ctx.rank - root) % p  # virtual rank, root -> 0
            mask = 1
            while mask < p:
                if vr & mask:
                    parent = (vr - mask + root) % p
                    value = yield from ctx.mpi.recv(parent, tag=tag,
                                                    channel="coll")
                    break
                mask <<= 1
            mask >>= 1
            while mask >= 1:
                if vr + mask < p:
                    child = (vr + mask + root) % p
                    yield from ctx.mpi.send(child, value, tag=tag,
                                            channel="coll", nbytes=nbytes)
                mask >>= 1
            return value

    # ------------------------------------------------------------------
    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None,
                  nbytes: int | None = None):
        """Recursive-doubling allreduce.

        ``op`` must be associative and commutative; defaults to ``+``
        (elementwise for numpy arrays).
        """
        ctx = self.ctx
        with _Call(ctx, "allreduce"):
            p, r = ctx.nranks, ctx.rank
            if op is None:
                op = operator.add
            tag = self._next_tag()
            acc = value

            # Fold non-power-of-two remainder into the low power-of-two block.
            pof2 = 1 << (p.bit_length() - 1)
            rem = p - pof2
            if r < 2 * rem:
                if r % 2 == 0:
                    yield from ctx.mpi.send(r + 1, acc, tag=tag,
                                            channel="coll", nbytes=nbytes)
                    newrank = -1
                else:
                    other = yield from ctx.mpi.recv(r - 1, tag=tag,
                                                    channel="coll")
                    acc = op(acc, other)
                    newrank = r // 2
            else:
                newrank = r - rem

            if newrank >= 0:
                mask = 1
                while mask < pof2:
                    partner_new = newrank ^ mask
                    partner = (partner_new * 2 + 1 if partner_new < rem
                               else partner_new + rem)
                    got = yield from ctx.mpi.sendrecv(
                        partner, acc, src=partner,
                        tag=tag + 1 + mask.bit_length(), channel="coll",
                        nbytes=nbytes)
                    acc = op(acc, got)
                    mask <<= 1

            # Push results back to the folded ranks.
            if r < 2 * rem:
                if r % 2 == 1:
                    yield from ctx.mpi.send(r - 1, acc, tag=tag + 40,
                                            channel="coll", nbytes=nbytes)
                else:
                    acc = yield from ctx.mpi.recv(r + 1, tag=tag + 40,
                                                  channel="coll")
            return acc

    # ------------------------------------------------------------------
    def allgather(self, value: Any, nbytes: int | None = None):
        """Allgather; returns a list indexed by rank."""
        ctx = self.ctx
        with _Call(ctx, "allgather"):
            p, r = ctx.nranks, ctx.rank
            tag = self._next_tag()
            if p == 1:
                return [value]
            if p & (p - 1) == 0:
                # Recursive doubling: blocks double each round.
                blocks: dict[int, Any] = {r: value}
                mask = 1
                round_no = 0
                while mask < p:
                    partner = r ^ mask
                    payload = dict(blocks)
                    got = yield from ctx.mpi.sendrecv(
                        partner, payload, src=partner, tag=tag + round_no,
                        channel="coll",
                        nbytes=(None if nbytes is None
                                else nbytes * len(payload)))
                    blocks.update(got)
                    mask <<= 1
                    round_no += 1
                return [blocks[i] for i in range(p)]
            # Ring algorithm for general p.
            out: list[Any] = [None] * p
            out[r] = value
            left, right = (r - 1) % p, (r + 1) % p
            cur = value
            cur_idx = r
            for step in range(p - 1):
                sreq = yield from ctx.mpi.isend(right, (cur_idx, cur),
                                                tag=tag + step, channel="coll",
                                                nbytes=nbytes)
                idx, got = yield from ctx.mpi.recv(left, tag=tag + step,
                                                   channel="coll")
                yield from sreq.wait()
                out[idx] = got
                cur, cur_idx = got, idx
            return out

    # ------------------------------------------------------------------
    def reduce_scatter_block(self, vector, op: Callable | None = None):
        """Reduce a length-p vector across ranks; rank i gets element i.

        Recursive halving for powers of two (the cost the DSDE benchmark
        compares), allreduce-then-slice otherwise.
        """
        ctx = self.ctx
        with _Call(ctx, "reduce_scatter_block"):
            p, r = ctx.nranks, ctx.rank
            vec = np.asarray(vector)
            if vec.shape[0] != p:
                raise Mpi1Error(f"reduce_scatter needs a length-{p} vector")
            if op is None:
                op = np.add
            if p == 1:
                return vec[0]
            tag = self._next_tag()
            if p & (p - 1) == 0:
                lo, hi = 0, p
                acc = vec.copy()
                mask = p >> 1
                round_no = 0
                while mask >= 1:
                    mid = lo + (hi - lo) // 2
                    partner = r ^ mask
                    if r < mid:
                        send_part = acc[mid:hi]
                        keep_lo, keep_hi = lo, mid
                    else:
                        send_part = acc[lo:mid]
                        keep_lo, keep_hi = mid, hi
                    got = yield from ctx.mpi.sendrecv(
                        partner, send_part, src=partner, tag=tag + round_no,
                        channel="coll")
                    acc[keep_lo:keep_hi] = op(acc[keep_lo:keep_hi], got)
                    lo, hi = keep_lo, keep_hi
                    mask >>= 1
                    round_no += 1
                return acc[r]
            total = yield from self.allreduce(vec, lambda a, b: op(a, b))
            return total[r]

    # ------------------------------------------------------------------
    def alltoall(self, per_dest: list, nbytes_each: int | None = None):
        """Personalized all-to-all (pairwise exchange); returns list by src."""
        ctx = self.ctx
        with _Call(ctx, "alltoall"):
            p, r = ctx.nranks, ctx.rank
            if len(per_dest) != p:
                raise Mpi1Error(f"alltoall needs {p} outgoing items")
            tag = self._next_tag(width=max(64, p + 1))
            out: list[Any] = [None] * p
            out[r] = per_dest[r]
            for step in range(1, p):
                if p & (p - 1) == 0:
                    partner = r ^ step
                    send_to = recv_from = partner
                else:
                    send_to = (r + step) % p
                    recv_from = (r - step) % p
                sreq = yield from ctx.mpi.isend(send_to, per_dest[send_to],
                                                tag=tag + step, channel="coll",
                                                nbytes=nbytes_each)
                out[recv_from] = yield from ctx.mpi.recv(
                    recv_from, tag=tag + step, channel="coll")
                yield from sreq.wait()
            return out
