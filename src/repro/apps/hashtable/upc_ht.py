"""UPC hashtable (the Cray UPC curve of Figure 7a).

Same protocol as the RMA variant, expressed with UPC's shared array plus
Cray's proprietary CAS/aadd atomic extensions and upc_fence, exactly as
the paper describes its UPC implementation.
"""

from __future__ import annotations

import numpy as np

from repro.apps.hashtable.common import HashTableLayout, random_keys

__all__ = ["upc_insert_program"]


def upc_insert(ctx, arr, layout: HashTableLayout, key: int):
    owner, slot = layout.place(key, ctx.nranks)
    old = yield from ctx.upc.cas(arr, owner, layout.slot_value(slot), 0, key)
    if int(old) == 0:
        return "table"
    cell0 = yield from ctx.upc.aadd(arr, owner, 0, 1)
    cell = layout.claim_cell(cell0)
    yield from ctx.upc.memput_nb(arr, owner, 8 * layout.heap_value(cell),
                                 np.array([key], np.int64))
    # second CAS-style update of the chain head: read it (CAS 0 -> 0), link
    while True:
        head = yield from ctx.upc.cas(arr, owner, layout.slot_head(slot), 0, 0)
        got = yield from ctx.upc.cas(arr, owner, layout.slot_head(slot),
                                     int(head), cell)
        if int(got) == int(head):
            break
    yield from ctx.upc.memput_nb(arr, owner, 8 * layout.heap_next(cell),
                                 np.array([int(head)], np.int64))
    yield from ctx.upc.fence()
    return "heap"


def upc_insert_program(ctx, layout: HashTableLayout, inserts_per_rank: int,
                       verify_box: dict | None = None):
    arr = yield from ctx.upc.all_alloc(layout.nbytes)
    keys = random_keys(ctx.rng("ht-keys"), inserts_per_rank)
    yield from ctx.upc.barrier()
    t0 = ctx.now
    for k in keys:
        yield from upc_insert(ctx, arr, layout, int(k))
    yield from ctx.upc.fence()
    yield from ctx.upc.barrier()
    elapsed = ctx.now - t0
    if verify_box is not None:
        verify_box.setdefault("volumes", {})[ctx.rank] = \
            arr.local_view(np.int64).copy()
        verify_box.setdefault("keys", {})[ctx.rank] = keys
    return elapsed
