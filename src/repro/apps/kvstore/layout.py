"""Word layout of the RMA key-value store.

Extends the fig7a hashtable layout (:mod:`repro.apps.hashtable.common`)
from a key-only set to a key->value map: slots and heap cells grow from
two words to three.  Local-volume word layout (disp_unit = 8):

    word 0                      next-free heap cell counter (FADD target)
    words 1 .. 3T               table: slot s = (key@1+3s, value@2+3s,
                                head@3+3s)
    words 1+3T ..               overflow heap: cell c (1-based) =
                                (key, value, next)

``head``/``next`` hold 1-based heap-cell indices (0 = nil) and keys are
nonzero, so a zeroed volume is a valid empty store.  Placement and the
overflow-claim rule are the shared :func:`place_key` /
:func:`claim_overflow_cell` -- the kvstore cannot drift from the
hashtable geometry it extends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.hashtable.common import (
    DEFAULT_TABLE_SLOTS,
    claim_overflow_cell,
    heap_cells_for,
    place_key,
)

__all__ = ["KvLayout"]

@dataclass(frozen=True)
class KvLayout:
    """Geometry of each rank's local store volume."""

    table_slots: int
    heap_cells: int

    @classmethod
    def default(cls, keys_per_rank: int,
                table_slots: int = DEFAULT_TABLE_SLOTS) -> "KvLayout":
        """Canonical geometry for an expected per-rank key load (same
        sizing rule as the fig7a hashtable)."""
        return cls(table_slots=table_slots,
                   heap_cells=heap_cells_for(keys_per_rank))

    @property
    def words(self) -> int:
        return 1 + 3 * self.table_slots + 3 * self.heap_cells

    @property
    def nbytes(self) -> int:
        return 8 * self.words

    # -- word indices ---------------------------------------------------
    def slot_key(self, slot: int) -> int:
        return 1 + 3 * slot

    def slot_value(self, slot: int) -> int:
        return 2 + 3 * slot

    def slot_head(self, slot: int) -> int:
        return 3 + 3 * slot

    def heap_key(self, cell: int) -> int:
        """``cell`` is 1-based (0 = nil)."""
        return 1 + 3 * self.table_slots + 3 * (cell - 1)

    def heap_value(self, cell: int) -> int:
        return self.heap_key(cell) + 1

    def heap_next(self, cell: int) -> int:
        return self.heap_key(cell) + 2

    # -- placement / claiming -------------------------------------------
    def place(self, key: int, nranks: int) -> tuple[int, int]:
        """(owner rank, table slot) for a key."""
        return place_key(key, nranks, self.table_slots)

    def claim_cell(self, counter: int) -> int:
        return claim_overflow_cell(counter, self.heap_cells)

    # -- owner-side access through the local view (preload, scans) -------
    def insert_local(self, volume: np.ndarray, slot: int, key: int,
                     value: int) -> None:
        """Install a key known to be absent straight into its owner's
        int64 volume (preload: no remote traffic, so no atomics needed;
        the caller orders it before remote accesses).  Builds exactly
        the structure :meth:`KvStore.put` publishes remotely."""
        if volume[self.slot_key(slot)] == 0:
            volume[self.slot_value(slot)] = value
            volume[self.slot_key(slot)] = key
            return
        cell = self.claim_cell(int(volume[0]))
        volume[0] = cell
        volume[self.heap_key(cell)] = key
        volume[self.heap_value(cell)] = value
        volume[self.heap_next(cell)] = volume[self.slot_head(slot)]
        volume[self.slot_head(slot)] = cell

    def scan(self, volume: np.ndarray) -> dict[int, int]:
        """All (key, value) pairs stored in one rank's int64 volume.

        Reads the table and the heap cells the counter has handed out
        with one ``tolist`` each and walks the chains on Python ints; a
        cell past the counter (a volume built by hand) is read on its
        own."""
        base = self.slot_key(self.table_slots)
        table = volume[1:base].tolist()
        claimed = min(int(volume[0]), self.heap_cells)
        heap = volume[base:base + 3 * claimed].tolist()
        out: dict[int, int] = {}
        for i in range(0, len(table), 3):
            k, v, cell = table[i:i + 3]
            if k != 0:
                out[k] = v
            while cell != 0:
                j = 3 * (cell - 1)
                if cell <= claimed:
                    k, v, cell = heap[j:j + 3]
                else:
                    k, v, cell = volume[base + j:base + j + 3].tolist()
                out[k] = v
        return out
