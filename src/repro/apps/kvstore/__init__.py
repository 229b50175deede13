"""RMA-backed distributed key-value store (paper Section 4.1, extended).

:class:`KvLayout` / :class:`KvStore` are the chained-hash RMA store and
:mod:`repro.apps.kvstore.mpi1_kv` the two-sided comparator (imported by
path to keep this package free of a ``repro.serve`` import cycle).
Crash-through serving runs this same :class:`KvStore`
(:func:`repro.serve.driver.ft_kvstore`).
"""

from repro.apps.kvstore.layout import KvLayout
from repro.apps.kvstore.rma_kv import KvStore

__all__ = ["KvLayout", "KvStore"]
