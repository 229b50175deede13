"""Seeded open-loop workload generation: Zipfian keys, Poisson arrivals.

A :class:`ServeSpec` plus (client id, client count) fully determines a
client's request schedule -- a pure function of the seed via the
``derive_seed`` stream discipline, so schedules are bit-identical across
process-pool workers, reruns, and the MPI-1/RMA/FT store variants.

Keys in a schedule are 0-based popularity ranks (key 0 is the hottest);
store frontends map them to their own key space (the RMA store adds 1:
zero marks an empty slot word).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimConfig
from repro.sim.random import stream

__all__ = ["ServeSpec", "OP_GET", "OP_PUT", "OP_UPDATE", "zipf_cdf",
           "client_schedule", "requests_for", "mutator_of"]

OP_GET = 0
OP_PUT = 1
OP_UPDATE = 2


@dataclass(frozen=True)
class ServeSpec:
    """One serving experiment (frozen; picklable for the bench pool).

    ``theta`` is the Zipf exponent (0 = uniform; the YCSB-style default
    0.99 is heavily skewed).  ``rate_hz`` is the per-client open-loop
    arrival rate; arrivals are Poisson, so requests queue behind slow
    ones instead of the client slowing down -- latency includes that
    queueing, which is what makes the tail honest.  A client's ``n``
    arrivals fill the fixed window ``n / rate_hz`` (a Poisson process
    given its count), so the offered load -- and with it the makespan of
    a store that keeps up -- is the spec's, not the seed's.
    ``total_requests`` is split across clients (earlier clients get the
    remainder).

    ``ft_mode`` remaps every mutation to a key owned by the issuing
    client (:func:`mutator_of`), making the final store state a pure
    function of the schedule -- the property the crash-through serving
    test compares bit-for-bit.  Gets are not remapped.
    """

    nkeys: int = 512
    theta: float = 0.99
    get_frac: float = 0.8
    update_frac: float = 0.1
    total_requests: int = 4_000
    rate_hz: float = 200_000.0
    seed: int = SimConfig.seed
    ft_mode: bool = False

    def __post_init__(self) -> None:
        if self.nkeys < 1:
            raise ValueError(f"nkeys={self.nkeys} must be >= 1")
        if self.theta < 0:
            raise ValueError(f"theta={self.theta} is negative")
        if not 0.0 <= self.get_frac <= 1.0:
            raise ValueError(f"get_frac={self.get_frac} outside [0, 1]")
        if not 0.0 <= self.update_frac <= 1.0 - self.get_frac:
            raise ValueError(
                f"update_frac={self.update_frac} outside "
                f"[0, {1.0 - self.get_frac:g}]")
        if self.total_requests < 0:
            raise ValueError(f"total_requests={self.total_requests} "
                             "is negative")
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz={self.rate_hz} must be positive")


def requests_for(spec: ServeSpec, client: int, nclients: int) -> int:
    """This client's share of ``total_requests``."""
    base, rem = divmod(spec.total_requests, nclients)
    return base + (1 if client < rem else 0)


def zipf_cdf(nkeys: int, theta: float) -> np.ndarray:
    """Cumulative Zipf(theta) distribution over ``nkeys`` ranks."""
    weights = 1.0 / np.power(np.arange(1, nkeys + 1, dtype=np.float64),
                             theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def mutator_of(key: int, nranks: int) -> int:
    """The one client allowed to mutate ``key`` in ``ft_mode``.

    Diagonal assignment: for a fixed owner column (``key % nranks``) the
    rows map to different clients, so each client's mutation set still
    spreads across all owners -- single-writer without making traffic
    local."""
    return (key + key // nranks) % nranks


def client_schedule(spec: ServeSpec, client: int,
                    nclients: int) -> np.ndarray:
    """One client's request schedule: int64 rows ``(t_ns, op, key,
    value)`` with ``t_ns`` relative to the serving phase start and
    strictly increasing."""
    if not 0 <= client < nclients:
        raise ValueError(f"client {client} outside [0, {nclients})")
    n = requests_for(spec, client, nclients)
    out = np.zeros((n, 4), dtype=np.int64)
    if n == 0:
        return out
    arr = stream(spec.seed, f"serve-arr-{client}")
    keys = stream(spec.seed, f"serve-key-{client}")
    ops = stream(spec.seed, f"serve-op-{client}")
    vals = stream(spec.seed, f"serve-val-{client}")

    # n + 1 exponential gaps scaled to span the window, the last one
    # dropped: the n arrivals are uniform order statistics on the window,
    # the exact law of a Poisson process given that it had n arrivals.
    # Free-running gaps sum to window +- 10 % at n = 100, and the slowest
    # of 64 clients then sets a makespan that moves 5 % from seed to seed.
    gaps = arr.exponential(size=n + 1)
    gaps = gaps[:n] * (n * 1e9 / spec.rate_hz / gaps.sum())
    out[:, 0] = np.cumsum(np.maximum(1, np.rint(gaps).astype(np.int64)))

    cdf = zipf_cdf(spec.nkeys, spec.theta)
    out[:, 2] = np.searchsorted(cdf, keys.random(n), side="right")

    draw = ops.random(n)
    out[:, 1] = np.where(
        draw < spec.get_frac, OP_GET,
        np.where(draw < spec.get_frac + spec.update_frac, OP_UPDATE,
                 OP_PUT))
    out[:, 3] = vals.integers(1, 1 << 40, size=n)

    if spec.ft_mode:
        # Single-writer remap: mutations target only this client's keys.
        own = np.array([k for k in range(spec.nkeys)
                        if mutator_of(k, nclients) == client]
                       or [client % spec.nkeys], dtype=np.int64)
        mut = out[:, 1] != OP_GET
        out[mut, 2] = own[out[mut, 2] % own.size]
    return out
