"""ULFM-style failure-notification service.

The transport layer (PR 1) already *quarantines* crashed nodes: any new
packet addressed to one fails fast with
:class:`~repro.errors.NodeCrashedError`.  That is link-level knowledge --
the NIC notices its peer is gone.  What the protocol layers (locks,
epochs, teardown) need is *user-level* knowledge: every survivor must
eventually learn "rank r failed" so pending acquisitions can fail with a
structured error and state owned by the dead rank can be revoked.

:class:`FailureNotifier` models that propagation the way a scalable
runtime would implement it (and the way ULFM implementations do): a local
failure detector confirms the death after ``DETECT_NS``, then a binomial
broadcast seeded at the first survivor disseminates the notification in
``ceil(log2 p)`` rounds of ``NOTIFY_ROUND_NS`` each -- the same O(log p)
round structure the paper uses for its scalability bounds.  Survivor
``i`` (in rank order among survivors) learns of the failure after
``depth(i) = bit_length(i)`` rounds, so the last survivor learns after at
most ``ceil(log2 p)`` rounds and total notification cost is O(log p)
regardless of job size.

Everything is derived from the planned crash times, the three timing
constants below and the deterministic DES kernel -- no randomness is
consumed -- so a recovered run replays bit-identically under the same
seed.

The notifier is only constructed when the active
:class:`~repro.config.FaultPlan` contains crashes; every hook in the
protocol layers is behind a single ``notifier is None`` test, keeping
fault-free schedules byte-identical.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.sim.kernel import Event

__all__ = ["FailureNotifier", "DETECT_NS", "NOTIFY_ROUND_NS", "REVOKE_NS"]

#: Crash instant to the failure detector's confirmation.
DETECT_NS = 3_000
#: One round of the binomial notification broadcast.
NOTIFY_ROUND_NS = 700
#: One revocation step: before the hooks run, and per lock word rolled
#: back, queue hop forwarded or region reclaimed (repro.rma.recovery).
REVOKE_NS = 900


class FailureNotifier:
    """Per-world failure-notification service.

    One dissemination process is spawned per planned crash event.  Each
    runs:

    1. *detect*   -- wait until ``crash_time + DETECT_NS``;
    2. *notify*   -- binomial broadcast over survivors, one
       ``NOTIFY_ROUND_NS`` charge per tree depth, updating each
       survivor's known-failure set and firing its pending
       :meth:`failure_event`;
    3. *revoke*   -- run the registered revocation hooks
       (:mod:`repro.rma.recovery`, then the FT restore) after a
       ``REVOKE_NS`` charge.
    """

    def __init__(self, world) -> None:
        self.world = world
        self.env = world.env
        self._known: list[set[int]] = [set() for _ in range(world.nranks)]
        self._events: list[Event | None] = [None] * world.nranks
        self._hooks: list[Callable] = []
        # (time_ns, node, failed_ranks) per planned crash, in time order.
        inj = world.injector
        crashes = sorted({(inj.crash_time(cr.node), cr.node)
                          for cr in world.faults.plan.crashes})
        self._crash_events: list[tuple[int, int, tuple[int, ...]]] = []
        node_of = world.rank_map.node_of
        for when, node in crashes:
            ranks = tuple(r for r in range(world.nranks)
                          if node_of(r) == node)
            self._crash_events.append((when, node, ranks))

    # ------------------------------------------------------------------
    # queries (used by the protocol layers)
    # ------------------------------------------------------------------
    def known(self, rank: int) -> set[int]:
        """Failed ranks that ``rank`` has been notified about so far."""
        return self._known[rank]

    def rank_failed(self, rank: int, peer: int) -> bool:
        """Has ``rank`` been notified that ``peer`` failed?"""
        return peer in self._known[rank]

    def failure_event(self, rank: int) -> Event:
        """Condition event that fires at ``rank``'s next failure
        notification.  Protocol waits race this against their normal
        completion (via ``AnyOf``) so they wake on either."""
        ev = self._events[rank]
        if ev is None or ev.triggered:
            ev = Event(self.env, name=f"failnotify:r{rank}")
            self._events[rank] = ev
        return ev

    def absolve(self, ranks: Iterable[int]) -> None:
        """Rollback recovery restored ``ranks``: erase them from every
        survivor's known-failure set, so post-restore acquisitions and
        epochs treat them as live peers again."""
        dead = set(ranks)
        for known in self._known:
            known -= dead

    def on_revoke(self, hook: Callable) -> None:
        """Register a revocation hook: a callable
        ``hook(failed_ranks) -> generator`` run (in registration order)
        inside the dissemination process after notification completes."""
        self._hooks.append(hook)

    # ------------------------------------------------------------------
    # dissemination
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one dissemination process per planned crash event."""
        for when, node, ranks in self._crash_events:
            self.env.process(self._disseminate(when, node, ranks),
                             name=f"failure-notify:n{node}")

    def _survivors(self, when: int) -> list[int]:
        """Ranks whose node has no planned crash at/before ``when``."""
        inj = self.world.injector
        node_of = self.world.rank_map.node_of
        out = []
        for r in range(self.world.nranks):
            ct = inj.crash_time(node_of(r))
            if ct is None or ct > when:
                out.append(r)
        return out

    def _deliver(self, rank: int, failed_ranks: Iterable[int]) -> None:
        known = self._known[rank]
        before = len(known)
        known.update(failed_ranks)
        if len(known) == before:
            return
        stats = self.world.injector.stats
        stats.notifications_delivered += 1
        obs = self.world.obs
        if obs is not None:
            obs.rank_instant(rank, "notify.failure", self.env.now,
                             cat="fault",
                             args={"failed": len(self._known[rank])})
            obs.metrics.count("failure.notifications", rank)
        ev = self._events[rank]
        if ev is not None and not ev.triggered:
            self._events[rank] = None
            # Fire it only for a wait still on it: a wait that completed
            # the other way has detached, and nothing else holds it.
            if ev.callbacks:
                ev.succeed(frozenset(known))

    def _disseminate(self, when: int, node: int, failed_ranks: tuple):
        env = self.env
        inj = self.world.injector
        delta = (when + DETECT_NS) - env.now
        if delta > 0:
            yield delta
        inj.stats.failures_detected += 1
        inj._trace("detect", f"node {node} death confirmed")
        t_detect = env.now
        env.note_progress()

        survivors = self._survivors(when)
        if survivors:
            # Binomial broadcast: survivor at position v receives at depth
            # bit_length(v); one NOTIFY_ROUND_NS charge per depth level.
            max_depth = ((len(survivors) - 1).bit_length()
                         if len(survivors) > 1 else 0)
            by_depth: dict[int, list[int]] = {}
            for v, r in enumerate(survivors):
                by_depth.setdefault(v.bit_length(), []).append(r)
            for depth in range(max_depth + 1):
                if depth > 0:
                    yield NOTIFY_ROUND_NS
                for r in by_depth.get(depth, ()):
                    self._deliver(r, failed_ranks)
                env.note_progress()

        yield REVOKE_NS
        for hook in self._hooks:
            yield from hook(failed_ranks)
        inj._trace("revoke", f"node {node} state revoked")
        obs = self.world.obs
        if obs is not None:
            # Detection-to-revocation on the dead node's NIC track: the
            # recovery machinery acts on its behalf while it is gone.
            obs.nic_span(node, "failure.recover", t_detect, env.now,
                         cat="fault",
                         args={"ranks": len(failed_ranks)})
            obs.metrics.observe("failure_recover_ns", 0,
                                env.now - t_detect)
        env.note_progress()
