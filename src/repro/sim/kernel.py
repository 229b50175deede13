"""Discrete-event simulation kernel.

Design notes
------------
* Simulated time is an integer number of **nanoseconds**.  Fractional
  nanosecond costs are accumulated by callers and rounded once (the machine
  layer does this), keeping the event queue integral and deterministic.
* Events in the queue are ordered by ``(time, priority, seq)`` where ``seq``
  is a monotone counter -- two events at the same instant always fire in the
  order they were scheduled, making every run bit-reproducible.
* Processes are plain Python generators.  ``yield event`` suspends a
  process till the event fires and sends it ``event.value``.
  ``yield ns`` sleeps ``ns`` whole nanoseconds (see "Sleeping").
  Composite waits use :class:`AllOf` / :class:`AnyOf`.
* Unlike SimPy we detect deadlock eagerly: if the queue drains while
  processes are still blocked, :class:`~repro.errors.DeadlockError` is
  raised with diagnostics.  The MPI specification forbids cyclically
  waiting configurations (Section 2.5 of the paper); this check is how the
  test suite asserts that the protocols never create them.

The queue
---------
The pending-event store is one binary heap, ``Environment._queue``, of
``(time, priority, seq, item)`` entries.  ``seq`` is unique, so the
entries are totally ordered and ``heappop`` returns them in exactly that
order.  There is no front slot before the heap: with many interleaved
ranks it served 0.8-5.5 % of pops and charged every push an extra compare
(DESIGN.md section 8).  There is no timer wheel either: delays span
nanoseconds to milliseconds, so a wheel needs a bucket width to tune and
still sorts each bucket, where ``heapq`` is one C call per push and pop.

The run loop
------------
``run()`` is a single loop over the heap.  It hoists per-event attribute
lookups into locals, merges the ``max_events`` and watchdog comparisons
into a single trip compare, disables the cyclic GC for the duration of the
loop (re-enabled in a ``finally``), and inlines ``Process._resume`` for the
two ubiquitous cases: a sleep token, and an event with a single waiting
process.  ``tests/conftest.py`` holds the uninlined reference stepper it is
tested against, bit for bit.

Sleeping
--------
A process charges simulated time with ``yield ns``, ``ns`` a Python
``int >= 0``; any other non-event (a negative or non-int number, a numpy
integer, a ``bool``) raises :class:`~repro.errors.SimulationError` inside
the program.  A sleep is a heap entry and nothing else: each process owns
one **sleep token** (``Process._sleep``), a loop pushes ``(now + ns,
NORMAL, seq, token)`` -- the entry a ``Timeout`` yielded at that instant
would get, so order, clocks and ``events_processed`` are unchanged -- and
on pop sends ``None`` straight into the generator: no event object, no
callbacks list, no ``_target`` bookkeeping.

Delivering an interrupt retires the token the process slept on and gives
it a fresh one; the stale entry is still popped and counted, like the
detached ``Timeout`` it replaces, but resumes nothing.

``env.timeout()`` stays the event for waits that compose or carry a value,
and is not pooled: the ``Timeout`` and anonymous-``Event`` freelists
existed only to make an event per sleep cheap, at the price of a rule --
never touch a nameless event you have yielded -- that went with them.

Callbacks
---------
``env.call_at(delay, fn)`` runs ``fn()`` ``delay`` ns from now, and is a
heap entry and nothing else: it pushes ``(now + delay, NORMAL, seq,
token)``, the entry an ``env.event()`` with ``fn`` as its one callback
succeeded with that delay would get, and a loop that pops the token calls
``fn``.  Every delivery -- a packet, an intra-node message, a get landing,
an AMO stream -- is one; the receiving side decides whether some process
needs waking.  An event is only for a waiter: a process that blocks, or a
condition composing other events.
"""

from __future__ import annotations

from gc import disable as _gc_disable
from gc import enable as _gc_enable
from gc import isenabled as _gc_isenabled
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

from repro.errors import DeadlockError, LivelockError, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "URGENT",
    "NORMAL",
]

URGENT = 0
NORMAL = 1

_PENDING = object()


class Interrupt(Exception):
    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    __slots__ = ("env", "callbacks", "_value", "_ok", "name")

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok = True
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0, priority: int = NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        # ``schedule`` rejects a bad delay before pushing, so the event is
        # still pending when it raises.
        self.env.schedule(self, delay, priority)
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=delay, priority=URGENT)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    __slots__ = ()

    def __init__(self, env: "Environment", delay: int, value: Any = None,
                 priority: int = NORMAL) -> None:
        # Tested before ``schedule`` truncates to whole ns, so every
        # negative delay is rejected, -0.5 included.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self._value = value
        env.schedule(self, delay=delay, priority=priority)


class _Sleep:
    """A process's sleep token: the queue entry of ``yield ns``.

    Popping it resumes ``proc`` with ``None``; ``proc`` is ``None`` once an
    interrupt retired the token (see "Sleeping" in the module docstring).
    The class attributes let a loop read a token like a fired event.
    """

    __slots__ = ("proc",)
    _ok = True
    _value = None

    def __init__(self, proc: "Process") -> None:
        self.proc: Process | None = proc


class _Call:
    """The queue entry of ``env.call_at``: popping it calls ``fn()`` (see
    "Callbacks" in the module docstring)."""

    __slots__ = ("fn",)


_CALL_NEW = object.__new__


def _bad_yield(proc: "Process", out: Any) -> Event:
    """A failed trigger that throws a bad yield back into ``proc``."""
    ev = Event(proc.env)
    ev._ok = False
    ev._value = SimulationError(
        f"process {proc.name!r} yielded non-event {out!r} "
        "(a sleep is a whole number of ns: an int >= 0)")
    return ev


class Process(Event):
    __slots__ = ("_gen", "_target", "_sleep", "_send", "_throw")

    def __init__(self, env: "Environment", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(gen).__name__} "
                "(did you forget to call the generator function?)")
        super().__init__(env, name=name or getattr(gen, "__name__", ""))
        self._gen = gen
        self._send = gen.send
        self._throw = gen.throw
        self._target: Event | None = None
        self._sleep = _Sleep(self)
        env._nprocesses += 1
        env._live.add(self)
        init = Event(env, name=f"init:{self.name}")
        init._ok = True
        init._value = None
        init.callbacks.append(self)
        env.schedule(init, delay=0, priority=NORMAL)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None, *,
                  exception: BaseException | None = None) -> None:
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        exc: BaseException = exception if exception is not None else Interrupt(cause)
        wake = Event(self.env, name=f"interrupt:{self.name}")
        wake._ok = False
        wake._value = exc
        wake.callbacks.append(self._interrupted)
        self.env.schedule(wake, delay=0, priority=URGENT)

    def _interrupted(self, wake: Event) -> None:
        """Deliver an interrupt: retire the sleep token (a pending sleep
        entry now resumes nothing), then throw into the program."""
        self._sleep.proc = None
        self._sleep = _Sleep(self)
        self._resume(wake)

    def _resume(self, trigger: "Event | _Sleep") -> None:
        env = self.env
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:
                pass
        self._target = None
        send = self._send
        throw = self._throw
        event = trigger
        while True:
            try:
                if event._ok:
                    out = send(event._value)
                else:
                    out = throw(event._value)
            except StopIteration as stop:
                env._nprocesses -= 1
                env._live.discard(self)
                env.note_progress()
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:
                env._nprocesses -= 1
                env._live.discard(self)
                if env.strict:
                    self._ok = False
                    self._value = exc
                    env.schedule(self, delay=0, priority=URGENT)
                    raise
                self.fail(exc)
                return
            if out.__class__ is int and out >= 0:
                env.schedule(self._sleep, delay=out)
                return
            try:
                cbs = out.callbacks
            except AttributeError:
                event = _bad_yield(self, out)
                continue
            if cbs is not None:
                cbs.append(self)
                self._target = out
                return
            event = out

    __call__ = _resume


class ConditionEvent(Event):
    __slots__ = ("_events", "_remaining", "_bound_on_fire")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("mixing events from different environments")
        self._remaining = 0
        on_fire = self._bound_on_fire = self._on_fire
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev, immediate=True)
            else:
                self._remaining += 1
                ev.callbacks.append(on_fire)
        if not self.triggered:
            self._finalize_empty()
        elif self._remaining:
            self._detach()

    def _finalize_empty(self) -> None:
        raise NotImplementedError

    def _check(self, ev: Event, immediate: bool = False) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        on_fire = self._bound_on_fire
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is not None:
                try:
                    cbs.remove(on_fire)
                except ValueError:
                    pass

    def _on_fire(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            self._detach()
            return
        self._remaining -= 1
        self._check(ev)
        if self._value is not _PENDING:
            self._detach()


class AllOf(ConditionEvent):
    __slots__ = ()

    def _finalize_empty(self) -> None:
        if self._remaining == 0 and not self.triggered:
            self.succeed([ev.value for ev in self._events])

    def _check(self, ev: Event, immediate: bool = False) -> None:
        if not immediate and self._remaining == 0 and not self.triggered:
            self.succeed([e.value for e in self._events])
        elif immediate and not ev._ok:
            self.fail(ev._value)


class AnyOf(ConditionEvent):
    __slots__ = ()

    def _finalize_empty(self) -> None:
        if not self._events and not self.triggered:
            self.succeed(None)

    def _check(self, ev: Event, immediate: bool = False) -> None:
        if not self.triggered:
            if ev._ok:
                self.succeed(ev._value)
            else:
                self.fail(ev._value)


class Environment:
    __slots__ = ("now", "_queue", "_seq", "_nprocesses", "_live",
                 "max_events", "strict", "events_processed",
                 "progress_marks", "watchdog_interval",
                 "watchdog_stalls", "_wd_next", "_wd_marks", "_wd_stale",
                 "api_sites", "__dict__")

    def __init__(self, max_events: int = 200_000_000, strict: bool = True,
                 watchdog_interval: int = 0, watchdog_stalls: int = 3) -> None:
        #: Current simulated time (ns): a plain slot, read several times
        #: per operation by every layer, written by the run loops only.
        self.now = 0
        self._queue: list[tuple[int, int, int, Event]] = []
        self._seq = 0
        self._nprocesses = 0
        self._live: set[Process] = set()
        self.max_events = max_events
        self.strict = strict
        self.events_processed = 0
        self.progress_marks = 0
        self.watchdog_interval = int(watchdog_interval)
        self.watchdog_stalls = int(watchdog_stalls)
        self._wd_next = self.watchdog_interval or 0
        self._wd_marks = 0
        self._wd_stale = 0
        self.api_sites: dict[str, str | tuple] = {}

    def note_progress(self) -> None:
        self.progress_marks += 1

    def blocked_diagnostics(self) -> tuple[tuple[str, ...], dict[str, str]]:
        names = []
        sites: dict[str, str] = {}
        for proc in sorted(self._live, key=lambda p: p.name):
            names.append(proc.name)
            site = self.api_sites.get(proc.name)
            if site.__class__ is tuple:   # (format, *args), unformatted
                site = site[0] % site[1:]
            # A sleeping process keeps the (fired) event it last waited on.
            target = proc._target
            if site is None and target is not None and target.name \
                    and target.callbacks is not None:
                site = f"waiting on {target.name}"
            if site is not None:
                sites[proc.name] = site
        return tuple(names), sites

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None, priority: int = NORMAL) -> Timeout:
        """An event that fires ``delay`` ns from now with ``value``; to
        only wait, ``yield delay`` (see "Sleeping")."""
        return Timeout(self, delay, value, priority)

    def call_at(self, delay: int, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` ``delay`` ns from now (see "Callbacks")."""
        token = _CALL_NEW(_Call)
        token.fn = fn
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, NORMAL, seq, token))

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, priority, seq, event))

    def run(self) -> None:
        """Process events till the store drains (see "The run loop")."""
        queue = self._queue
        pop = heappop
        nevents = self.events_processed
        max_events = self.max_events
        wd_interval = self.watchdog_interval
        trip = self._wd_next if wd_interval else max_events
        if trip > max_events:
            trip = max_events
        push = heappush
        sleep_cls = _Sleep
        call_cls = _Call
        process_cls = Process
        int_cls = int
        normal = NORMAL
        gc_was = _gc_isenabled()
        if gc_was:
            _gc_disable()
        try:
            while queue:
                if nevents >= trip:
                    if nevents >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(simulated t={self.now}ns) -- runaway protocol?")
                    self.events_processed = nevents
                    self._watchdog_check()
                    trip = self._wd_next
                    if trip > max_events:
                        trip = max_events
                entry = pop(queue)
                now = entry[0]
                self.now = now
                event = entry[3]
                nevents += 1
                cls = event.__class__
                if cls is sleep_cls:
                    proc = event.proc
                    if proc is None:
                        continue        # retired by an interrupt
                elif cls is call_cls:
                    event.fn()
                    continue
                else:
                    cbs = event.callbacks
                    event.callbacks = None
                    if len(cbs) != 1 \
                            or (proc := cbs[0]).__class__ is not process_cls:
                        for cb in cbs:
                            cb(event)
                        continue
                # Inlined Process._resume: a sleep token, or the one
                # process waiting on ``event`` -- a process is a callback
                # only of the event it yielded (or of its init event), so
                # there is no other wait to detach it from.  Interrupts
                # take ``Process._interrupted``.
                send = proc._send
                ev2 = event
                while True:
                    try:
                        if ev2._ok:
                            out = send(ev2._value)
                        else:
                            out = proc._throw(ev2._value)
                    except StopIteration as stop:
                        self._nprocesses -= 1
                        self._live.discard(proc)
                        self.progress_marks += 1
                        proc.succeed(stop.value, priority=URGENT)
                        break
                    except BaseException as exc:
                        self._nprocesses -= 1
                        self._live.discard(proc)
                        if self.strict:
                            proc._ok = False
                            proc._value = exc
                            self.schedule(proc, delay=0, priority=URGENT)
                            raise
                        proc.fail(exc)
                        break
                    if out.__class__ is int_cls and out >= 0:
                        # Sleep: Environment.schedule inlined.
                        seq = self._seq + 1
                        self._seq = seq
                        push(queue, (now + out, normal, seq, proc._sleep))
                        break
                    try:
                        ocbs = out.callbacks
                    except AttributeError:
                        ev2 = _bad_yield(proc, out)
                        continue
                    if ocbs is not None:
                        ocbs.append(proc)
                        proc._target = out
                        break
                    ev2 = out
        finally:
            self.events_processed = nevents
            if gc_was:
                _gc_enable()
        self._drained()

    def _drained(self) -> None:
        if self._nprocesses > 0:
            names, sites = self.blocked_diagnostics()
            raise DeadlockError(self._nprocesses, self.now, names, sites)

    def _watchdog_check(self) -> None:
        self._wd_next = self.events_processed + max(
            self.watchdog_interval, 8 * self._nprocesses)
        if self.progress_marks != self._wd_marks or self._nprocesses == 0:
            self._wd_marks = self.progress_marks
            self._wd_stale = 0
            return
        self._wd_stale += 1
        if self._wd_stale >= self.watchdog_stalls:
            names, sites = self.blocked_diagnostics()
            raise LivelockError(
                self.now, self.events_processed,
                self._wd_stale * self.watchdog_interval, names, sites)
