"""The discrete-event simulation environment (event loop).

The environment orders events by ``(time, priority, sequence)``.  Ties at
equal time and priority are broken by insertion order, which makes every
simulation in this package fully deterministic.  Storage is a
:class:`~repro.sim.calendar.CalendarQueue`: delay-zero events ride O(1)
FIFO lanes, positive delays go through a binary heap — the pop order is
identical to the single global heap this environment used to keep.
"""

from __future__ import annotations

import typing as _t
from functools import partial as _partial
from heapq import heappop, heappush
from math import isnan

from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.sim.calendar import CalendarQueue
from repro.sim.events import (
    NORMAL,
    PENDING,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator

Infinity: float = float("inf")


class EmptySchedule(Exception):
    """Internal signal: the event queue is empty (simulation has ended)."""


class StopSimulation(Exception):
    """Internal signal: the ``until`` event of :meth:`Environment.run` fired."""

    @classmethod
    def callback(cls, event: Event) -> None:
        """Event callback that ends the simulation with the event's value."""
        if event.ok:
            raise cls(event.value)
        raise _t.cast(BaseException, event.value)


class Environment:
    """Execution environment for a deterministic discrete-event simulation."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        if isnan(self._now):
            raise SimulationError("initial_time must not be NaN")
        self._queue: CalendarQueue = CalendarQueue()
        #: Aliases to the calendar queue's three structures.  The queue
        #: never replaces them, so hot paths (Timeout, succeed, resume)
        #: save one attribute hop per insert by going through these.
        self._urgent = self._queue.urgent
        self._normal = self._queue.normal
        self._future = self._queue.future
        self._eid: int = 0
        self._active_proc: Process | None = None
        # Per-instance C-level constructors shadowing the factory
        # methods below: ``env.timeout(...)`` resolves to a
        # ``functools.partial`` and skips one Python frame per call —
        # measurable, because timeouts dominate every workload.  The
        # class-level methods remain as the documented interface.
        self.timeout = _partial(Timeout, self)
        self.event = _partial(Event, self)
        self.process = _partial(Process, self)
        self.all_of = _partial(AllOf, self)
        self.any_of = _partial(AnyOf, self)
        #: Step monitors (e.g. the invariant checker's clock-monotonicity
        #: probe); called as ``monitor(now, event)`` after each pop.
        self._monitors: list[_t.Callable[[float, Event], None]] = []
        #: The tracer observing this environment.  Components (fabric,
        #: token server, workers, collectives) emit through this one
        #: attribute; the default null tracer makes every emission a
        #: no-op, so an untraced simulation pays nothing.
        self.tracer: NullTracer = NULL_TRACER

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def scheduled_events(self) -> int:
        """Total number of events ever scheduled on this environment.

        Monotonic and deterministic for a seeded run, which makes it the
        natural "work done" figure for benchmark throughput (events/sec).
        """
        return self._eid

    def attach_monitor(
        self, monitor: _t.Callable[[float, Event], None]
    ) -> None:
        """Register a step monitor called as ``monitor(now, event)``.

        Monitors observe every processed event (the invariant checker
        uses one to assert timestamp monotonicity).  They run before the
        event's callbacks and must not mutate simulation state.
        """
        self._monitors.append(monitor)

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Register ``generator`` as a new :class:`Process`."""
        return Process(self, generator)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """An event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """An event that fires once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` time units."""
        eid = self._eid
        self._eid = eid + 1
        if delay == 0.0:
            self._queue.push((self._now, priority, eid, event), True)
        else:
            heappush(
                self._queue.future, (self._now + delay, priority, eid, event)
            )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue.peek_time()

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when no events remain.
        """
        try:
            self._now, _, _, event = self._queue.pop()
        except IndexError:
            raise EmptySchedule() from None

        if self._monitors:
            for monitor in self._monitors:
                monitor(self._now, event)

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failed event nobody waits on: surface the error loudly.
            exc = _t.cast(BaseException, event._value)
            raise exc

    def run(self, until: Event | float | None = None) -> _t.Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until simulation time reaches that value;
        * an :class:`Event` — run until that event is processed and return
          its value.
        """
        stop_event: Event | None = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: nothing to run.
                    return stop_event.value
                stop_event.callbacks.append(StopSimulation.callback)
            else:
                at = float(until)
                if not at > self._now:  # also rejects NaN
                    raise SimulationError(
                        f"until ({at}) must be greater than the current "
                        f"simulation time ({self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks.append(StopSimulation.callback)
                self.schedule(stop_event, priority=NORMAL, delay=at - self._now)

        # Inlined form of repeated ``step()`` calls: the run loop is the
        # single hottest frame in every experiment, so the pop/dispatch
        # cycle avoids one method call, one try/except, and repeated
        # attribute loads per event.  Semantics — pop order, monitor
        # hooks, callback handling, failed-event re-raise — are identical
        # to :meth:`step`.  The three-way head compare below is
        # ``CalendarQueue.pop`` unrolled: each lane is internally sorted,
        # so the smallest of the three heads is the global minimum, and
        # when both lanes are empty the only cost over a bare heap is two
        # truthiness checks.
        queue = self._queue
        urgent = queue.urgent
        normal = queue.normal
        future = queue.future
        pop_urgent = urgent.popleft
        pop_normal = normal.popleft
        monitors = self._monitors
        try:
            while True:
                if urgent:
                    entry = urgent[0]
                    if normal and normal[0] < entry:
                        if future and future[0] < normal[0]:
                            entry = heappop(future)
                        else:
                            entry = pop_normal()
                    elif future and future[0] < entry:
                        entry = heappop(future)
                    else:
                        entry = pop_urgent()
                elif normal:
                    if future and future[0] < normal[0]:
                        entry = heappop(future)
                    else:
                        entry = pop_normal()
                elif future:
                    entry = heappop(future)
                else:
                    break
                self._now, _, _, event = entry

                if monitors:
                    now = self._now
                    for monitor in monitors:
                        monitor(now, event)

                callbacks = event.callbacks
                event.callbacks = None
                assert callbacks is not None, "event processed twice"
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    # A failed event nobody waits on: surface it loudly.
                    raise _t.cast(BaseException, event._value)
        except StopSimulation as stop:
            return stop.args[0]
        if stop_event is not None and stop_event._value is PENDING:
            raise SimulationError(
                f"no scheduled events left but {stop_event!r} was not "
                "triggered; the simulation deadlocked"
            )
        return None
