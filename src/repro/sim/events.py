"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy): simulation activity is expressed as generator functions that
``yield`` :class:`Event` objects; the :class:`~repro.sim.core.Environment`
drives the event loop and resumes processes when the events they wait on are
processed.

Events move through three states:

``pending``
    Created but not yet scheduled; may still be triggered.
``triggered``
    Given a value (or an exception) and placed on the event queue.
``processed``
    Popped from the queue; all callbacks have run.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush as _heappush

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.core import Environment
    from repro.sim.process import Process

#: Event scheduling priorities.  Lower values are popped first at equal
#: simulation times.  ``URGENT`` is used internally for process resumption
#: so that a process observes the effects of the event that woke it before
#: any same-time ``NORMAL`` events fire.
URGENT: int = 0
NORMAL: int = 1

#: Sentinel for "the event has not been assigned a value yet".
PENDING = object()


class Event:
    """An event that may happen at some point in simulation time.

    Callbacks are plain callables taking the event as the sole argument and
    are invoked in registration order when the event is processed.
    """

    # Events are the single hottest allocation in a run (every timeout,
    # transfer, token hand-off, and process termination mints at least
    # one), so the whole hierarchy is slotted: no per-instance __dict__.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[_t.Callable[["Event"], None]] | None = []
        self._value: _t.Any = PENDING
        self._ok: bool = True
        #: Set to ``True`` by :meth:`defused` accessors; a failed event whose
        #: exception is never retrieved is re-raised when processed, so that
        #: errors never pass silently.
        self._defused: bool = False

    def __repr__(self) -> str:
        detail = "" if self._value is PENDING else f" value={self._value!r}"
        return f"<{type(self).__name__}{detail} at {hex(id(self))}>"

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is (or was) queued."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The value of the event, or the exception of a failed event."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def defused(self) -> None:
        """Mark a failed event's exception as handled out-of-band."""
        self._defused = True

    # -- triggering -------------------------------------------------------

    # Triggering appends straight to the calendar queue's delay-zero
    # NORMAL lane instead of going through ``env.schedule``: identical
    # entries, identical order (the clock never runs backwards and the
    # sequence number strictly increases, so lane appends stay monotone),
    # one less function call on the hottest mutation in the kernel.

    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._normal.append((env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() requires an exception, not {exception!r}"
            )
        self._ok = False
        self._value = exception
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._normal.append((env._now, NORMAL, eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state (ok/value) of ``event``.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._normal.append((env._now, NORMAL, eid, self))

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that fires after a fixed delay of simulation time."""

    __slots__ = ("_delay",)

    # Timeouts are minted once per simulated wait — the single hottest
    # allocation in the kernel — so ``__init__`` flattens the
    # ``Event.__init__`` + ``env.schedule`` call chain into direct slot
    # assignments and a direct queue insert (same entry tuple, same
    # order; see ``Event.succeed`` for the monotonicity argument).

    def __init__(
        self, env: "Environment", delay: float, value: _t.Any = None
    ) -> None:
        if not delay >= 0:  # also rejects NaN, which would stall the clock
            raise SimulationError(f"timeout delay must be >= 0: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        eid = env._eid
        env._eid = eid + 1
        if delay == 0.0:
            env._normal.append((env._now, NORMAL, eid, self))
        else:
            _heappush(env._future, (env._now + delay, NORMAL, eid, self))

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay!r} at {hex(id(self))}>"


class Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        eid = env._eid
        env._eid = eid + 1
        env._urgent.append((env._now, URGENT, eid, self))


class Interruption(Event):
    """Internal event that throws an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: _t.Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError(
                f"{process!r} has terminated and cannot be interrupted"
            )
        if process is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")
        self.callbacks = [self._interrupt]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.process = process
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._urgent.append((env._now, URGENT, eid, self))

    def _interrupt(self, event: "Event") -> None:
        if self.process.triggered:
            return  # the process terminated before the interrupt fired
        # Unsubscribe the process from whatever it currently waits on; the
        # interrupt supersedes that wait.
        target = self.process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self.process._resume_cb)
            except ValueError:
                pass
        self.process._resume(self)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> _t.Any:
        """The cause passed to ``interrupt()``."""
        return self.args[0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt({self.cause!r})"


class ConditionValue:
    """Result of a :class:`Condition`: an ordered event → value mapping."""

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> _t.Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self) -> _t.Iterator[Event]:
        return iter(self.events)

    def keys(self) -> list[Event]:
        return list(self.events)

    def values(self) -> list[_t.Any]:
        return [event._value for event in self.events]

    def items(self) -> list[tuple[Event, _t.Any]]:
        return [(event, event._value) for event in self.events]

    def todict(self) -> dict[Event, _t.Any]:
        return dict(self.items())


class Condition(Event):
    """A compound event that triggers when ``evaluate(events, count)`` holds.

    The condition value is a :class:`ConditionValue` of the sub-events that
    had triggered by the time the condition fired, in creation order.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: _t.Callable[[list[Event], int], bool],
        events: _t.Iterable[Event],
    ) -> None:
        # Inlined ``Event.__init__``: conditions are minted once per
        # any_of/all_of round, a hot path in collective-heavy runs.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError(
                    "cannot mix events from different environments"
                )

        # Immediately check already-processed events, then subscribe
        # (one bound method shared across the subscriptions).
        check = self._check
        for event in self._events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

        # An empty condition is trivially satisfied.
        if not self._events and self._value is PENDING:
            self.succeed(ConditionValue([]))

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defused()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            # Only events that have actually been processed belong in the
            # value: a Timeout carries its value from creation, so testing
            # ``triggered`` would wrongly include future timeouts.
            fired = [e for e in self._events if e.processed]
            self.succeed(ConditionValue(fired))
        else:
            return
        # The condition just fired (or failed): unsubscribe from the
        # sub-events still in flight, so a leftover ``any_of`` timeout
        # dispatches later with no callback to run and the condition is
        # not kept alive by the losing events.
        check = self._check
        for leftover in self._events:
            callbacks = leftover.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Evaluator: every sub-event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Evaluator: at least one sub-event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once all ``events`` have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once any of ``events`` has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: _t.Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
