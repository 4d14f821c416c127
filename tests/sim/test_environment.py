"""Unit tests for the event-loop environment."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.core import EmptySchedule


class TestRun:
    def test_run_until_time(self):
        env = Environment()
        ticks = []

        def clock(env):
            while True:
                ticks.append(env.now)
                yield env.timeout(1)

        env.process(clock(env))
        env.run(until=3.5)
        assert ticks == [0, 1, 2, 3]
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10)
        for until in (5, 10, float("nan")):
            with pytest.raises(SimulationError):
                env.run(until=until)
        # A rejected horizon leaves the clock where it was.
        assert env.now == 10
        env.run(until=11)
        assert env.now == 11

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2)
            return "finished"

        assert env.run(env.process(proc(env))) == "finished"

    def test_run_until_never_triggered_event_deadlocks(self):
        env = Environment()
        pending = env.event()
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(pending)

    def test_run_until_already_processed_event(self):
        env = Environment()
        event = env.event().succeed("v")
        env.run()
        assert env.run(event) == "v"

    def test_run_drains_queue_when_no_until(self):
        env = Environment()
        env.timeout(1)
        env.timeout(7)
        env.run()
        assert env.now == 7

    def test_initial_time(self):
        env = Environment(initial_time=100)
        env.timeout(5)
        env.run()
        assert env.now == 105

    def test_nan_initial_time_rejected(self):
        with pytest.raises(SimulationError, match="NaN"):
            Environment(initial_time=float("nan"))


class TestStep:
    def test_step_on_empty_queue(self):
        env = Environment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_returns_next_time(self):
        env = Environment()
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2

    def test_peek_empty_is_infinity(self):
        env = Environment()
        assert env.peek() == float("inf")


class TestDeterminism:
    def test_equal_time_events_fifo(self):
        env = Environment()
        order = []

        def proc(env, name):
            yield env.timeout(1)
            order.append(name)

        for name in ("a", "b", "c"):
            env.process(proc(env, name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_repeated_runs_identical(self):
        def simulate():
            env = Environment()
            log = []

            def worker(env, name, delay):
                while env.now < 10:
                    yield env.timeout(delay)
                    log.append((env.now, name))

            env.process(worker(env, "x", 2))
            env.process(worker(env, "y", 3))
            env.run(until=10)
            return log

        assert simulate() == simulate()
