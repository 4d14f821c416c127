"""Property-based tests (hypothesis) for the simulation kernel."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Environment


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_clock_reaches_max_delay(delays):
    """The environment ends at the latest scheduled timeout."""
    env = Environment()
    for delay in delays:
        env.timeout(delay)
    env.run()
    assert env.now == max(delays)


@given(
    delays=st.lists(
        st.integers(min_value=0, max_value=100), min_size=1, max_size=30
    )
)
def test_timeout_completion_order_is_sorted(delays):
    """Events are processed in non-decreasing time order."""
    env = Environment()
    seen = []

    def waiter(env, delay):
        yield env.timeout(delay)
        seen.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert seen == sorted(seen)
    assert sorted(seen) == sorted(float(d) for d in delays)
