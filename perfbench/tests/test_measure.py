import itertools
import statistics

import pytest

from digests import digest, job_digest, run_digest
from measure import (
    MISMATCH,
    blocks,
    OK,
    RAISED,
    UNPINNED,
    Task,
    pass_rate,
    run_passes,
    run_task,
    summarize,
)


class FakeClock:
    """Advances by ``step`` ns per read; a task can burn extra time."""

    def __init__(self, step=0):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now

    def spend(self, seconds):
        self.now += int(seconds * 1e9)


def task(key, digests, clock=None, seconds=0.0, error=None):
    def run():
        if clock is not None:
            clock.spend(seconds)
        if error is not None:
            raise error
        return digests

    return Task(key, len(digests), run)


def test_matching_digests_pass():
    record = run_task(task("t", ["a", "b"]), ["a", "b"])
    assert (record.outcome, record.failed, record.unexpected) == (OK, 0, False)


def test_a_digest_mismatch_fails_only_that_op():
    record = run_task(task("t", ["a", "x", "c"]), ["a", "b", "c"])
    assert (record.outcome, record.failed) == (MISMATCH, 1)
    assert record.unexpected


def test_a_missing_pin_is_unexpected():
    record = run_task(task("t", ["a"]), None)
    assert (record.outcome, record.failed, record.unexpected) == (
        MISMATCH, 1, True
    )


def test_a_raising_task_fails_all_its_ops_and_is_recorded():
    record = run_task(
        task("t", ["a", "b"], error=RuntimeError("boom")), ["a", "b"]
    )
    assert (record.outcome, record.failed, record.unexpected) == (
        RAISED, 2, True
    )
    assert "boom" in record.error


def test_a_pinned_known_failure_counts_as_failed_but_expected():
    pin = {"raises": "RuntimeError"}
    record = run_task(task("t", ["a"], error=RuntimeError("x")), pin)
    assert (record.outcome, record.failed, record.unexpected) == (
        RAISED, 1, False
    )
    other = run_task(task("t", ["a"], error=KeyError("x")), pin)
    assert other.unexpected
    fixed = run_task(task("t", ["a"]), pin)
    assert (fixed.outcome, fixed.failed, fixed.unexpected) == (
        UNPINNED, 1, False
    )


def test_the_run_goes_on_after_a_failure():
    clock = FakeClock()
    tasks = [
        task("ok", ["a"], clock, 1.0),
        task("bad", ["b", "b"], clock, 1.0, error=RuntimeError("x")),
        task("wrong", ["c"], clock, 1.0),
    ]
    pins = {"ok": ["a"], "bad": ["b", "b"], "wrong": ["d"]}
    warmup, passes = run_passes(
        itertools.repeat(tasks), pins, 5.0, clock, warmup_seconds=1.5
    )
    # Warm-up stops mid-pass once 1.5 s are spent; measuring starts afresh.
    assert [r.key for r in warmup] == ["ok", "bad"]
    # 3 s of task time per pass: two measured passes reach 5 s.
    assert len(passes) == 2
    summary = summarize(passes)
    assert summary["attempted"] == 8
    assert summary["failed"] == 6
    assert summary["failed_share"] == pytest.approx(0.75)
    assert summary["completed_share"] == pytest.approx(0.25)
    assert not summary["correct"]


def test_rates_count_completed_ops_over_all_task_time():
    clock = FakeClock()
    records = [
        run_task(task("a", ["x"] * 10, clock, 2.0), ["x"] * 10, clock),
        run_task(task("b", ["y"] * 5, clock, 3.0, error=ValueError()),
                 {"raises": "ValueError"}, clock),
    ]
    # 10 completed ops; the failed task's 3 s stay in the denominator.
    assert pass_rate(records) == pytest.approx(10 / 5.0)


def test_the_reported_rate_is_the_upper_quartile_of_block_rates():
    clock = FakeClock()
    passes = [
        [run_task(task("a", ["x"] * 6, clock, seconds), ["x"] * 6, clock)]
        for seconds in (1.0, 2.0, 3.0, 6.0, 1.5)
    ]
    summary = summarize(passes, block_seconds=1.0)
    rates = sorted([6.0, 3.0, 2.0, 1.0, 4.0])
    assert summary["ops_per_wall_s"] == pytest.approx(4.0)
    assert summary["ops_per_wall_s_median"] == pytest.approx(
        statistics.median(rates)
    )
    assert summary["correct"]


def test_short_passes_are_blocked_before_the_median():
    clock = FakeClock()
    passes = [
        [run_task(task("a", ["x"] * 2, clock, seconds), ["x"] * 2, clock)]
        for seconds in (0.5, 0.5, 0.25, 0.25, 0.25, 0.5, 0.1)
    ]
    # Blocks of >= 1 s: [0.5, 0.5], [0.25, 0.25, 0.25, 0.5 + 0.1 rest].
    sizes = [len(block) for block in blocks(passes, 1.0)]
    assert sizes == [2, 5]
    summary = summarize(passes, block_seconds=1.0)
    assert summary["ops_per_wall_s_median"] == pytest.approx(
        statistics.median([4 / 1.0, 10 / 1.35])
    )


class Result:
    total_time = 1.5
    records = ()

    def __init__(self, **stats):
        self.stats = stats


def test_digests_ignore_host_side_fields_only():
    assert run_digest(Result(a=1, fast_forward={"n": 1})) == run_digest(
        Result(a=1, fast_forward={"n": 2})
    )
    assert run_digest(Result(a=1)) != run_digest(Result(a=2))
    assert job_digest({"jct": 1.0, "run_wall": 3}) == job_digest(
        {"jct": 1.0, "run_wall": 4}
    )
    assert job_digest({"jct": 1.0}) != job_digest({"jct": 1.0 + 2**-40})
    assert digest("text") != digest("text ")
