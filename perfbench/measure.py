"""The measuring loop: run tasks, check their outputs, account failures.

A *task* is one call into the program (one artifact, one Fela run, one
cluster simulation); it produces ``ops`` operations, the unit every rate
counts (a cluster simulation is one op per submitted job).  A *pass* is
the list of tasks a workload repeats; passes run whole, so every
measured pass covers the same kind of input mix.

An op fails when its task raises (then all of the task's ops fail) or
when its output digest differs from the pinned one.  A failure never
stops the run.  ``unexpected`` marks outcomes the pins do not allow: a
digest mismatch, a raise where outputs are pinned, or a task with no pin.
A raise of the pinned exception type is a known defect: its ops count as
failed, but the output check still passes.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import traceback
import typing as _t

OK = "ok"
MISMATCH = "mismatch"
RAISED = "raised"
#: Completed, but the pin records a known failure, so nothing to check.
UNPINNED = "unpinned"


@dataclasses.dataclass(frozen=True)
class Task:
    """One call into the program; ``run`` returns one digest per op."""

    key: str
    ops: int
    run: _t.Callable[[], _t.Sequence[str]]


@dataclasses.dataclass(frozen=True)
class TaskRecord:
    key: str
    ops: int
    failed: int
    wall_ns: int
    outcome: str
    unexpected: bool
    error: str | None = None


def check(
    ops: int, digests: _t.Sequence[str] | None, error: BaseException | None,
    pin: _t.Any,
) -> tuple[str, int, bool]:
    """``(outcome, failed ops, unexpected)`` of a task against its pin;
    ``digests`` is ``None`` exactly when the task raised ``error``."""
    known_raise = isinstance(pin, dict) and "raises" in pin
    if digests is None:
        expected = known_raise and pin["raises"] == type(error).__name__
        return RAISED, ops, not expected
    if known_raise:
        return UNPINNED, ops, False
    if pin is None or len(pin) != len(digests):
        return MISMATCH, ops, True
    failed = sum(1 for got, want in zip(digests, pin) if got != want)
    return (MISMATCH if failed else OK), failed, failed > 0


def run_task(
    task: Task,
    pin: _t.Any,
    clock: _t.Callable[[], int] = time.perf_counter_ns,
) -> TaskRecord:
    """Run one task, time it, and check its outputs; never raises for a
    failure of the program under test."""
    digests: _t.Sequence[str] | None = None
    error: Exception | None = None
    detail = None
    started = clock()
    try:
        digests = task.run()
    except Exception as exc:  # the op boundary: record, count, go on
        error = exc
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    wall = clock() - started
    if digests is not None and len(digests) != task.ops:
        raise RuntimeError(
            f"task {task.key} returned {len(digests)} digests for "
            f"{task.ops} ops"
        )
    outcome, failed, unexpected = check(task.ops, digests, error, pin)
    return TaskRecord(
        key=task.key,
        ops=task.ops,
        failed=failed,
        wall_ns=wall,
        outcome=outcome,
        unexpected=unexpected,
        error=detail,
    )


def run_passes(
    passes: _t.Iterator[_t.Sequence[Task]],
    pins: _t.Mapping[str, _t.Any],
    seconds: float,
    clock: _t.Callable[[], int] = time.perf_counter_ns,
    warmup_seconds: float = 1.0,
) -> tuple[list[TaskRecord], list[list[TaskRecord]]]:
    """Warm-up tasks, then whole passes until ``seconds`` of task time has
    been spent; returns ``(warm-up records, measured passes)``.

    The warm-up runs tasks until ``warmup_seconds`` have passed; they are
    checked like any other but not counted.  The first tasks of a
    process pay one-off costs (lazy imports, allocator growth) that
    would otherwise make the first pass an outlier.
    """
    def timed(task: Task) -> TaskRecord:
        return run_task(task, pins.get(task.key), clock)

    warmup: list[TaskRecord] = []
    warm_ns = 0
    while warm_ns < warmup_seconds * 1e9:
        for task in next(passes):
            warmup.append(timed(task))
            warm_ns += warmup[-1].wall_ns
            if warm_ns >= warmup_seconds * 1e9:
                break
    spent = 0
    done: list[list[TaskRecord]] = []
    while spent < seconds * 1e9:
        done.append([timed(task) for task in next(passes)])
        spent += sum(record.wall_ns for record in done[-1])
    return warmup, done


def pass_rate(records: _t.Sequence[TaskRecord]) -> float:
    """Completed ops per host second over some tasks.  Time spent on
    failed ops stays in the denominator."""
    completed = sum(r.ops - r.failed for r in records)
    wall = sum(r.wall_ns for r in records)
    return completed / (wall / 1e9)


def blocks(
    passes: _t.Sequence[_t.Sequence[TaskRecord]], seconds: float
) -> list[list[TaskRecord]]:
    """Consecutive passes joined into blocks of at least ``seconds`` of
    task time; a short remainder joins the last block.

    Short passes do not all see the same garbage collections and
    allocator work, so their rates scatter in modes; blocks of a second
    or more average that out before the median is taken.
    """
    budget = int(seconds * 1e9)
    done: list[list[TaskRecord]] = []
    block: list[TaskRecord] = []
    for records in passes:
        block.extend(records)
        if sum(r.wall_ns for r in block) >= budget:
            done.append(block)
            block = []
    if block:
        if done:
            done[-1].extend(block)
        else:
            done.append(block)
    return done


def upper_quartile(values: _t.Sequence[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def summarize(
    passes: _t.Sequence[_t.Sequence[TaskRecord]], block_seconds: float = 1.0
) -> dict[str, _t.Any]:
    """End-to-end figures of a measured run.

    The rate is the upper quartile of the rates of blocks of at least
    ``block_seconds``.  On a shared host, neighbours only ever slow a
    block down, often for many seconds at a time; the faster quartile
    follows the program rather than its neighbours, where the median
    moves with them once they cover half the run.
    """
    rates = [pass_rate(block) for block in blocks(passes, block_seconds)]
    records = [record for done in passes for record in done]
    attempted = sum(r.ops for r in records)
    failed = sum(r.failed for r in records)
    task_ms = [r.wall_ns / 1e6 for r in records]
    return {
        "passes": len(passes),
        "tasks": len(records),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "completed_share": (attempted - failed) / attempted,
        "ops_per_wall_s": upper_quartile(rates),
        "ops_per_wall_s_median": statistics.median(rates),
        "blocks": len(rates),
        "wall_s": sum(r.wall_ns for r in records) / 1e9,
        "task_ms_p50": statistics.median(task_ms),
        "task_ms_max": max(task_ms),
        "correct": not any(r.unexpected for r in records),
    }
