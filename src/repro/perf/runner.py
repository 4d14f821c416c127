"""The deterministic benchmark runner.

Measures each scenario as: one-off ``build`` (untimed), ``warmup``
untimed repetitions, then ``repeats`` timed repetitions.  Wall-clock is
summarized as median + interquartile range — the paper-standard robust
pair for noisy timers — alongside simulated-seconds-per-wall-second
(how much cluster time one host second buys), events/sec (event-loop
throughput), and the process's peak RSS.

Every repetition must return identical :class:`ScenarioStats`; a
mismatch means the scenario (or the engine underneath it) is
nondeterministic, and the runner fails loudly instead of averaging over
the bug.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
import typing as _t

from repro.errors import BenchmarkError
from repro.perf.scenarios import (
    Scenario,
    ScenarioContext,
    ScenarioStats,
    get_scenario,
)
from repro.perf.store import BenchRun, ScenarioRecord

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1


def _peak_rss_kb() -> float:
    """Peak resident set size of this process, in KiB (0.0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return float(usage) / (1024.0 if usage > 1 << 30 else 1.0)


@dataclasses.dataclass(frozen=True)
class ScenarioMeasurement:
    """One scenario's measured performance."""

    name: str
    kind: str
    repeats: int
    warmup: int
    wall_seconds: tuple[float, ...]
    wall_seconds_median: float
    wall_seconds_iqr: float
    simulated_seconds: float
    events: int
    sim_seconds_per_wall_second: float
    events_per_second: float
    peak_rss_kb: float

    def to_record(self) -> ScenarioRecord:
        return ScenarioRecord(
            name=self.name,
            kind=self.kind,
            repeats=self.repeats,
            warmup=self.warmup,
            wall_seconds=self.wall_seconds,
            wall_seconds_median=self.wall_seconds_median,
            wall_seconds_iqr=self.wall_seconds_iqr,
            simulated_seconds=self.simulated_seconds,
            events=self.events,
            sim_seconds_per_wall_second=self.sim_seconds_per_wall_second,
            events_per_second=self.events_per_second,
            peak_rss_kb=self.peak_rss_kb,
        )


def _summarize(walls: _t.Sequence[float]) -> tuple[float, float]:
    """(median, interquartile range) of the timed repetitions."""
    median = statistics.median(walls)
    if len(walls) < 2:
        return median, 0.0
    quartiles = statistics.quantiles(walls, n=4, method="inclusive")
    return median, quartiles[2] - quartiles[0]


def measure_scenario(
    scenario: Scenario | str,
    ctx: ScenarioContext | None = None,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
) -> ScenarioMeasurement:
    """Measure one scenario; raises on nondeterministic repetitions."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if repeats < 1:
        raise BenchmarkError(f"need at least one repeat: {repeats}")
    if warmup < 0:
        raise BenchmarkError(f"warmup must be >= 0: {warmup}")
    ctx = ctx or ScenarioContext()
    run_once = scenario.build(ctx)
    for _ in range(warmup):
        run_once()

    walls: list[float] = []
    stats: ScenarioStats | None = None
    for repeat in range(repeats):
        begin = time.perf_counter()
        observed = run_once()
        walls.append(time.perf_counter() - begin)
        if stats is None:
            stats = observed
        elif observed != stats:
            raise BenchmarkError(
                f"scenario {scenario.name!r} is nondeterministic: "
                f"repeat {repeat} produced {observed}, expected {stats}"
            )
    assert stats is not None
    median, iqr = _summarize(walls)
    return ScenarioMeasurement(
        name=scenario.name,
        kind=scenario.kind,
        repeats=repeats,
        warmup=warmup,
        wall_seconds=tuple(walls),
        wall_seconds_median=median,
        wall_seconds_iqr=iqr,
        simulated_seconds=stats.simulated_seconds,
        events=stats.events,
        sim_seconds_per_wall_second=(
            stats.simulated_seconds / median if median > 0 else 0.0
        ),
        events_per_second=stats.events / median if median > 0 else 0.0,
        peak_rss_kb=_peak_rss_kb(),
    )


def run_benchmarks(
    names: _t.Sequence[str],
    label: str,
    ctx: ScenarioContext | None = None,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    executor: _t.Any | None = None,
) -> BenchRun:
    """Measure ``names`` in order and bundle them into one labelled run.

    With a parallel :class:`~repro.exec.SweepExecutor` the *scenarios*
    fan out across pool workers (one :class:`~repro.exec.BenchJob`
    each); the repetitions of a single scenario always stay serial
    inside their worker, so the per-repetition determinism tripwire is
    untouched.  Parallel timings measure contended workers — use them
    for smoke coverage, not for pinning speedups.
    """
    if not names:
        raise BenchmarkError("no scenarios selected")
    for name in names:
        get_scenario(name)  # fail fast before spawning workers
    if executor is not None and executor.jobs > 1 and len(names) > 1:
        from repro.exec import BenchJob

        measurements = executor.map(
            [
                BenchJob(scenario=name, repeats=repeats, warmup=warmup)
                for name in names
            ]
        )
        return BenchRun(
            label=label,
            records=tuple(m.to_record() for m in measurements),
        )
    ctx = ctx or ScenarioContext()
    records = tuple(
        measure_scenario(name, ctx, repeats=repeats, warmup=warmup)
        .to_record()
        for name in names
    )
    return BenchRun(label=label, records=records)
