"""Plain-text run reports derived from the trace stream.

The report answers the temporal questions the paper's claims hinge on,
straight from a :class:`~repro.obs.tracer.Tracer`'s events:

* **where did each worker's time go** — compute / fetch / injected
  straggler delay / idle, per worker;
* **what was the critical path** — the dependency-ordered chain of
  tokens whose training intervals bound the final synchronization, found
  by walking ``deps`` edges backwards from the last level to sync;
* **who caused the straggling** — injected delay per worker and how much
  of it the token machinery absorbed (delay overlapped by other workers'
  useful compute is *not* lost cluster time — that absorption is the
  paper's elasticity claim).
"""

from __future__ import annotations

import typing as _t

from repro.obs.events import (
    EV_ALLREDUCE,
    EV_DELAY,
    EV_FETCH,
    EV_MINTED,
    EV_TRAINED,
    EV_TS_REQUEST,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.metrics.results import RunResult


def _by_name(
    events: _t.Sequence[TraceEvent], name: str
) -> list[TraceEvent]:
    return [event for event in events if event.name == name]


def _sum_by_track(events: _t.Iterable[TraceEvent]) -> dict[int, float]:
    totals: dict[int, float] = {}
    for event in events:
        totals[event.track] = totals.get(event.track, 0.0) + event.duration
    return totals


@_t.runtime_checkable
class _HasStats(_t.Protocol):
    total_time: float
    runtime_name: str
    model_name: str
    iterations: int
    stats: dict[str, _t.Any]


def critical_path(
    events: _t.Sequence[TraceEvent],
) -> list[TraceEvent]:
    """The trained-token chain bounding the last gradient sync.

    Starting from the latest-ending ``sync.allreduce`` span that carries
    an (iteration, level) context, picks the latest-finishing trained
    token of that level and walks its ``deps`` backwards, at each hop
    following the dependency whose training finished last.  Returns the
    ``token.trained`` spans from level 0 up to the top level (empty when
    the trace holds no attributable sync).
    """
    trained: dict[int, TraceEvent] = {
        event.args["token"]: event for event in _by_name(events, EV_TRAINED)
    }
    minted: dict[int, TraceEvent] = {
        event.args["token"]: event for event in _by_name(events, EV_MINTED)
    }
    syncs = [
        event
        for event in _by_name(events, EV_ALLREDUCE)
        if "iteration" in event.args and "level" in event.args
    ]
    if not syncs or not trained:
        return []
    last_sync = max(syncs, key=lambda event: (event.end, event.seq))
    iteration = last_sync.args["iteration"]
    level = last_sync.args["level"]
    candidates = [
        event
        for event in trained.values()
        if event.args["iteration"] == iteration
        and event.args["level"] == level
    ]
    if not candidates:
        return []
    current = max(candidates, key=lambda event: (event.end, event.seq))
    chain = [current]
    while True:
        deps = minted.get(current.args["token"], current).args.get(
            "deps", []
        )
        dep_spans = [trained[dep] for dep in deps if dep in trained]
        if not dep_spans:
            break
        current = max(dep_spans, key=lambda event: (event.end, event.seq))
        chain.append(current)
    chain.reverse()
    return chain


def straggler_attribution(
    events: _t.Sequence[TraceEvent],
) -> dict[int, dict[str, float]]:
    """Per-worker injected-delay accounting.

    For each delayed worker: total injected ``delay`` seconds, and the
    ``absorbed`` fraction of that delay during which at least one *other*
    worker was computing (work the elastic token machinery kept flowing
    while this worker slept).
    """
    delays = _by_name(events, EV_DELAY)
    computes = _by_name(events, EV_TRAINED)
    out: dict[int, dict[str, float]] = {}
    for delay in delays:
        absorbed = 0.0
        for span in computes:
            if span.track == delay.track:
                continue
            overlap = min(delay.end, span.end) - max(
                delay.start, span.start
            )
            if overlap > 0:
                absorbed += overlap
        # Concurrent helpers can over-count the overlap; the absorbed
        # share is capped at the delay itself.
        absorbed = min(absorbed, delay.duration)
        entry = out.setdefault(
            delay.track, {"delay": 0.0, "absorbed": 0.0}
        )
        entry["delay"] += delay.duration
        entry["absorbed"] += absorbed
    return out


def render_run_report(
    result: "_HasStats | RunResult",
    events: _t.Sequence[TraceEvent],
    registry: MetricsRegistry | None = None,
) -> str:
    """Multi-section plain-text report for one traced run."""
    lines: list[str] = []
    total = result.total_time
    lines.append(
        f"== Run report: {result.runtime_name} on {result.model_name} "
        f"({result.iterations} iterations, {total:.3f} s) =="
    )

    # -- per-worker activity ------------------------------------------------
    compute = _sum_by_track(_by_name(events, EV_TRAINED))
    fetch = _sum_by_track(_by_name(events, EV_FETCH))
    delay = _sum_by_track(_by_name(events, EV_DELAY))
    workers = sorted(
        wid
        for wid in set(compute) | set(fetch) | set(delay)
        if wid >= 0
    )
    lines.append("")
    lines.append("-- Worker activity (seconds) --")
    lines.append(
        f"{'worker':>8} {'compute':>10} {'fetch':>10} {'delay':>10} "
        f"{'idle':>10} {'busy%':>7}"
    )
    for wid in workers:
        busy = compute.get(wid, 0.0)
        fetching = fetch.get(wid, 0.0)
        delayed = delay.get(wid, 0.0)
        idle = max(0.0, total - busy - fetching - delayed)
        share = busy / total if total > 0 else 0.0
        lines.append(
            f"{wid:>8} {busy:>10.3f} {fetching:>10.3f} "
            f"{delayed:>10.3f} {idle:>10.3f} {share:>6.1%}"
        )

    # -- critical path ------------------------------------------------------
    lines.append("")
    lines.append("-- Critical path (minted -> synced) --")
    chain = critical_path(events)
    if not chain:
        lines.append("(no attributable synchronization in trace)")
    else:
        path_compute = sum(span.duration for span in chain)
        previous_end = None
        for span in chain:
            wait = (
                span.start - previous_end
                if previous_end is not None
                else 0.0
            )
            lines.append(
                f"  {span.args['token_type']:>5} token "
                f"{span.args['token']:>4} on W{span.track}: "
                f"train [{span.start:9.3f}, {span.end:9.3f}] "
                f"({span.duration:.3f} s, +{max(wait, 0.0):.3f} s wait)"
            )
            previous_end = span.end
        syncs = _by_name(events, EV_ALLREDUCE)
        if syncs:
            last_sync = max(
                syncs, key=lambda event: (event.end, event.seq)
            )
            lines.append(
                f"  sync it={last_sync.args.get('iteration')} "
                f"level={last_sync.args.get('level')} "
                f"[{last_sync.start:9.3f}, {last_sync.end:9.3f}] "
                f"({last_sync.duration:.3f} s)"
            )
        share = path_compute / total if total > 0 else 0.0
        lines.append(
            f"  chain compute {path_compute:.3f} s = {share:.1%} of "
            "the run"
        )

    # -- straggler attribution ----------------------------------------------
    lines.append("")
    lines.append("-- Straggler attribution --")
    attribution = straggler_attribution(events)
    if not attribution:
        lines.append("(no straggler delays injected)")
    else:
        for wid in sorted(attribution):
            entry = attribution[wid]
            injected = entry["delay"]
            absorbed = entry["absorbed"]
            fraction = absorbed / injected if injected > 0 else 0.0
            lines.append(
                f"  W{wid}: {injected:.3f} s injected, "
                f"{absorbed:.3f} s absorbed by other workers' compute "
                f"({fraction:.1%})"
            )

    # -- faults -------------------------------------------------------------
    faults = result.stats.get("faults")
    if faults is not None:
        lines.append("")
        lines.append("-- Faults and degradation --")
        for record in faults["failures"]:
            lines.append(
                f"  W{record['wid']} crashed at "
                f"{record['crash_time']:.3f} s: detected in "
                f"{record['detection_seconds']:.3f} s, "
                f"{record['lost_compute_seconds']:.3f} s of compute "
                f"lost ({record['reclaimed']} reclaimed, "
                f"{record['reminted']} re-minted, "
                f"{record['invalidated']} invalidated tokens)"
            )
        if not faults["failures"]:
            lines.append("  (no worker failures)")
        if faults["joined"]:
            joined = ", ".join(f"W{wid}" for wid in faults["joined"])
            lines.append(f"  joined mid-run: {joined}")
        if faults["left"]:
            left = ", ".join(f"W{wid}" for wid in faults["left"])
            lines.append(f"  left gracefully: {left}")
        detection = sum(faults["recovery_detection_seconds"])
        lost = faults["lost_compute_seconds"]
        share = lost / total if total > 0 else 0.0
        lines.append(
            f"  totals: {detection:.3f} s detection latency, "
            f"{lost:.3f} s compute lost = {share:.1%} of the run"
        )

    # -- token server -------------------------------------------------------
    requests = _by_name(events, EV_TS_REQUEST)
    lines.append("")
    lines.append("-- Token server --")
    if registry is not None:
        latency = registry.histogram("ts.request_latency")
        lines.append(
            f"  {int(registry.counter('ts.requests').value)} requests, "
            f"{int(registry.counter('ts.conflicts').value)} conflicts"
        )
        lines.append(
            f"  request latency mean {latency.mean * 1e3:.3f} ms, "
            f"p95 {latency.percentile(0.95) * 1e3:.3f} ms, "
            f"max {latency.maximum * 1e3:.3f} ms"
        )
    elif requests:
        durations = sorted(event.duration for event in requests)
        mean = sum(durations) / len(durations)
        p95 = durations[min(len(durations) - 1, int(0.95 * len(durations)))]
        conflicts = sum(
            1 for event in requests if event.args.get("conflict")
        )
        lines.append(
            f"  {len(requests)} requests, {conflicts} conflicts"
        )
        lines.append(
            f"  request latency mean {mean * 1e3:.3f} ms, "
            f"p95 {p95 * 1e3:.3f} ms, max {durations[-1] * 1e3:.3f} ms"
        )
    else:
        lines.append("(no TS request spans in trace)")

    # -- synchronization ----------------------------------------------------
    lines.append("")
    lines.append("-- Synchronization --")
    syncs = _by_name(events, EV_ALLREDUCE)
    if not syncs:
        lines.append("(no gradient synchronizations in trace)")
    else:
        per_level: dict[_t.Any, dict[str, float]] = {}
        for span in syncs:
            level = span.args.get("level", "?")
            entry = per_level.setdefault(
                level, {"count": 0, "seconds": 0.0, "bytes": 0.0}
            )
            entry["count"] += 1
            entry["seconds"] += span.duration
            entry["bytes"] += span.args.get("wire_bytes", 0.0)
        for level in sorted(per_level, key=repr):
            entry = per_level[level]
            lines.append(
                f"  level {level}: {int(entry['count'])} syncs, "
                f"{entry['seconds']:.3f} s on the wire, "
                f"{entry['bytes'] / 1e6:.2f} MB moved"
            )
    return "\n".join(lines)
