"""Where the traced pass puts its spans, and the per-layer metrics.

Each hook wraps one call into a layer of ``repro``; :func:`install` puts
them in for the traced pass only and :meth:`Hooks.undo` takes them out,
so the untraced runs execute the program unmodified.  Counts come from
the program's public results and stats (``FabricStats``,
``Environment.scheduled_events``, ``RunResult.stats``, ``ClusterResult``,
``TuningResult``), gathered by hooks that only keep what a call returns.

Process generators (workers, the token server's request handling, the
fault controller, the cluster director) run inside the simulation
kernel's stepping; a span can only wrap a plain call, so their host time
counts as ``repro.sim`` self time.
"""

from __future__ import annotations

import inspect
import typing as _t

import spans as _spans

from repro.analysis import GradientLedger, InvariantChecker
from repro.baselines import BaselineRuntime
from repro.cluster import (
    ClusterSimulator,
    FairShareScheduler,
    FifoScheduler,
    ThroughputElasticScheduler,
)
from repro.core import FelaRuntime, TokenDistributor, TokenGenerator
from repro.hardware import GpuSpec
from repro.metrics import TimelineRecorder
from repro.net import Fabric
from repro.obs import Sampler, Tracer
from repro.partition import bin_partition, paper_partition
from repro.sim import Environment, Process
from repro.tuning import ConfigurationTuner

#: Span name -> the per-layer self-time metric it adds to.
SELF_TIME = {
    "sim.run": "sim.run_self_s",
    "net.transfer": "net.transfer_self_s",
    "net.complete": "net.transfer_self_s",
    "core.select": "core.select_self_s",
    "core.generator": "core.generator_self_s",
    "hardware.gpu": "hardware.gpu_self_s",
    "core.process": "core.process_self_s",
    "baselines.run": "baselines.run_self_s",
    "baselines.process": "baselines.run_self_s",
    "tuning.tune": "tuning.self_s",
    "partition.build": "partition.self_s",
    "cluster.run": "cluster.run_self_s",
    "cluster.process": "cluster.run_self_s",
    "cluster.plan": "cluster.plan_self_s",
    "faults.process": "faults.self_s",
    "obs.tracer": "obs.self_s",
    "obs.sampler": "obs.self_s",
    "obs.timeline": "obs.self_s",
    "invariants": "invariants.self_s",
    _spans.ROOT: "bench.unattributed_s",
}

#: Package of a simulation process's code -> its span name.
PROCESS_SPANS = {
    "repro.core": "core.process",
    "repro.baselines": "baselines.process",
    "repro.cluster": "cluster.process",
    "repro.faults": "faults.process",
}

_GENERATOR_METHODS = (
    "start_iteration", "on_completion", "uncomplete",
    "invalidate_consumer", "forget_iteration",
)
#: The GPU model's entry points (helpers it only calls itself are left
#: out: each wrapper call costs host time even when it records nothing).
_GPU_METHODS = (
    "layer_train_time", "train_time", "forward_time", "backward_time",
    "layer_throughput", "memory_required", "fits", "max_batch",
    "require_fits",
)


def _public_methods(owner: type) -> list[str]:
    return [
        name for name, value in vars(owner).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Hooks:
    """The installed wrappers plus everything they gathered."""

    def __init__(self, recorder: _spans.SpanRecorder) -> None:
        self.recorder = recorder
        self.patch = _spans.Patch()
        self.events = 0
        self.sim_seconds = 0.0
        self.fabrics: list[_t.Any] = []
        self.tracers: list[Tracer] = []
        self.runs: list[_t.Any] = []
        self.clusters: list[_t.Any] = []
        self.tunings: list[_t.Any] = []

    def undo(self) -> None:
        self.patch.undo()

    # -- wrapper factories ----------------------------------------------

    def span(self, name: str):
        return lambda original: self.recorder.wrap(name, original)

    def keep(self, into: list[_t.Any], name: str | None = None):
        """Keep each call's return value; optionally span the call."""

        def make(original):
            def kept(*args, **kwargs):
                value = original(*args, **kwargs)
                into.append(value)
                return value

            return kept if name is None else self.recorder.wrap(name, kept)

        return make

    def register(self, into: list[_t.Any], pick=lambda self_: self_):
        """Wrap ``__init__`` to keep (part of) each new instance."""

        def make(original):
            def init(self_, *args, **kwargs):
                original(self_, *args, **kwargs)
                into.append(pick(self_))

            return init

        return make

    def counted_run(self, original):
        def run(env, *args, **kwargs):
            events, now = env.scheduled_events, env.now
            try:
                return original(env, *args, **kwargs)
            finally:
                self.events += env.scheduled_events - events
                self.sim_seconds += env.now - now

        return self.recorder.wrap("sim.run", run)

    def processes(self, original):
        """Span each step of a new process by the package its code is in;
        a process of any other package stays kernel time."""
        recorder = self.recorder

        def init(process, env, generator, *args, **kwargs):
            frame = getattr(generator, "gi_frame", None)
            module = "" if frame is None else frame.f_globals.get("__name__", "")
            name = PROCESS_SPANS.get(".".join(module.split(".")[:2]))
            if name is not None:
                generator = recorder.wrap_steps(name, generator)
            original(process, env, generator, *args, **kwargs)

        return init

    def monitored(self, original):
        recorder = self.recorder

        def attach_monitor(env, monitor, *args, **kwargs):
            owner = getattr(monitor, "__self__", None)
            if isinstance(owner, Sampler):
                monitor = recorder.wrap("obs.sampler", monitor)
            elif isinstance(owner, InvariantChecker):
                monitor = recorder.wrap("invariants", monitor)
            return original(env, monitor, *args, **kwargs)

        return attach_monitor


def install(recorder: _spans.SpanRecorder) -> Hooks:
    """Wrap every layer boundary; returns the hooks (call ``undo``)."""
    hooks = Hooks(recorder)
    method = hooks.patch.method
    span = hooks.span
    method(Environment, "run", hooks.counted_run)
    # ``Environment.process`` is bound per instance, so hook the class.
    method(Process, "__init__", hooks.processes)
    method(Environment, "attach_monitor", hooks.monitored)
    method(Fabric, "__init__",
           hooks.register(hooks.fabrics, lambda fabric: fabric.stats))
    method(Fabric, "transfer", span("net.transfer"))
    method(Fabric, "transfer_many", span("net.transfer"))
    # The kernel calls this when a flow's completion timer fires: the
    # fabric's second entry point, with its settle + re-waterfill.
    method(Fabric, "_on_wake", span("net.complete"))
    method(TokenDistributor, "select", span("core.select"))
    for name in _GENERATOR_METHODS:
        method(TokenGenerator, name, span("core.generator"))
    for name in _GPU_METHODS:
        method(GpuSpec, name, span("hardware.gpu"))
    method(BaselineRuntime, "run", span("baselines.run"))
    method(ConfigurationTuner, "tune", hooks.keep(hooks.tunings, "tuning.tune"))
    for function in (paper_partition, bin_partition):
        hooks.patch.function(
            function, recorder.wrap("partition.build", function), "repro"
        )
    method(ClusterSimulator, "run", hooks.keep(hooks.clusters, "cluster.run"))
    for scheduler in (
        FifoScheduler, FairShareScheduler, ThroughputElasticScheduler
    ):
        method(scheduler, "plan", span("cluster.plan"))
    method(FelaRuntime, "finalize", hooks.keep(hooks.runs))
    method(Tracer, "__init__", hooks.register(hooks.tracers))
    for name in _public_methods(Tracer):
        method(Tracer, name, span("obs.tracer"))
    for name in ("attach_runtime", "finish"):
        method(Sampler, name, span("obs.sampler"))
    method(TimelineRecorder, "ingest", span("obs.timeline"))
    for name in _public_methods(InvariantChecker):
        method(InvariantChecker, name, span("invariants"))
    for name in _public_methods(GradientLedger):
        method(GradientLedger, name, span("invariants"))
    return hooks


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    hooks: Hooks, untraced_ns: int
) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Per-layer metrics of a traced pass, and the integer-nanosecond
    self times they came from (``bench.traced_total_ns`` is their sum)."""
    recorder = hooks.recorder
    by_span = recorder.self_times()
    unknown = set(by_span) - set(SELF_TIME)
    if unknown:
        raise RuntimeError(f"spans without a self-time metric: {unknown}")
    self_ns = dict.fromkeys(SELF_TIME.values(), 0)
    for name, nanos in by_span.items():
        self_ns[SELF_TIME[name]] += nanos
    total_ns = recorder.root_total()
    if sum(self_ns.values()) != total_ns:
        raise RuntimeError(
            f"self times sum to {sum(self_ns.values())} ns, "
            f"traced total is {total_ns} ns"
        )
    inside = recorder.inclusive_times(("sim.run", "tuning.tune"))
    calls = recorder.counts()
    sim_s = inside["sim.run"] / 1e9

    fabric = {
        field: sum(getattr(stats, field) for stats in hooks.fabrics)
        for field in ("flows_started", "bytes_transferred", "solves_full",
                      "solves_restricted", "reuse_hits")
    }
    requests = sum(run.stats["ts_requests"] for run in hooks.runs)
    conflicts = sum(run.stats["ts_conflicts"] for run in hooks.runs)
    idle = sum(sum(run.stats["idle_seconds_by_worker"]) for run in hooks.runs)
    capacity = sum(
        run.total_time * len(run.stats["idle_seconds_by_worker"])
        for run in hooks.runs
    )
    faults = [run.stats["faults"] for run in hooks.runs
              if "faults" in run.stats]
    jcts = [job["jct"] for result in hooks.clusters for job in result.jobs]

    metrics: dict[str, tuple[float, str]] = {
        name: (nanos / 1e9, "s") for name, nanos in self_ns.items()
    }
    metrics.update({
        "sim.events": (hooks.events, "count"),
        "sim.events_per_wall_s": (_ratio(hooks.events, sim_s), "1/s"),
        "sim.sim_s_per_wall_s": (_ratio(hooks.sim_seconds, sim_s), "sim_s/s"),
        "net.transfer_calls": (calls.get("net.transfer", 0), "count"),
        "net.flows": (fabric["flows_started"], "count"),
        "net.bytes": (fabric["bytes_transferred"], "B"),
        "net.solves_full": (fabric["solves_full"], "count"),
        "net.solves_restricted": (fabric["solves_restricted"], "count"),
        "net.reuse_hits": (fabric["reuse_hits"], "count"),
        "core.select_calls": (calls.get("core.select", 0), "count"),
        "core.ts_requests": (requests, "count"),
        "core.ts_conflicts": (conflicts, "count"),
        "core.conflict_ratio": (_ratio(conflicts, requests), "ratio"),
        "core.idle_share": (_ratio(idle, capacity), "ratio"),
        "hardware.gpu_calls": (calls.get("hardware.gpu", 0), "count"),
        "baselines.runs": (calls.get("baselines.run", 0), "count"),
        "tuning.tune_s": (inside["tuning.tune"] / 1e9, "s"),
        "tuning.cases": (sum(len(t.cases) for t in hooks.tunings), "count"),
        "cluster.plan_calls": (calls.get("cluster.plan", 0), "count"),
        "cluster.resizes": (
            sum(result.total_resizes for result in hooks.clusters), "count"
        ),
        "cluster.jct_mean_s": (_ratio(sum(jcts), len(jcts)), "sim_s"),
        "cluster.pool_utilization": (
            _ratio(sum(r.mean_utilization for r in hooks.clusters),
                   len(hooks.clusters)),
            "ratio",
        ),
        "faults.crashes": (sum(len(f["failures"]) for f in faults), "count"),
        "faults.tokens_reminted": (
            sum(f["tokens_reminted"] for f in faults), "count"
        ),
        "faults.lost_compute_s": (
            sum(f["lost_compute_seconds"] for f in faults), "sim_s"
        ),
        "obs.trace_events": (
            sum(len(tracer.events) for tracer in hooks.tracers), "count"
        ),
        "bench.traced_total_s": (total_ns / 1e9, "s"),
        "bench.trace_overhead_s": ((total_ns - untraced_ns) / 1e9, "s"),
        "bench.spans": (len(recorder), "count"),
    })
    return metrics, {**self_ns, "bench.traced_total_ns": total_ns}
