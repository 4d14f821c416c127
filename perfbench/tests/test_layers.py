"""The traced pass against the real program, on small inputs."""

import layers
from digests import run_digest
from spans import SpanRecorder

from repro.cluster import ClusterSimulator, TraceSpec, generate_trace
from repro.core import FelaConfig, FelaRuntime
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.models import get_model
from repro.net import Fabric
from repro.partition import paper_partition
from repro.sim import Environment


def fela_run():
    config = FelaConfig(
        partition=paper_partition(get_model("vgg19")),
        total_batch=128, num_workers=4, weights=(1, 2, 8),
        conditional_subset_size=2, iterations=2,
    )
    faults = FaultController(parse_faults("crash:1@2.0"))
    return run_digest(
        FelaRuntime(config, Cluster(ClusterSpec(num_nodes=4)),
                    faults=faults).run()
    )


def cluster_run():
    trace = generate_trace(TraceSpec(kind="bursty", num_jobs=4, seed=1))
    return ClusterSimulator(trace, "elastic", pool_size=8).run().jobs


def traced(*tasks):
    recorder = SpanRecorder()
    hooks = layers.install(recorder)
    try:
        outputs = []
        for index, run in enumerate(tasks):
            with recorder.op(index):
                outputs.append(run())
    finally:
        hooks.undo()
    return hooks, outputs


def test_tracing_does_not_change_simulated_outputs():
    expected = [fela_run(), cluster_run()]
    _hooks, outputs = traced(fela_run, cluster_run)
    assert outputs == expected


def test_layer_self_times_sum_exactly_to_the_traced_total():
    hooks, _outputs = traced(fela_run, cluster_run)
    metrics, self_ns = layers.layer_metrics(hooks, untraced_ns=0)
    total = self_ns.pop("bench.traced_total_ns")
    assert sum(self_ns.values()) == total
    assert metrics["core.process_self_s"][0] > 0
    assert metrics["cluster.run_self_s"][0] > 0
    assert metrics["faults.crashes"][0] >= 1
    assert metrics["sim.events"][0] > 0
    assert metrics["baselines.runs"][0] == 0


def test_undo_restores_the_program():
    originals = (Environment.run, Fabric.transfer, ClusterSimulator.run)
    traced(fela_run)
    assert (Environment.run, Fabric.transfer, ClusterSimulator.run) == (
        originals
    )
