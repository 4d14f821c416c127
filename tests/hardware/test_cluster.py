"""Unit tests for nodes and clusters."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import Cluster, ClusterSpec
from repro.sim import Interrupt


def logged_compute(cluster, events, name, seconds):
    """Process: one compute on node 0, logging how and when it ended."""
    try:
        yield from cluster[0].compute(seconds)
    except Interrupt:
        events.append((name, "interrupted", cluster.env.now))
        return
    events.append((name, "done", cluster.env.now))


def interrupt_at(env, process, at):
    yield env.timeout(at)
    process.interrupt()


class TestClusterSpec:
    def test_defaults_match_paper_testbed(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 8
        assert spec.link_bandwidth == pytest.approx(1.25e9)  # 10 Gbps
        assert spec.gpu.memory_bytes == pytest.approx(12e9)  # K40c

    def test_effective_bandwidth(self):
        spec = ClusterSpec(link_bandwidth=1000.0, network_efficiency=0.5)
        assert spec.effective_bandwidth == 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(link_bandwidth=-1)
        with pytest.raises(ConfigurationError):
            ClusterSpec(network_efficiency=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(network_efficiency=1.5)


class TestNode:
    def test_compute_occupies_gpu_exclusively(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        env = cluster.env
        finish = []

        def job(node, seconds):
            yield from node.compute(seconds)
            finish.append(env.now)

        env.process(job(cluster[0], 2))
        env.process(job(cluster[0], 3))  # same GPU: serialized
        env.process(job(cluster[1], 1))  # different GPU: parallel
        env.run()
        assert sorted(finish) == [1, 2, 5]

    def test_queued_computes_finish_in_fifo_order(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        events = []
        for name, seconds in (("a", 3), ("b", 1), ("c", 2)):
            cluster.env.process(logged_compute(cluster, events, name, seconds))
        cluster.env.run()
        assert events == [("a", "done", 3), ("b", "done", 4), ("c", "done", 6)]
        assert cluster[0].busy_time == 6

    def test_interrupted_waiter_leaves_queue(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        env = cluster.env
        events = []
        env.process(logged_compute(cluster, events, "holder", 4))
        dropped = env.process(logged_compute(cluster, events, "dropped", 10))
        env.process(logged_compute(cluster, events, "next", 2))
        env.process(interrupt_at(env, dropped, 1))
        env.run()
        assert events == [
            ("dropped", "interrupted", 1),
            ("holder", "done", 4),
            ("next", "done", 6),
        ]
        assert cluster[0].busy_time == 6

    def test_interrupt_as_turn_arrives_passes_gpu_on(
        self, small_cluster_spec
    ):
        """Interrupted after the GPU was handed over but before resuming:
        the turn goes to the next waiter instead of being lost."""
        cluster = Cluster(small_cluster_spec)
        env = cluster.env
        events = []
        env.process(logged_compute(cluster, events, "holder", 2))
        handed = env.process(logged_compute(cluster, events, "handed", 10))
        # The interrupt timer is queued after the holder's kernel timer,
        # so at t=2 it fires after the hand-over but before the waiter
        # resumes.
        env.process(interrupt_at(env, handed, 2))
        env.process(logged_compute(cluster, events, "next", 3))
        env.run()
        assert events == [
            ("holder", "done", 2),
            ("handed", "interrupted", 2),
            ("next", "done", 5),
        ]
        assert cluster[0].busy_time == 5

    def test_interrupt_mid_kernel_hands_gpu_on(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        env = cluster.env
        events = []
        victim = env.process(logged_compute(cluster, events, "crashed", 5))
        env.process(logged_compute(cluster, events, "waiter", 3))
        env.process(interrupt_at(env, victim, 2))
        env.run()
        assert events == [("crashed", "interrupted", 2), ("waiter", "done", 5)]
        # 2 s of the interrupted kernel plus the waiter's 3 s.
        assert cluster[0].busy_time == 5

    def test_nan_compute_rejected(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        with pytest.raises(ConfigurationError, match="nan"):
            next(cluster[0].compute(float("nan")))
        assert cluster[0].busy_time == 0

    def test_busy_time_accounting(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)

        def job(node):
            yield from node.compute(4)

        cluster.env.process(job(cluster[2]))
        cluster.env.run()
        assert cluster[2].busy_time == 4
        assert cluster[0].busy_time == 0

    def test_injected_delay_prolongs_next_compute(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        cluster[0].add_delay(5)

        def job(node):
            yield from node.compute(1)

        cluster.env.process(job(cluster[0]))
        cluster.env.run()
        assert cluster.env.now == 6
        # Consumed: a second compute is unaffected.
        assert cluster[0].take_pending_delay() == 0

    def test_negative_delay_rejected(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        with pytest.raises(ConfigurationError):
            cluster[0].add_delay(-1)

    def test_send_uses_fabric(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        done = []

        def proc(env):
            yield cluster[0].send(1, small_cluster_spec.link_bandwidth)
            done.append(env.now)

        cluster.env.process(proc(cluster.env))
        cluster.env.run()
        assert done[0] == pytest.approx(1.0)


class TestCluster:
    def test_iteration_and_indexing(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        assert len(cluster) == 4
        assert [n.node_id for n in cluster] == [0, 1, 2, 3]
        assert cluster[3].node_id == 3

    def test_utilization(self, small_cluster_spec):
        cluster = Cluster(small_cluster_spec)
        assert cluster.utilization() == [0.0] * 4

        def job(node):
            yield from node.compute(1)

        def idle(env):
            yield env.timeout(2)

        cluster.env.process(job(cluster[0]))
        cluster.env.process(idle(cluster.env))
        cluster.env.run()
        util = cluster.utilization()
        assert util[0] == pytest.approx(0.5)
        assert util[1] == 0.0
