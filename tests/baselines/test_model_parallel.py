"""Unit/integration tests for the model-parallel pipeline baseline."""

import pytest

from repro.baselines import ModelParallel, balance_stages, default_micro_batch
from repro.errors import ConfigurationError
from repro.hardware import ClusterSpec
from repro.stragglers import ProbabilityStraggler, RoundRobinStraggler


class TestStageBalancing:
    def test_stages_cover_model_contiguously(self, vgg19):
        stages = balance_stages(vgg19, 8)
        assert len(stages) == 8
        indices = [p.index for stage in stages for p in stage]
        assert indices == list(range(len(vgg19)))

    def test_stage_costs_roughly_balanced_by_time(self, vgg19):
        from repro.hardware import GpuSpec

        gpu = GpuSpec()
        cost = lambda p: gpu.layer_train_time(p, 4)  # noqa: E731
        stages = balance_stages(vgg19, 8, cost=cost)
        costs = [sum(cost(p) for p in stage) for stage in stages]
        # Greedy contiguous split: imbalance exists ("model partition can
        # hardly be balanced") but stays within an order of magnitude.
        assert max(costs) / min(costs) < 10

    def test_every_stage_nonempty(self, googlenet):
        for n in (2, 4, 8):
            stages = balance_stages(googlenet, n)
            assert all(stage for stage in stages)

    def test_too_many_stages_rejected(self, googlenet):
        with pytest.raises(ConfigurationError):
            balance_stages(googlenet, 1000)


class TestMicroBatching:
    def test_default_follows_gpipe_chunking(self):
        assert default_micro_batch(1024, 8) == 32
        assert default_micro_batch(64, 8) == 4  # floored at the minimum

    def test_micro_batch_listing(self, vgg19):
        mp = ModelParallel(vgg19, 100, 8, iterations=1, micro_batch=16)
        sizes = mp.micro_batches()
        assert sum(sizes) == 100
        assert sizes[:-1] == [16] * 6
        assert sizes[-1] == 4

    def test_invalid_micro_batch(self, vgg19):
        with pytest.raises(ConfigurationError):
            ModelParallel(vgg19, 128, 8, iterations=1, micro_batch=0)


class TestExecution:
    def test_run_produces_result(self, vgg19):
        result = ModelParallel(vgg19, 128, 8, iterations=2).run()
        assert result.runtime_name == "mp"
        assert result.average_throughput > 0

    def test_no_parameter_synchronization(self, vgg19):
        """MP workers own disjoint layers: network traffic is only
        boundary activations, far below DP's full-model sync."""
        from repro.baselines import DataParallel

        mp = ModelParallel(vgg19, 128, 8, iterations=2).run()
        dp = DataParallel(vgg19, 128, 8, iterations=2).run()
        assert mp.stats["network_bytes"] < dp.stats["network_bytes"]

    def test_bubble_makes_mp_slow(self, vgg19):
        """The paper's central MP criticism: most workers idle."""
        mp = ModelParallel(vgg19, 256, 8, iterations=2).run()
        busy = mp.stats["compute_seconds_by_worker"]
        # Aggregate GPU utilization is far below what 8 busy workers
        # would produce.
        assert sum(busy) < 0.75 * 8 * mp.total_time

    def test_straggler_on_idle_stage_partially_absorbed(self, vgg19):
        """Paper V-C2: MP's idle time overlaps the injected sleep, so the
        per-iteration delay is below the injected d."""
        d = 6.0
        base = ModelParallel(vgg19, 128, 8, iterations=3).run()
        slow = ModelParallel(
            vgg19, 128, 8, iterations=3, straggler=RoundRobinStraggler(d)
        ).run()
        pid = (slow.total_time - base.total_time) / 3
        assert pid < d

    def test_deterministic(self, vgg19):
        a = ModelParallel(vgg19, 128, 8, iterations=2).run()
        b = ModelParallel(vgg19, 128, 8, iterations=2).run()
        assert a.total_time == b.total_time


class TestRemainderMicroBatch:
    """130 samples on 8 stages: 32 micro-batches of 4 plus one of 2
    (9 of 16 plus one of 2 with an explicit micro-batch).

    The expected reprs were produced before the stage timings were
    precomputed and before the pipeline handed micro-batches over
    directly; the simulation must replay them bit for bit.
    """

    #: case -> (ModelParallel kwargs, micro-batch sizes, expected
    #: ``(total_time, iteration ends, network_bytes,
    #: compute_seconds_by_worker)`` reprs).
    CASES = {
        "plain": (
            {},
            [4] * 32 + [2],
            (
                "48.588942152727455",
                ("16.1963140509091", "32.39262810181816", "48.588942152727455"),
                "9418506239.999626",
                (
                    "35.46180000000002", "35.837999999999944",
                    "35.837999999999944", "35.83799999999995",
                    "35.758800000000015", "11.998800000000056",
                    "11.919599999999976", "11.919599999999976",
                ),
            ),
        ),
        "round_robin": (
            {"straggler": RoundRobinStraggler(2.0)},
            [4] * 32 + [2],
            (
                "52.76138543272742",
                ("18.196314050909095", "35.69348208048491", "52.76138543272742"),
                "9418506239.999603",
                (
                    "35.46180000000002", "35.837999999999944",
                    "35.837999999999944", "35.83799999999995",
                    "35.758800000000015", "11.998800000000056",
                    "11.919599999999976", "11.919599999999976",
                ),
            ),
        ),
        "probability": (
            {"straggler": ProbabilityStraggler(0.3, 2.0, seed=7)},
            [4] * 32 + [2],
            (
                "52.76138543272752",
                ("17.06790335224242", "35.26421740315152", "52.76138543272752"),
                "9418506239.999582",
                (
                    "35.46180000000002", "35.837999999999944",
                    "35.837999999999944", "35.83799999999995",
                    "35.758800000000015", "11.998800000000056",
                    "11.919599999999976", "11.919599999999976",
                ),
            ),
        ),
        "heterogeneous": (
            {
                "cluster_spec": ClusterSpec(
                    gpu_speed_factors=(1.0, 0.5, 1.0, 1.25, 1.0, 0.8, 1.0, 1.0)
                )
            },
            [4] * 32 + [2],
            (
                "82.67465639563692",
                ("27.55821879854547", "55.116437597090936", "82.67465639563692"),
                "9418506239.999289",
                (
                    "35.46180000000002", "71.67599999999989",
                    "35.837999999999944", "28.67039999999999",
                    "35.758800000000015", "14.998500000000016",
                    "11.919599999999976", "11.919599999999976",
                ),
            ),
        ),
        "micro_batch_16": (
            {"micro_batch": 16},
            [16] * 8 + [2],
            (
                "23.21652472084951",
                ("7.738841573616481", "15.477683147232963", "23.21652472084951"),
                "9418506239.999937",
                (
                    "9.751298406911992", "9.774000000000001",
                    "9.774000000000001", "9.774000000000003",
                    "9.752399999999998", "3.2723999999999998",
                    "3.2508000000000012", "3.2508000000000012",
                ),
            ),
        ),
    }

    def _run(self, vgg19, monkeypatch, kwargs):
        from repro.hardware import Cluster, GpuSpec

        calls = []
        for name in ("forward_time", "backward_time"):
            original = getattr(GpuSpec, name)

            def spy(self, profiles, batch, _name=name, _original=original):
                calls.append((_name, profiles[0].index, batch))
                return _original(self, profiles, batch)

            monkeypatch.setattr(GpuSpec, name, spy)
        kwargs = dict(kwargs)
        spec = kwargs.pop("cluster_spec", None)
        if spec is not None:
            kwargs["cluster"] = Cluster(spec)
        mp = ModelParallel(vgg19, 130, 8, iterations=3, **kwargs)
        return mp, mp.run(), calls

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_gpu_call_per_stage_and_size(self, vgg19, monkeypatch, case):
        kwargs, sizes, (total, ends, sent, busy) = self.CASES[case]
        mp, result, calls = self._run(vgg19, monkeypatch, kwargs)
        assert mp.micro_batches() == sizes
        expected = sorted(
            (name, stage[0].index, batch)
            for name in ("forward_time", "backward_time")
            for stage in mp.stages
            for batch in set(sizes)
        )
        assert sorted(calls) == expected
        assert repr(result.total_time) == total
        starts = ("0.0",) + ends[:-1]
        records = result.records
        assert [r.iteration for r in records] == [0, 1, 2]
        assert tuple(repr(r.start) for r in records) == starts
        assert tuple(repr(r.end) for r in records) == ends
        assert all(r.work_by_worker == (len(sizes),) * 8 for r in records)
        assert repr(result.stats["network_bytes"]) == sent
        assert (
            tuple(map(repr, result.stats["compute_seconds_by_worker"])) == busy
        )
