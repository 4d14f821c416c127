"""Unit/integration tests for the model-parallel pipeline baseline."""

import pytest

from repro.baselines import ModelParallel, balance_stages, default_micro_batch
from repro.errors import ConfigurationError
from repro.stragglers import RoundRobinStraggler


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
    """130 samples on 8 stages: 32 micro-batches of 4 plus one of 2.

    The expected reprs were produced before the stage timings were
    precomputed; a lookup must replay the per-step sums bit for bit.
    """

    PLAIN = (
        "48.588942152727455",
        ("16.1963140509091", "32.39262810181816", "48.588942152727455"),
    )
    STRAGGLED = (
        "52.76138543272742",
        ("18.196314050909095", "35.69348208048491", "52.76138543272742"),
    )

    def _run(self, vgg19, monkeypatch, straggler):
        from repro.hardware import GpuSpec

        calls = []
        for name in ("forward_time", "backward_time"):
            original = getattr(GpuSpec, name)

            def spy(self, profiles, batch, _name=name, _original=original):
                calls.append((_name, profiles[0].index, batch))
                return _original(self, profiles, batch)

            monkeypatch.setattr(GpuSpec, name, spy)
        mp = ModelParallel(vgg19, 130, 8, iterations=3, straggler=straggler)
        assert mp.micro_batches() == [4] * 32 + [2]
        return mp, mp.run(), calls

    @pytest.mark.parametrize("straggled", [False, True])
    def test_one_gpu_call_per_stage_and_size(
        self, vgg19, monkeypatch, straggled
    ):
        straggler = RoundRobinStraggler(2.0) if straggled else None
        mp, result, calls = self._run(vgg19, monkeypatch, straggler)
        expected = sorted(
            (name, stage[0].index, batch)
            for name in ("forward_time", "backward_time")
            for stage in mp.stages
            for batch in (4, 2)
        )
        assert sorted(calls) == expected
        total, ends = self.STRAGGLED if straggled else self.PLAIN
        assert repr(result.total_time) == total
        starts = ("0.0",) + ends[:-1]
        records = result.records
        assert [r.iteration for r in records] == [0, 1, 2]
        assert tuple(repr(r.start) for r in records) == starts
        assert tuple(repr(r.end) for r in records) == ends
        assert all(r.work_by_worker == (33,) * 8 for r in records)
