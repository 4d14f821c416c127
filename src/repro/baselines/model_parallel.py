"""The model-parallel (MP) pipeline baseline (PipeDream/GPipe-style).

The model is split into ``N`` contiguous stages balanced by training
FLOPs, one stage per worker.  Each iteration is a synchronous (BSP) flush:
all micro-batches flow forward through the pipeline, then backward in
reverse; weights update locally at the end of the flush — no cross-worker
parameter synchronization at all (each worker owns distinct layers).

The two pathologies the paper attributes to MP are both structural here:

* **bubbles / bad work conservation** — during fill and drain, most of the
  ``N`` stages are idle; with 8 workers, the majority of GPU time is idle
  time ("the majority of workers remain idle during one iteration");
* **under-saturation** — micro-batches are "small and fixed" (paper
  Section V-C1, citing GPipe), far below the per-layer threshold batch
  sizes, so every stage pays the kernel saturation floor.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.baselines.base import BaselineRuntime
from repro.errors import ConfigurationError
from repro.hardware import Cluster
from repro.models import LayerProfile, ModelGraph
from repro.sim import Environment, Event
from repro.stragglers import StragglerInjector

#: The paper's MP baseline uses "small and fixed micro-batches" (citing
#: GPipe).  GPipe's guidance is ~4 micro-batches per stage, i.e. 32 chunks
#: on an 8-way pipeline; the micro-batch is the total batch over that
#: chunk count, floored at this minimum size.
DEFAULT_MICRO_BATCH: int = 4

#: GPipe's recommended chunks-per-stage factor.
CHUNKS_PER_STAGE: int = 4


def default_micro_batch(total_batch: int, num_stages: int) -> int:
    """The fixed micro-batch size the MP baseline uses by default."""
    chunks = max(1, num_stages * CHUNKS_PER_STAGE)
    return max(DEFAULT_MICRO_BATCH, total_batch // chunks)


def balance_stages(
    model: ModelGraph,
    num_stages: int,
    cost: _t.Callable[[LayerProfile], float] | None = None,
) -> list[list[LayerProfile]]:
    """Split layers into contiguous stages of near-equal ``cost``.

    Greedy cut: walk the layers accumulating cost and close a stage once
    it reaches the ideal share (total / num_stages), keeping at least one
    layer per stage and leaving enough layers for the remaining stages.
    The default cost is training FLOPs; the MP runtime balances by
    simulated per-layer *time* at its micro-batch instead, because
    saturation floors make small layers far more expensive than their
    FLOPs suggest.  The paper notes "model partition can hardly be
    balanced" — the residual imbalance of the greedy scheme is part of
    what the evaluation measures.
    """
    layers = model.layers
    if num_stages < 1:
        raise ConfigurationError(f"need >= 1 stage: {num_stages}")
    if num_stages > len(layers):
        raise ConfigurationError(
            f"{num_stages} stages exceed the {len(layers)} layers of "
            f"{model.name!r}"
        )
    if cost is None:
        cost = lambda profile: profile.train_flops  # noqa: E731
    total = sum(cost(p) for p in layers)
    ideal = total / num_stages
    stages: list[list[LayerProfile]] = []
    current: list[LayerProfile] = []
    acc = 0.0
    remaining = num_stages
    for index, profile in enumerate(layers):
        current.append(profile)
        acc += cost(profile)
        layers_left = len(layers) - index - 1
        stages_left = remaining - 1
        must_close = layers_left == stages_left
        may_close = acc >= ideal and stages_left > 0
        if stages_left > 0 and (must_close or may_close):
            stages.append(current)
            current = []
            acc = 0.0
            remaining -= 1
    if current:
        stages.append(current)
    return stages


class _Mailbox:
    """A stage's inbound FIFO of ``(micro, batch)`` items.

    Each box has exactly one consumer.  It takes an available item
    without yielding; on an empty box it parks ``waiter`` and yields it,
    and the producer's :meth:`put` succeeds that event.  No event is
    scheduled for a hand-off the consumer does not wait for.
    """

    __slots__ = ("items", "waiter")

    def __init__(self) -> None:
        self.items: deque[tuple[int, int]] = deque()
        self.waiter: Event | None = None

    def put(self, item: tuple[int, int]) -> None:
        self.items.append(item)
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            waiter.succeed()

    def wait(self, env: Environment) -> Event:
        """Park the consumer on an empty box; yield the returned event."""
        self.waiter = Event(env)
        return self.waiter


class ModelParallel(BaselineRuntime):
    """BSP pipeline model parallelism with fixed micro-batches."""

    name = "mp"

    def __init__(
        self,
        model: ModelGraph,
        total_batch: int,
        num_workers: int,
        iterations: int = 100,
        cluster: Cluster | None = None,
        straggler: StragglerInjector | None = None,
        micro_batch: int | None = None,
    ) -> None:
        if micro_batch is None:
            micro_batch = default_micro_batch(total_batch, num_workers)
        if micro_batch < 1:
            raise ConfigurationError(f"micro batch must be >= 1: {micro_batch}")
        self.micro_batch = micro_batch
        super().__init__(
            model, total_batch, num_workers, iterations, cluster, straggler
        )
        gpu = self.cluster.spec.gpu
        self.stages = balance_stages(
            model,
            num_workers,
            cost=lambda p: gpu.layer_train_time(p, self.micro_batch),
        )
        #: Micro-batch size -> per stage ``(forward s, backward s, bytes
        #: sent downstream)``.  There are at most two sizes (the full one
        #: and a remainder), so every pipeline step is a lookup instead of
        #: a sum over the stage's layers.
        self._stage_costs: dict[int, list[tuple[float, float, float]]] = {
            batch: [
                (
                    gpu.forward_time(layers, batch),
                    gpu.backward_time(layers, batch),
                    batch * layers[-1].activation_bytes,
                )
                for layers in self.stages
            ]
            for batch in dict.fromkeys(self.micro_batches())
        }

    def micro_batches(self) -> list[int]:
        """Sizes of the iteration's micro-batches (last may be smaller)."""
        full, remainder = divmod(self.total_batch, self.micro_batch)
        sizes = [self.micro_batch] * full
        if remainder:
            sizes.append(remainder)
        return sizes

    def _iteration(self, iteration: int, delays: _t.Sequence[float]):
        env = self.cluster.env
        fabric = self.cluster.fabric
        costs = self._stage_costs
        sizes = self.micro_batches()
        num = self.num_workers
        # Per-stage inbound mailboxes of (micro_index, batch) items.
        fwd_in = [_Mailbox() for _ in range(num)]
        bwd_in = [_Mailbox() for _ in range(num)]

        def stage_proc(stage: int):
            if delays[stage] > 0:
                yield env.timeout(delays[stage])
            node = self.cluster[stage]
            inbox = fwd_in[stage]
            # Forward phase: process micro-batches in arrival order.
            for micro, batch in enumerate(sizes):
                if stage > 0:
                    if not inbox.items:
                        yield inbox.wait(env)
                    inbox.items.popleft()
                forward, _, sent = costs[batch][stage]
                yield from node.compute(forward)
                if stage < num - 1:
                    yield fabric.transfer(stage, stage + 1, sent)
                    fwd_in[stage + 1].put((micro, batch))
                else:
                    # The last stage turns straight around into backward.
                    bwd_in[stage].put((micro, batch))
            # Backward phase: drain in re-arrival order (GPipe flush).
            inbox = bwd_in[stage]
            for _ in sizes:
                if not inbox.items:
                    yield inbox.wait(env)
                micro, batch = inbox.items.popleft()
                yield from node.compute(costs[batch][stage][1])
                if stage > 0:
                    # Gradient w.r.t. the stage input, same size as the
                    # upstream boundary activation.
                    yield fabric.transfer(
                        stage, stage - 1, costs[batch][stage - 1][2]
                    )
                    bwd_in[stage - 1].put((micro, batch))

        procs = [env.process(stage_proc(s)) for s in range(num)]
        yield env.all_of(procs)
        return [len(sizes)] * num
