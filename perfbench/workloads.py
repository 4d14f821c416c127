"""The four benchmark workloads, driven through repro's public API.

Every workload runs in one process with no pool workers: the paper
figures use ``ExperimentRunner(jobs=1)``, i.e. ``SweepExecutor(jobs=1)``,
and everything else calls the runtime directly.  Inputs come from the
``--seed`` stream, drawn from a finite catalogue whose every output is
pinned in ``pins.json`` (see ``pin.py``); a pass is the set of tasks a
workload repeats while it is measured.
"""

from __future__ import annotations

import random
import typing as _t

from digests import digest, job_digest, run_digest
from measure import Task

from repro.analysis import InvariantChecker
from repro.cluster import ClusterSimulator, TraceSpec, generate_trace
from repro.core import FelaConfig, FelaRuntime
from repro.exec import ResultCache
from repro.faults import FaultController, parse_faults
from repro.hardware import Cluster, ClusterSpec
from repro.harness import (
    ExperimentRunner,
    ExperimentSpec,
    generate_artifact,
    get_artifact,
)
from repro.metrics import TimelineRecorder
from repro.obs import MetricsRegistry, Sampler, Tracer
from repro.partition import Partition, SubModel
from repro.stragglers import (
    NoStraggler,
    ProbabilityStraggler,
    RoundRobinStraggler,
)


class Workload:
    """A named input mix: one-off set-up, then an endless pass stream."""

    name: str = ""
    params: dict[str, _t.Any] = {}

    def setup(self) -> None:
        """Build every input a pass needs (untimed by the ops)."""

    def passes(self, seed: int) -> _t.Iterator[list[Task]]:
        raise NotImplementedError

    def catalogue(self) -> list[Task]:
        """Every distinct task any seed can produce (what ``pins.json``
        pins)."""
        raise NotImplementedError


class PaperFigures(Workload):
    """The paper's 11 artifacts, regenerated as ``repro figures`` does,
    from a cold memory-only result cache per pass."""

    name = "paper_figures"
    params = {
        "artifacts": (
            "table1", "fig1", "fig5", "fig6", "fig7",
            "fig8-vgg19", "fig8-googlenet",
            "fig9-vgg19", "fig9-googlenet",
            "fig10-vgg19", "fig10-googlenet",
        ),
        "iterations": 8,
        "jobs": 1,
        "cache": "memory, cold per pass",
    }

    def setup(self) -> None:
        for artifact_id in self.params["artifacts"]:
            get_artifact(artifact_id)

    def _pass(self) -> list[Task]:
        # The artifacts share tunings and runs through one cache, as in a
        # ``repro figures`` invocation; a fresh runner makes it cold.
        runner = ExperimentRunner(cache=ResultCache(), jobs=1)

        def make(artifact_id: str) -> Task:
            def run() -> list[str]:
                return [digest(generate_artifact(
                    artifact_id, runner=runner,
                    iterations=self.params["iterations"],
                ))]

            return Task(artifact_id, 1, run)

        return [make(artifact_id) for artifact_id in self.params["artifacts"]]

    def passes(self, seed: int) -> _t.Iterator[list[Task]]:
        # The artifacts are the paper's fixed configurations (Fig. 10's
        # straggler draws included), so the seed changes nothing here.
        while True:
            yield self._pass()

    def catalogue(self) -> list[Task]:
        return self._pass()


class Scale1000(Workload):
    """Fela at 1000 workers: the fabric and distributor regime."""

    name = "scale_1000w"
    params = {
        "model": "vgg19",
        "partition": "two-level re-cut of the paper partition",
        "workers": 1000,
        "total_batch": 4000,
        "weights": (1, 2),
        "ctd_subset": 128,
        "iterations": 1,
        "collective": "hierarchical",
    }

    def setup(self) -> None:
        # Two levels, not the paper's three: at this worker count three
        # concurrent level syncs bridge the fabric into one ~2000-flow
        # component; two keep the token pipeline and group-local solves.
        full = ExperimentRunner().partition(self.params["model"])
        rest = tuple(
            layer for submodel in list(full)[1:] for layer in submodel.layers
        )
        self.partition = Partition(
            model=full.model,
            submodels=(
                SubModel(index=0, layers=full[0].layers,
                         threshold_batch=full[0].threshold_batch),
                SubModel(index=1, layers=rest,
                         threshold_batch=full[1].threshold_batch),
            ),
        )

    def _task(self) -> Task:
        params = self.params

        def run() -> list[str]:
            config = FelaConfig(
                partition=self.partition,
                total_batch=params["total_batch"],
                num_workers=params["workers"],
                weights=params["weights"],
                conditional_subset_size=params["ctd_subset"],
                iterations=params["iterations"],
                collective=params["collective"],
            )
            cluster = Cluster(ClusterSpec(num_nodes=params["workers"]))
            return [run_digest(FelaRuntime(config, cluster).run())]

        return Task("fela-1000w", 1, run)

    def passes(self, seed: int) -> _t.Iterator[list[Task]]:
        # No random input: the run is one fixed configuration.
        while True:
            yield [self._task()]

    def catalogue(self) -> list[Task]:
        return [self._task()]


class ClusterChurn(Workload):
    """Bursty job streams under the elastic scheduler with job crashes:
    the write side of the token server (joins, drains, remints,
    resizes)."""

    name = "cluster_churn"
    params = {
        "trace": "bursty",
        "jobs_per_trace": 60,
        "trace_seeds": (0, 1, 2, 3, 4, 5),
        "crash_seeds": (0, 1, 2),
        "scheduler": "elastic",
        "pool_gpus": 32,
        "crash_probability": 0.05,
    }

    def setup(self) -> None:
        self.traces = {
            seed: generate_trace(TraceSpec(
                kind=self.params["trace"],
                num_jobs=self.params["jobs_per_trace"],
                seed=seed,
            ))
            for seed in self.params["trace_seeds"]
        }

    def _task(self, trace_seed: int, crash_seed: int) -> Task:
        trace = self.traces[trace_seed]

        def run() -> list[str]:
            result = ClusterSimulator(
                trace,
                self.params["scheduler"],
                pool_size=self.params["pool_gpus"],
                crash_probability=self.params["crash_probability"],
                crash_seed=crash_seed,
            ).run()
            return [job_digest(job) for job in result.jobs]

        return Task(f"trace{trace_seed}-crash{crash_seed}", len(trace), run)

    def catalogue(self) -> list[Task]:
        return [
            self._task(trace_seed, crash_seed)
            for trace_seed in self.params["trace_seeds"]
            for crash_seed in self.params["crash_seeds"]
        ]

    def passes(self, seed: int) -> _t.Iterator[list[Task]]:
        # Each pass plays the whole catalogue in a seeded order, so every
        # pass holds the same known aborts and the rates stay comparable.
        rng = random.Random(seed)
        while True:
            tasks = self.catalogue()
            rng.shuffle(tasks)
            yield tasks


class FelaObserved(Workload):
    """Tuned Fela runs under stragglers and scripted faults with every
    observability attachment on: tracer, invariant checker, metrics
    registry, timeline recorder and sampler."""

    name = "fela_observed"
    params = {
        "models": ("vgg19", "googlenet"),
        "total_batch": 256,
        "workers": 8,
        "iterations": 10,
        "stragglers": ("rr", "prob", "none"),
        "straggler_delay_s": 2.0,
        "straggler_probability": 0.3,
        "straggler_seeds": 16,
        "faults": "crash:2@3.0,leave:5@6.0,join@8.0",
        "sample_interval": 1.0,
    }

    def setup(self) -> None:
        runner = ExperimentRunner(jobs=1)
        self.configs = {
            model: runner.fela_config(ExperimentSpec(
                model_name=model,
                total_batch=self.params["total_batch"],
                num_workers=self.params["workers"],
                iterations=self.params["iterations"],
            ))
            for model in self.params["models"]
        }

    def _task(self, model: str, straggler: str, seed: int = 0) -> Task:
        config = self.configs[model]
        delay = self.params["straggler_delay_s"]

        def run() -> list[str]:
            if straggler == "rr":
                injector = RoundRobinStraggler(delay)
            elif straggler == "prob":
                injector = ProbabilityStraggler(
                    self.params["straggler_probability"], delay, seed=seed
                )
            else:
                injector = NoStraggler()
            faults = FaultController(parse_faults(self.params["faults"]))
            nodes = config.num_workers + faults.injector.planned_joins
            result = FelaRuntime(
                config,
                Cluster(ClusterSpec(num_nodes=nodes)),
                straggler=injector,
                recorder=TimelineRecorder(),
                invariants=InvariantChecker(),
                tracer=Tracer(),
                metrics=MetricsRegistry(),
                faults=faults,
                sampler=Sampler(self.params["sample_interval"]),
            ).run()
            return [run_digest(result)]

        suffix = f"{seed}" if straggler == "prob" else ""
        return Task(f"{model}-{straggler}{suffix}", 1, run)

    def _pass(self, seed: int) -> list[Task]:
        return [
            self._task(model, straggler, seed)
            for model in self.params["models"]
            for straggler in self.params["stragglers"]
        ]

    def catalogue(self) -> list[Task]:
        keyed = {
            task.key: task
            for seed in range(self.params["straggler_seeds"])
            for task in self._pass(seed)
        }
        return list(keyed.values())

    def passes(self, seed: int) -> _t.Iterator[list[Task]]:
        rng = random.Random(seed)
        while True:
            yield self._pass(rng.randrange(self.params["straggler_seeds"]))


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (PaperFigures, Scale1000, ClusterChurn, FelaObserved)
}
