"""Command-line interface: ``python -m repro <command> ...``.

Commands map onto the library's public API:

``list-models``
    Models available in the zoo.
``profile MODEL``
    Per-layer threshold batch sizes (Fig. 5 for any model).
``partition MODEL [--bin-width W]``
    Offline bin-partitioned method output (and the paper's published
    partition when one exists).
``run MODEL --runtime {fela,dp,mp,hp,proactive}``
    One training run; optional straggler injection.  ``--trace-out F``
    additionally writes a Chrome trace (Fela runtime only).
``trace MODEL``
    A traced Fela run: Chrome trace JSON (open in Perfetto or
    ``chrome://tracing``), optional metrics CSV, and a plain-text run
    report with critical-path and straggler-attribution analysis.
``compare MODEL --batches 64,128,...``
    Fig. 8-style comparison across all runtimes.
``tune MODEL --batch B``
    The two-phase configuration tuning (Fig. 6 diagnostics).
    Phase 1 prunes with successive halving by default;
    ``--exhaustive`` restores the full sweep.
``cache {stats,ls,clear}``
    Inspect or empty the persistent result cache.
``analyze [PATHS...]``
    The FELA determinism lint pass (see :mod:`repro.analysis`).
``bench [--compare BASELINE --fail-on-regress PCT] [--profile]``
    The performance lab (see :mod:`repro.perf`): run deterministic
    benchmark scenarios, append them to a regression store, compare
    against a committed baseline, print cProfile hotspot reports, or
    (``--history SCENARIO``) report one scenario's full-store trend.
``dashboard LEDGER [--out FILE]``
    Render a run ledger (see :mod:`repro.store`) as a plain-text or
    self-contained HTML dashboard: per-run utilization heatmaps,
    throughput/buffer curves with fault markers, sweep progress, bench
    trends, and cluster-run Gantt/utilization/JCT sections.
``cluster {run,compare} [--trace-kind K --jobs N --seed S --pool P]``
    The multi-tenant cluster service (see :mod:`repro.cluster`): play a
    seeded arrival trace of training jobs onto a shared GPU pool under
    a FIFO / fair-share / throughput-elastic scheduler (``run``), or
    report JCT/makespan/utilization across several schedulers on the
    same trace (``compare``).  ``--ledger`` lands ``cluster_runs`` and
    ``cluster_jobs`` rows.

Observability flags shared by several commands: ``--sample SECONDS``
attaches the gauge sampler, ``--ledger FILE`` lands runs / sweep
heartbeats / bench records in a run ledger, and ``--progress`` mirrors
sweep heartbeats to stderr without changing stdout.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from repro.errors import ConfigurationError, ReproError
from repro.faults import parse_faults
from repro.harness import (
    ExperimentRunner,
    ExperimentSpec,
    fig8,
    render_table,
)
from repro.models import available_models, get_model
from repro.partition import bin_partition, paper_partition
from repro.profiling import ThroughputProfiler
from repro.stragglers import (
    NoStraggler,
    ProbabilityStraggler,
    RoundRobinStraggler,
    StragglerInjector,
)


def parse_straggler(text: str | None) -> StragglerInjector:
    """Parse ``--straggler`` values: ``none``, ``rr:D``, or ``prob:P:D``.

    >>> parse_straggler("rr:6").delay
    6.0
    """
    if not text or text == "none":
        return NoStraggler()
    parts = text.split(":")
    try:
        if parts[0] == "rr" and len(parts) == 2:
            return RoundRobinStraggler(float(parts[1]))
        if parts[0] == "prob" and len(parts) == 3:
            return ProbabilityStraggler(float(parts[1]), float(parts[2]))
    except ValueError:
        pass
    raise ConfigurationError(
        f"cannot parse straggler spec {text!r}; expected 'none', 'rr:D', "
        "or 'prob:P:D'"
    )


def _open_ledger(args: argparse.Namespace) -> _t.Any:
    """The ``--ledger`` run ledger, or None when the flag is absent."""
    path = getattr(args, "ledger", None)
    if not path:
        return None
    from repro.store import RunLedger

    return RunLedger(path)


def _sweep_executor(args: argparse.Namespace) -> _t.Any:
    """Build the SweepExecutor the ``--jobs``/cache flags describe.

    ``--no-cache`` keeps a memory-only cache (results are still shared
    within the invocation); otherwise the persistent cache lives in
    ``--cache-dir``, ``$REPRO_CACHE_DIR``, or ``~/.cache/fela-repro``.
    A ``--jobs`` value above the host's CPU count is capped with a
    warning on stderr.  ``--ledger`` streams per-job heartbeat rows
    into a run ledger and ``--progress`` mirrors them as stderr lines;
    neither changes a byte of the stdout report.
    """
    from repro.exec import (
        ResultCache,
        SweepExecutor,
        default_cache_dir,
        resolve_jobs,
    )

    jobs, warning = resolve_jobs(getattr(args, "jobs", 1))
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if getattr(args, "no_cache", False):
        directory = None
    else:
        directory = getattr(args, "cache_dir", None) or default_cache_dir()
    return SweepExecutor(
        jobs=jobs,
        cache=ResultCache(directory),
        ledger=_open_ledger(args),
        sweep_label=getattr(args, "command", "sweep") or "sweep",
        progress=getattr(args, "progress", False),
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent simulations out over N processes "
        "(capped at the CPU count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache for this invocation",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/fela-repro)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="stream per-job sweep heartbeats into this run ledger "
        "(SQLite, or JSONL when FILE ends in .jsonl)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-job progress lines to stderr (stdout output "
        "stays byte-identical)",
    )


def parse_batches(text: str) -> list[int]:
    """Parse a comma-separated batch list ("64,128,256")."""
    try:
        batches = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigurationError(
            f"cannot parse batch list {text!r}"
        ) from None
    if not batches:
        raise ConfigurationError("empty batch list")
    return batches


def _cmd_list_models(_args: argparse.Namespace) -> str:
    return "\n".join(available_models())


def _cmd_profile(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    profiler = ThroughputProfiler()
    rows = [
        [profile.name, str(profile.shape_signature), threshold]
        for profile, threshold in profiler.model_thresholds(model)
    ]
    return render_table(
        ["Layer", "Shape", "Threshold batch"],
        rows,
        title=f"Threshold batch sizes for {model.name}",
    )


def _cmd_partition(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    lines = []
    try:
        lines.append("Paper partition:")
        lines.append(paper_partition(model).describe())
    except ReproError:
        lines.append(f"(no published partition for {model.name})")
    lines.append("")
    lines.append(f"Bin-partitioned method (bin width {args.bin_width}):")
    lines.append(bin_partition(model, bin_width=args.bin_width).describe())
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> str:
    from repro.obs import Sampler, Tracer, write_chrome_trace

    runner = ExperimentRunner()
    spec = ExperimentSpec(
        model_name=args.model,
        total_batch=args.batch,
        num_workers=args.workers,
        iterations=args.iterations,
    )
    tracer = Tracer() if args.trace_out else None
    sampler = Sampler(args.sample) if args.sample else None
    faults = None
    injector = parse_faults(args.faults)
    if injector is not None:
        from repro.faults import FaultController

        faults = FaultController(injector)
    invariants = None
    if args.check_invariants:
        from repro.analysis.invariants import InvariantChecker

        invariants = InvariantChecker()
    result = runner.run(
        args.runtime,
        spec,
        parse_straggler(args.straggler),
        tracer=tracer,
        faults=faults,
        invariants=invariants,
        sampler=sampler,
    )
    rows = [
        ["runtime", result.runtime_name],
        ["model", result.model_name],
        ["total batch", result.total_batch],
        ["iterations", result.iterations],
        ["total time (s)", result.total_time],
        ["AT (samples/s)", result.average_throughput],
        ["s/iteration", result.mean_iteration_time],
    ]
    summary = result.stats.get("faults")
    if summary is not None:
        rows += [
            ["workers failed", len(summary["failures"])],
            ["workers joined", len(summary["joined"])],
            ["workers left", len(summary["left"])],
            ["tokens reclaimed", summary["tokens_reclaimed"]],
            ["tokens re-minted", summary["tokens_reminted"]],
            ["lost compute (s)", summary["lost_compute_seconds"]],
        ]
    table = render_table(["Metric", "Value"], rows)
    if sampler is not None:
        table += f"\nsampled {len(sampler.samples)} gauge points"
    if tracer is not None:
        count = write_chrome_trace(
            args.trace_out,
            tracer.events,
            samples=sampler.samples if sampler is not None else (),
        )
        table += f"\nwrote {count} trace events to {args.trace_out}"
    ledger = _open_ledger(args)
    if ledger is not None:
        from repro.store import run_row_from_result

        with ledger:
            run_id = ledger.record_run(
                command="run",
                kind=args.runtime,
                result=result,
                label=args.model,
                config=run_row_from_result(result),
                samples=sampler.samples if sampler is not None else (),
                events=tracer.events if tracer is not None else (),
            )
        table += f"\nrecorded run {run_id} in {args.ledger}"
    return table


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.obs import (
        MetricsRegistry,
        Sampler,
        Tracer,
        render_run_report,
        write_chrome_trace,
        write_metrics_csv,
    )

    runner = ExperimentRunner()
    spec = ExperimentSpec(
        model_name=args.model,
        total_batch=args.batch,
        num_workers=args.workers,
        iterations=args.iterations,
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    sampler = Sampler(args.sample) if args.sample else None
    result = runner.run(
        "fela",
        spec,
        parse_straggler(args.straggler),
        tracer=tracer,
        metrics=metrics,
        sampler=sampler,
    )
    lines = []
    count = write_chrome_trace(
        args.out,
        tracer.events,
        samples=sampler.samples if sampler is not None else (),
    )
    lines.append(f"wrote {count} trace events to {args.out}")
    if args.metrics_csv:
        write_metrics_csv(args.metrics_csv, metrics)
        lines.append(f"wrote metrics CSV to {args.metrics_csv}")
    ledger = _open_ledger(args)
    if ledger is not None:
        from repro.store import run_row_from_result

        with ledger:
            run_id = ledger.record_run(
                command="trace",
                kind="fela",
                result=result,
                label=args.model,
                config=run_row_from_result(result),
                samples=sampler.samples if sampler is not None else (),
                events=tracer.events,
            )
        lines.append(f"recorded run {run_id} in {args.ledger}")
    lines.append("")
    lines.append(render_run_report(result, tracer.events, metrics))
    return "\n".join(lines)


def _cmd_compare(args: argparse.Namespace) -> str:
    runner = ExperimentRunner(executor=_sweep_executor(args))
    result = fig8(
        args.model,
        batches=parse_batches(args.batches),
        iterations=args.iterations,
        runner=runner,
    )
    return result.render()


def _cmd_figures(args: argparse.Namespace) -> str:
    from repro.harness.registry import REGISTRY, generate_artifacts

    if args.list:
        rows = [
            [a.artifact_id, "paper" if a.from_paper else "extension",
             a.title, a.benchmark]
            for a in REGISTRY
        ]
        return render_table(
            ["Id", "Source", "Title", "Benchmark"], rows
        )
    if not args.ids:
        raise ConfigurationError(
            "pass artifact ids (see --list) or --list"
        )
    runner = ExperimentRunner(executor=_sweep_executor(args))
    return "\n\n".join(
        generate_artifacts(
            args.ids, runner=runner, iterations=args.iterations
        )
    )


def _cmd_analyze(args: argparse.Namespace) -> tuple[str, int]:
    from repro.analysis.linter import format_rules, run_lint

    if args.list_rules:
        lines = [format_rules()]
        from repro.analysis.flow.rules import FLOW_RULES

        for rule_id in sorted(FLOW_RULES):
            lines.append(f"{rule_id}  {FLOW_RULES[rule_id]}")
        return "\n".join(lines), 0
    if args.flow:
        from repro.analysis.flow.cli import run_flow
        from repro.exec.cache import ResultCache, default_cache_dir

        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir or default_cache_dir())
        return run_flow(
            args.paths,
            output_format=args.format,
            baseline_path=args.baseline,
            write_baseline_file=args.write_baseline,
            fail_on_new=args.fail_on_new,
            sarif_out=args.sarif_out,
            cache=cache,
        )
    return run_lint(
        args.paths, output_format=args.format, select=args.select
    )


def _cmd_bench(args: argparse.Namespace) -> str | tuple[str, int]:
    import repro.perf as perf

    if args.list:
        rows = [
            [scenario.name, scenario.kind, scenario.description]
            for scenario in perf.scenarios()
        ]
        return render_table(
            ["Scenario", "Kind", "Description"],
            rows,
            title="Registered benchmark scenarios",
        )

    if args.history:
        store = args.compare or args.out or "BENCH_core.json"
        return perf.render_history(
            perf.load_store(store), args.history
        )

    if args.scenarios:
        names = [
            part for part in args.scenarios.split(",") if part
        ]
        for name in names:
            perf.get_scenario(name)  # fail fast on typos
    else:
        kind = None if args.kind == "all" else args.kind
        names = perf.scenario_names(kind)

    ctx = perf.ScenarioContext()

    if args.profile:
        reports = [
            perf.profile_scenario(name, ctx, top=args.top)
            for name in names
        ]
        return "\n\n".join(reports)

    run = perf.run_benchmarks(
        names,
        label=args.label,
        ctx=ctx,
        repeats=args.repeats,
        warmup=args.warmup,
        executor=_sweep_executor(args),
    )
    rows = [
        [
            record.name,
            record.kind,
            f"{record.wall_seconds_median:.4f}",
            f"{record.wall_seconds_iqr:.4f}",
            f"{record.sim_seconds_per_wall_second:.1f}",
            f"{record.events_per_second:.0f}",
            f"{record.peak_rss_kb / 1024.0:.1f}",
        ]
        for record in run.records
    ]
    text = render_table(
        ["Scenario", "Kind", "Wall med (s)", "IQR (s)", "Sim s/s",
         "Events/s", "RSS (MiB)"],
        rows,
        title=f"Benchmark run {run.label!r} "
        f"({args.repeats} repeats, {args.warmup} warmup)",
    )

    # Resolve the baseline before --out appends, so that comparing and
    # appending to the same store measures against the previous run.
    baseline = None
    if args.compare:
        baseline_runs = perf.load_store(args.compare)
        if not baseline_runs:
            raise ConfigurationError(
                f"baseline store {args.compare} holds no runs"
            )
        if args.baseline:
            baseline = perf.run_for_label(baseline_runs, args.baseline)
        else:
            baseline = baseline_runs[-1]
    elif args.baseline:
        raise ConfigurationError(
            "--baseline names a run inside the --compare store; "
            "pass --compare as well"
        )

    if args.out:
        perf.append_run(args.out, run)
        text += f"\nappended run {run.label!r} to {args.out}"

    if args.ledger:
        from repro.store import RunLedger

        with RunLedger(args.ledger) as ledger:
            bench_id = ledger.record_bench_run(run)
        text += f"\nrecorded bench run {bench_id} in {args.ledger}"

    if baseline is not None:
        comparison = perf.compare_runs(
            run, baseline, threshold_pct=args.fail_on_regress
        )
        text += "\n\n" + comparison.render()
        if comparison.regressions:
            return text, 1

    return text


def _cmd_tune(args: argparse.Namespace) -> str:
    from repro.tuning import (
        PHASE1_EXHAUSTIVE,
        PHASE1_HALVING,
        ConfigurationTuner,
    )

    executor = _sweep_executor(args)
    partition = ExperimentRunner(executor=executor).partition(args.model)
    tuner = ConfigurationTuner(
        partition,
        total_batch=args.batch,
        num_workers=args.workers,
        profile_iterations=args.profile_iterations,
        executor=executor,
    )
    strategy = (
        PHASE1_EXHAUSTIVE if args.exhaustive else PHASE1_HALVING
    )
    result = tuner.tune(phase1=strategy)
    rows = [
        [case.index, case.phase, str(case.weights), case.subset_size,
         case.per_iteration_time]
        for case in result.cases
    ]
    table = render_table(
        ["Case", "Phase", "Weights", "Subset", "s/iter"],
        rows,
        title=(
            f"Tuning {args.model} at batch {args.batch} "
            f"({strategy} phase 1)"
        ),
    )
    summary = (
        f"best: weights={result.best_weights} "
        f"subset={result.best_subset_size}; gaps: "
        f"phase1={result.phase1_gap() * 100:.2f}% "
        f"phase2={result.phase2_gap() * 100:.2f}% "
        f"overall={result.overall_gap() * 100:.2f}%"
    )
    diagnostics = (
        f"search: {result.cases_profiled} case measurements, "
        f"{result.warmup_iterations} warm-up iterations, "
        f"{result.cases_pruned} candidates pruned, "
        f"{result.cache_hits} cache hits, "
        f"wall {result.wall_seconds:.2f}s"
    )
    return f"{table}\n{summary}\n{diagnostics}"


def _cmd_dashboard(args: argparse.Namespace) -> str:
    import pathlib

    from repro.store import (
        RunLedger,
        load_dashboard,
        render_html_dashboard,
        render_text_dashboard,
    )

    if not pathlib.Path(args.ledger).exists():
        raise ConfigurationError(f"no run ledger at {args.ledger}")
    with RunLedger(args.ledger) as ledger:
        data = load_dashboard(ledger)
    if args.out:
        pathlib.Path(args.out).write_text(
            render_html_dashboard(data), encoding="utf-8"
        )
        return (
            f"wrote dashboard for {len(data['runs'])} runs, "
            f"{len(data['sweeps'])} sweeps, "
            f"{len(data['bench'])} bench scenarios, "
            f"{len(data['cluster'])} cluster runs to {args.out}"
        )
    return render_text_dashboard(data)


def _cluster_trace_spec(args: argparse.Namespace) -> _t.Any:
    from repro.cluster import DEFAULT_MODELS, TraceSpec

    models = (
        tuple(name.strip() for name in args.models.split(",") if name.strip())
        if args.models
        else DEFAULT_MODELS
    )
    return TraceSpec(
        kind=args.trace_kind,
        num_jobs=args.jobs,
        seed=args.seed,
        mean_interarrival=args.mean_interarrival,
        models=models,
    )


def _cluster_summary_rows(results: _t.Sequence[_t.Any]) -> list[list]:
    rows = []
    for result in results:
        rows.append([
            result.scheduler_display,
            f"{result.makespan:.1f}",
            f"{result.mean_jct:.2f}",
            f"{result.p50_jct:.2f}",
            f"{result.p99_jct:.2f}",
            f"{result.mean_queue_delay:.2f}",
            f"{100 * result.mean_utilization:.1f}%",
            result.total_resizes,
            f"{result.lost_compute_seconds:.2f}",
        ])
    return rows


_CLUSTER_SUMMARY_HEADER = [
    "Scheduler", "Makespan", "Mean JCT", "p50 JCT", "p99 JCT",
    "Mean queue", "Util", "Resizes", "Lost compute",
]


def _cmd_cluster(args: argparse.Namespace) -> str:
    from repro.cluster import ClusterSimulator, generate_trace

    spec = _cluster_trace_spec(args)
    trace = generate_trace(spec)
    trace_desc = (
        f"{spec.kind}/jobs={spec.num_jobs}/seed={spec.seed}"
    )

    def simulate(scheduler: str) -> _t.Any:
        return ClusterSimulator(
            trace,
            scheduler,
            pool_size=args.pool,
            crash_probability=args.crash_probability,
            crash_seed=args.crash_seed,
        ).run()

    schedulers = (
        [args.scheduler]
        if args.cluster_command == "run"
        else [
            name.strip()
            for name in args.schedulers.split(",")
            if name.strip()
        ]
    )
    results = [simulate(name) for name in schedulers]
    lines = []
    ledger = _open_ledger(args)
    if ledger is not None:
        with ledger:
            for result in results:
                run_id = ledger.record_cluster_run(
                    result,
                    label=args.label or trace_desc,
                    trace=trace_desc,
                )
                lines.append(
                    f"recorded cluster run {run_id} "
                    f"({result.scheduler}) in {args.ledger}"
                )
    if getattr(args, "trace_out", None):
        from repro.obs import write_chrome_trace

        count = write_chrome_trace(args.trace_out, results[0].events)
        lines.append(
            f"wrote {count} job lifecycle events to {args.trace_out}"
        )
    title = (
        f"Cluster trace {trace_desc} on {args.pool} GPUs"
        + (
            f", crash p={args.crash_probability}"
            if args.crash_probability
            else ""
        )
    )
    lines.append(render_table(
        _CLUSTER_SUMMARY_HEADER,
        _cluster_summary_rows(results),
        title=title,
    ))
    if args.cluster_command == "run" and args.per_job:
        job_rows = [
            [
                job["job_id"], job["model"], job["iterations"],
                f"{job['submit_time']:.1f}", f"{job['start_time']:.1f}",
                f"{job['finish_time']:.1f}", f"{job['jct']:.2f}",
                f"{job['queue_delay']:.2f}",
                f"{job['initial_workers']}->{job['final_workers']}",
                job["resize_count"],
            ]
            for job in results[0].jobs
        ]
        lines.append(render_table(
            ["Job", "Model", "Iters", "Submit", "Start", "Finish",
             "JCT", "Queue", "Workers", "Resizes"],
            job_rows,
            title="Per-job accounting",
        ))
    if args.cluster_command == "compare" and len(results) > 1:
        best = min(results, key=lambda r: r.mean_jct)
        lines.append(
            f"best mean JCT: {best.scheduler_display} "
            f"({best.mean_jct:.2f}s)"
        )
    return "\n".join(lines)


def _cmd_cache(args: argparse.Namespace) -> str:
    from repro.exec import ResultCache, default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        stats = cache.stats()
        rows = [[name, stats[name]] for name in
                ("directory", "entries", "bytes")]
        return render_table(["Field", "Value"], rows,
                            title="Persistent result cache")
    if args.action == "ls":
        entries = cache.entries()
        if not entries:
            return "(cache is empty)"
        return render_table(
            ["Key", "Bytes"],
            [[key, size] for key, size in entries],
        )
    removed = cache.clear()
    return f"removed {removed} cache files from {cache.directory}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fela (ICDE 2020) reproduction on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="models available in the zoo")

    profile = sub.add_parser("profile", help="per-layer threshold batches")
    profile.add_argument("model")

    partition = sub.add_parser("partition", help="offline model partition")
    partition.add_argument("model")
    partition.add_argument("--bin-width", type=int, default=16)

    run = sub.add_parser("run", help="one training run")
    run.add_argument("model")
    run.add_argument(
        "--runtime",
        default="fela",
        choices=("fela", "dp", "mp", "hp", "proactive"),
    )
    run.add_argument("--batch", type=int, default=256)
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--iterations", type=int, default=10)
    run.add_argument(
        "--straggler",
        default="none",
        help="'none', 'rr:D' (round-robin, D s) or 'prob:P:D'",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="also write a Chrome trace JSON (fela runtime only)",
    )
    run.add_argument(
        "--faults",
        default="none",
        help="'none', 'crash:W@T', 'leave:W@T', 'join@T', "
        "'crashp:P[:SEED]', or several joined with ','"
        " (fela runtime only)",
    )
    run.add_argument(
        "--check-invariants",
        action="store_true",
        help="attach the runtime invariant checker (fela runtime only)",
    )
    run.add_argument(
        "--sample", type=float, default=None, metavar="SECONDS",
        help="sample gauge time-series every SECONDS of simulated time "
        "(fela runtime only)",
    )
    run.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="record the run (config, stats, samples, trace events) in "
        "this run ledger",
    )

    trace = sub.add_parser(
        "trace", help="traced Fela run: Chrome trace + run report"
    )
    trace.add_argument("model")
    trace.add_argument("--batch", type=int, default=256)
    trace.add_argument("--workers", type=int, default=8)
    trace.add_argument("--iterations", type=int, default=3)
    trace.add_argument(
        "--straggler",
        default="none",
        help="'none', 'rr:D' (round-robin, D s) or 'prob:P:D'",
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="Chrome trace JSON output path",
    )
    trace.add_argument(
        "--metrics-csv", default=None, metavar="FILE",
        help="also dump the metrics registry as CSV",
    )
    trace.add_argument(
        "--sample", type=float, default=None, metavar="SECONDS",
        help="sample gauge time-series every SECONDS of simulated time "
        "(exported as Chrome counter tracks)",
    )
    trace.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="record the traced run (config, stats, samples, events) "
        "in this run ledger",
    )

    compare = sub.add_parser("compare", help="compare all runtimes")
    compare.add_argument("model")
    compare.add_argument("--batches", default="64,128,256,512,1024")
    compare.add_argument("--iterations", type=int, default=10)
    _add_sweep_flags(compare)

    tune = sub.add_parser("tune", help="two-phase configuration tuning")
    tune.add_argument("model")
    tune.add_argument("--batch", type=int, default=256)
    tune.add_argument("--workers", type=int, default=8)
    tune.add_argument("--profile-iterations", type=int, default=5)
    tune.add_argument(
        "--exhaustive", action="store_true",
        help="profile every phase-1 candidate at full depth instead of "
        "pruning with successive halving",
    )
    _add_sweep_flags(tune)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's tables/figures"
    )
    figures.add_argument("ids", nargs="*", help="artifact ids (see --list)")
    figures.add_argument("--list", action="store_true")
    figures.add_argument("--iterations", type=int, default=8)
    _add_sweep_flags(figures)

    cache = sub.add_parser(
        "cache", help="inspect or empty the persistent result cache"
    )
    cache.add_argument("action", choices=("stats", "ls", "clear"))
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/fela-repro)",
    )

    analyze = sub.add_parser(
        "analyze", help="run the FELA determinism lint rules"
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    analyze.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    analyze.add_argument(
        "--select", default=None, help="comma-separated rule ids"
    )
    analyze.add_argument("--list-rules", action="store_true")
    analyze.add_argument(
        "--flow", action="store_true",
        help="run the whole-program FELA1xx flow rules instead of the "
        "per-file syntactic rules",
    )
    analyze.add_argument(
        "--baseline", default="analysis-baseline.json",
        help="accepted flow findings (default: analysis-baseline.json)",
    )
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current flow finding into --baseline",
    )
    analyze.add_argument(
        "--fail-on-new", action="store_true",
        help="exit 1 when a flow finding is missing from the baseline",
    )
    analyze.add_argument(
        "--sarif-out", default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE",
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental per-file facts cache",
    )
    analyze.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="facts cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/fela-repro)",
    )

    bench = sub.add_parser(
        "bench", help="deterministic performance benchmarks"
    )
    bench.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit",
    )
    bench.add_argument(
        "--scenarios", default=None,
        help="comma-separated scenario names (default: all of --kind)",
    )
    bench.add_argument(
        "--kind", choices=("macro", "micro", "all"), default="all"
    )
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--warmup", type=int, default=1)
    bench.add_argument(
        "--label", default="local",
        help="label stored with this run (e.g. 'optimized')",
    )
    bench.add_argument(
        "--out", default=None, metavar="FILE",
        help="append this run to the given regression store",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="compare against the latest run in BASELINE "
        "(exit 1 on regression)",
    )
    bench.add_argument(
        "--fail-on-regress", type=float, default=20.0, metavar="PCT",
        help="regression gate for --compare (median wall-clock %%)",
    )
    bench.add_argument(
        "--baseline", default=None, metavar="LABEL",
        help="with --compare: gate against the latest run stored under "
        "LABEL instead of the last run in the store",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="print cProfile hotspot reports instead of timing",
    )
    bench.add_argument(
        "--top", type=int, default=15,
        help="functions per hotspot report (with --profile)",
    )
    bench.add_argument(
        "--history", default=None, metavar="SCENARIO",
        help="print the full-store trend of one scenario and exit "
        "(store: --compare, --out, or BENCH_core.json)",
    )
    _add_sweep_flags(bench)

    dashboard = sub.add_parser(
        "dashboard", help="render run-ledger dashboards (text or HTML)"
    )
    dashboard.add_argument("ledger", help="run ledger file to render")
    dashboard.add_argument(
        "--out", default=None, metavar="FILE",
        help="write a self-contained HTML dashboard to FILE "
        "(default: print the plain-text dashboard)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="multi-tenant cluster service: job streams on a shared "
        "GPU pool",
    )
    cluster_sub = cluster.add_subparsers(
        dest="cluster_command", required=True
    )

    def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--trace-kind", default="poisson",
            choices=("poisson", "diurnal", "bursty"),
            help="arrival process of the job stream",
        )
        parser.add_argument(
            "--jobs", type=int, default=20,
            help="number of jobs in the trace",
        )
        parser.add_argument(
            "--seed", type=int, default=0, help="trace seed"
        )
        parser.add_argument(
            "--mean-interarrival", type=float, default=30.0,
            metavar="SECONDS",
            help="mean simulated seconds between arrivals",
        )
        parser.add_argument(
            "--models", default=None, metavar="A,B,...",
            help="comma-separated model mix (default: the zoo minus "
            "resnet152 and lenet5)",
        )
        parser.add_argument(
            "--pool", type=int, default=16,
            help="GPUs in the shared pool",
        )
        parser.add_argument(
            "--crash-probability", type=float, default=0.0,
            metavar="P",
            help="per-worker per-iteration crash probability",
        )
        parser.add_argument(
            "--crash-seed", type=int, default=0,
            help="seed for crash injection (independent of the trace)",
        )
        parser.add_argument(
            "--ledger", default=None, metavar="FILE",
            help="record cluster_runs/cluster_jobs rows in a run ledger",
        )
        parser.add_argument(
            "--label", default="", help="ledger label for this run"
        )

    cluster_run = cluster_sub.add_parser(
        "run", help="run one trace under one scheduler"
    )
    _add_cluster_flags(cluster_run)
    cluster_run.add_argument(
        "--scheduler", default="elastic",
        choices=("fifo", "fair", "elastic"),
        help="allocation policy",
    )
    cluster_run.add_argument(
        "--per-job", action="store_true",
        help="also print the per-job accounting table",
    )
    cluster_run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write job lifecycle events as a Chrome trace",
    )

    cluster_compare = cluster_sub.add_parser(
        "compare", help="run one trace under several schedulers"
    )
    _add_cluster_flags(cluster_compare)
    cluster_compare.add_argument(
        "--schedulers", default="fifo,fair,elastic", metavar="A,B,...",
        help="comma-separated schedulers to compare",
    )

    return parser


#: Handlers return the report text, optionally with an explicit exit
#: code (the ``analyze`` command exits 1 when violations are found).
_COMMANDS: dict[
    str, _t.Callable[[argparse.Namespace], str | tuple[str, int]]
] = {
    "list-models": _cmd_list_models,
    "profile": _cmd_profile,
    "partition": _cmd_partition,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "tune": _cmd_tune,
    "cache": _cmd_cache,
    "figures": _cmd_figures,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
    "dashboard": _cmd_dashboard,
    "cluster": _cmd_cluster,
}


def main(argv: _t.Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = 0
    if isinstance(output, tuple):
        output, code = output
    try:
        print(output, file=sys.stderr if code == 2 else sys.stdout)
    except BrokenPipeError:  # e.g. `repro figures --list | head`
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
