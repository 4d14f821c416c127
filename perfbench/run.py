"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures them
too, then replays the first pass untraced and traced and reports the
per-layer metrics.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in a fresh process and prints one table.  Full results
(provenance, per-task records, spans) go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("paper_figures", "scale_1000w", "cluster_churn",
                  "fela_observed")
#: Set-ups per run (fresh processes plus the measuring one); the median
#: is reported.
SETUP_SAMPLES = 7


def load_workload(name: str):
    """Import the program and build the workload's inputs; returns
    ``(workload, seconds)``: the set-up time of a fresh process."""
    started = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    return workload, time.perf_counter() - started


def setup_in_fresh_process(name: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"set-up of {name} failed in a fresh process:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def provenance(args: argparse.Namespace, params: dict[str, _t.Any]):
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*command: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *command], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30, check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if commit is None or status is None else status != "",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def traced_replay(workload, seed: int, pins) -> dict[str, _t.Any]:
    """Replay the first pass untraced, then traced; per-layer metrics."""
    import layers
    import measure
    import spans

    untraced = [
        measure.run_task(task, pins.get(task.key))
        for task in next(workload.passes(seed))
    ]
    recorder = spans.SpanRecorder()
    hooks = layers.install(recorder)
    try:
        traced = []
        for task in next(workload.passes(seed)):
            with recorder.op(task.key):
                traced.append(measure.run_task(task, pins.get(task.key)))
    finally:
        hooks.undo()
    metrics, self_ns = layers.layer_metrics(
        hooks, sum(record.wall_ns for record in untraced)
    )
    return {
        "metrics": metrics,
        "self_ns": self_ns,
        "correct": not any(r.unexpected for r in untraced + traced),
        "records": untraced + traced,
        "recorder": recorder,
    }


def write_spans(path: pathlib.Path, recorder) -> None:
    """Spans as ``{"names", "ops", "spans": [[name, start, end, parent,
    op], ...]}``, names and ops given by index."""
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
        out.write('{"fields": ["name", "start_ns", "end_ns", "parent", '
                  '"op"], "names": ')
        json.dump(recorder.names, out)
        out.write(', "ops": ')
        json.dump(recorder.ops, out)
        out.write(', "spans": [')
        for index, row in enumerate(recorder.rows()):
            out.write(("," if index else "") + json.dumps(row))
        out.write("]}")


def run_workload(args: argparse.Namespace) -> int:
    samples = [
        setup_in_fresh_process(args.workload)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    workload, seconds = load_workload(args.workload)
    samples.append(seconds)

    import digests
    import measure

    pins = digests.load_pins().get(workload.name, {})
    warmup, passes = measure.run_passes(
        workload.passes(args.seed), pins, args.seconds
    )
    summary = measure.summarize(passes)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_wall_s": (summary["ops_per_wall_s"], "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "completed_share": (summary["completed_share"], "ratio"),
    }
    shown = dict(end_to_end, failed_share=(summary["failed_share"], "ratio"))
    correct = summary["correct"] and not any(r.unexpected for r in warmup)
    result: dict[str, _t.Any] = {
        "provenance": provenance(args, workload.params),
        "setup_samples_s": samples,
        "summary": summary,
        "warmup": [vars(r) for r in warmup],
        "passes": [[vars(r) for r in done] for done in passes],
    }
    reported = end_to_end
    if args.trace:
        replay = traced_replay(workload, args.seed, pins)
        correct = correct and replay["correct"]
        reported = replay["metrics"]
        result["layers"] = {"metrics": reported, "self_ns": replay["self_ns"]}
        result["replay"] = [vars(r) for r in replay["records"]]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(OUT / f"{stem}-spans.json.gz", replay["recorder"])
    (OUT / f"{stem}.json").write_text(
        json.dumps(result, indent=1, default=list), encoding="utf-8"
    )

    print(f"workload {workload.name} seed {args.seed} "
          f"commit {result['provenance']['commit']}")
    print(f"attempted {summary['attempted']} failed {summary['failed']} "
          f"passes {summary['passes']} correct {correct}")
    if args.trace:
        shown.update(reported)
    for name, (value, unit) in shown.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one table of the end-to-end
    metrics plus ``failed_share``."""
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        rows[name] = json.loads(done.stdout.splitlines()[-1])
    metric_names = sorted({m for row in rows.values() for m in row["metrics"]})
    print(f"{'metric':28s}" + "".join(f"{n:>16s}" for n in rows))
    for metric in metric_names:
        print(f"{metric:28s}" + "".join(
            f"{row['metrics'][metric]['value']:>16.6g}" for row in rows.values()
        ))
    print(f"{'failed_share':28s}" + "".join(
        f"{row['failed'] / row['attempted']:>16.6g}" for row in rows.values()
    ))
    print(f"{'correct':28s}" + "".join(
        f"{str(row['correct']):>16s}" for row in rows.values()
    ))
    print(json.dumps(rows))
    return status


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        _workload, seconds = load_workload(args.workload)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
