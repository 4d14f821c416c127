"""Regression store + comparator coverage.

The comparator is a CI gate: a corrupt or stale baseline must raise, a
real regression must be classified as one, and noise inside the
threshold must not.
"""

import json

import pytest

from repro.errors import BenchmarkError
from repro.perf import (
    SCHEMA_VERSION,
    BenchRun,
    ScenarioRecord,
    append_run,
    compare_runs,
    load_store,
    save_store,
)


def record(name: str, wall: float) -> ScenarioRecord:
    return ScenarioRecord(
        name=name,
        kind="micro",
        repeats=3,
        warmup=1,
        wall_seconds=(wall, wall, wall),
        wall_seconds_median=wall,
        wall_seconds_iqr=0.0,
        simulated_seconds=2.0,
        events=100,
        sim_seconds_per_wall_second=2.0 / wall if wall else 0.0,
        events_per_second=100 / wall if wall else 0.0,
        peak_rss_kb=1000.0,
    )


def run(label: str, walls: dict[str, float]) -> BenchRun:
    return BenchRun(
        label=label,
        records=tuple(record(name, wall) for name, wall in walls.items()),
    )


class TestStoreFormat:
    def test_missing_baseline_file(self, tmp_path):
        with pytest.raises(BenchmarkError, match="no benchmark baseline"):
            load_store(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(BenchmarkError, match="malformed"):
            load_store(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("[]")
        with pytest.raises(BenchmarkError, match="top level"):
            load_store(path)

    def test_old_schema_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": 0, "runs": []}))
        with pytest.raises(BenchmarkError, match="schema"):
            load_store(path)

    def test_missing_schema_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"runs": []}))
        with pytest.raises(BenchmarkError, match="schema"):
            load_store(path)

    def test_runs_must_be_list(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"schema": SCHEMA_VERSION, "runs": "oops"})
        )
        with pytest.raises(BenchmarkError, match="'runs' must be a list"):
            load_store(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        broken = run("r", {"micro.a": 1.0}).to_dict()
        del broken["results"][0]["wall_seconds_median"]
        path.write_text(
            json.dumps({"schema": SCHEMA_VERSION, "runs": [broken]})
        )
        with pytest.raises(BenchmarkError, match="malformed scenario"):
            load_store(path)

    def test_roundtrip_and_append(self, tmp_path):
        path = tmp_path / "bench.json"
        first = run("before", {"micro.a": 1.0, "macro.b": 2.0})
        append_run(path, first)  # creates the file
        second = run("after", {"micro.a": 0.5})
        runs = append_run(path, second)
        assert [r.label for r in runs] == ["before", "after"]
        reloaded = load_store(path)
        assert reloaded == [first, second]

    def test_committed_store_loads(self):
        # The repo-root baseline must always be readable by the tool.
        # Its older records carry a field records have since dropped;
        # loading ignores it rather than needing a schema bump.
        runs = load_store("BENCH_core.json")
        assert len(runs) >= 2
        names = {rec.name for rec in runs[-1].records}
        assert "macro.vgg19_fela" in names


class TestComparator:
    def test_regression_above_threshold(self):
        cmp = compare_runs(
            run("now", {"micro.a": 1.3}),
            run("base", {"micro.a": 1.0}),
            threshold_pct=20.0,
        )
        (row,) = cmp.rows
        assert row.status == "regression"
        assert row.delta_pct == pytest.approx(30.0)
        assert cmp.regressions == [row]
        assert "REGRESSION: micro.a" in cmp.render()

    def test_slowdown_below_threshold_is_ok(self):
        cmp = compare_runs(
            run("now", {"micro.a": 1.1}),
            run("base", {"micro.a": 1.0}),
            threshold_pct=20.0,
        )
        assert cmp.rows[0].status == "ok"
        assert not cmp.regressions
        assert "REGRESSION" not in cmp.render()

    def test_exactly_at_threshold_is_ok(self):
        cmp = compare_runs(
            run("now", {"micro.a": 1.2}),
            run("base", {"micro.a": 1.0}),
            threshold_pct=20.0,
        )
        assert cmp.rows[0].status == "ok"

    def test_improvement(self):
        cmp = compare_runs(
            run("now", {"micro.a": 0.5}),
            run("base", {"micro.a": 1.0}),
            threshold_pct=20.0,
        )
        (row,) = cmp.rows
        assert row.status == "improvement"
        assert row.speedup == pytest.approx(2.0)
        assert cmp.improvements == [row]

    def test_scenario_missing_from_baseline_is_new(self):
        cmp = compare_runs(
            run("now", {"micro.a": 1.0, "micro.b": 1.0}),
            run("base", {"micro.a": 1.0}),
        )
        by_name = {row.scenario: row for row in cmp.rows}
        assert by_name["micro.b"].status == "new"
        assert by_name["micro.b"].baseline_wall is None
        assert not cmp.regressions

    def test_negative_threshold_rejected(self):
        with pytest.raises(BenchmarkError, match="threshold"):
            compare_runs(
                run("now", {"micro.a": 1.0}),
                run("base", {"micro.a": 1.0}),
                threshold_pct=-1.0,
            )

    def test_non_positive_baseline_rejected(self):
        with pytest.raises(BenchmarkError, match="non-positive"):
            compare_runs(
                run("now", {"micro.a": 1.0}),
                run("base", {"micro.a": 0.0}),
            )
