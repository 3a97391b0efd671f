"""BENCH_<scenario>.json: schema validation, golden layout, CLI path."""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.scenarios import (
    BENCH_SCHEMA_VERSION,
    ENGINE_INTERNAL_METRICS,
    ScenarioRunner,
    physical_metrics,
    validate_report,
    write_report,
)

#: Golden layout of the report and of one simulation run's metrics.
TOP_LEVEL_KEYS = {
    "bench_schema_version",
    "scenario",
    "kind",
    "figure",
    "fast",
    "metrics_fingerprint",
    "runs",
    "derived",
    "wall_clock_s",
}
RUN_KEYS = {
    "run_id",
    "config",
    "config_hash",
    "metrics",
    "wall_clock_s",
    "peak_rss_kb",
}
SIM_METRIC_KEYS = {
    "response_time_s",
    "subqueries",
    "fact_io_ops",
    "fact_pages",
    "bitmap_io_ops",
    "bitmap_pages",
    "total_pages",
    "coordinator_node",
    "avg_disk_utilization",
    "avg_cpu_utilization",
    "buffer_hits",
    "buffer_misses",
    "event_count",
}


@pytest.fixture(scope="module")
def report():
    return ScenarioRunner("smoke_tiny").run()


@pytest.fixture(scope="module")
def report_dict(report):
    return json.loads(report.to_json())


class TestGoldenLayout:
    def test_top_level_keys(self, report_dict):
        assert set(report_dict) == TOP_LEVEL_KEYS
        assert report_dict["bench_schema_version"] == BENCH_SCHEMA_VERSION
        assert report_dict["scenario"] == "smoke_tiny"

    def test_run_entry_keys(self, report_dict):
        for entry in report_dict["runs"]:
            assert set(entry) == RUN_KEYS

    def test_sim_metrics_keys_are_exactly_the_golden_set(self, report_dict):
        by_id = {entry["run_id"]: entry for entry in report_dict["runs"]}
        assert set(by_id["tiny_1store"]["metrics"]) == SIM_METRIC_KEYS

    def test_config_round_trips_the_run_spec(self, report_dict):
        by_id = {entry["run_id"]: entry for entry in report_dict["runs"]}
        config = by_id["tiny_1store"]["config"]
        assert config["schema"] == "tiny"
        assert config["query"] == "1STORE"
        assert config["fragmentation"] == ["time::month", "product::group"]

    def test_json_serialisation_is_deterministic(self, report):
        assert report.to_json() == report.to_json()


class TestValidation:
    def test_valid_report_passes(self, report_dict):
        validate_report(report_dict)

    def test_missing_key_is_rejected(self, report_dict):
        broken = dict(report_dict)
        del broken["metrics_fingerprint"]
        with pytest.raises(ValueError, match="missing key"):
            validate_report(broken)

    def test_tampered_metrics_break_the_fingerprint(self, report_dict):
        broken = json.loads(json.dumps(report_dict))
        broken["runs"][0]["metrics"]["response_time_s"] = 0.0
        with pytest.raises(ValueError, match="fingerprint"):
            validate_report(broken)

    def test_duplicate_run_ids_are_rejected(self, report_dict):
        broken = json.loads(json.dumps(report_dict))
        broken["runs"].append(broken["runs"][0])
        with pytest.raises(ValueError, match="duplicate run_id"):
            validate_report(broken)

    def test_wrong_schema_version_is_rejected(self, report_dict):
        broken = dict(report_dict)
        broken["bench_schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            validate_report(broken)

    def test_empty_runs_are_rejected(self, report_dict):
        broken = dict(report_dict)
        broken["runs"] = []
        with pytest.raises(ValueError, match="non-empty"):
            validate_report(broken)

    def test_old_schema_error_names_both_versions_and_the_remedy(
        self, report_dict
    ):
        stale = dict(report_dict)
        stale["bench_schema_version"] = 1
        with pytest.raises(ValueError) as excinfo:
            validate_report(stale)
        message = str(excinfo.value)
        assert "1" in message
        assert str(BENCH_SCHEMA_VERSION) in message
        assert "--regen" in message


class TestFingerprintV2:
    """The v2 contract: the fingerprint pins physics, not engine internals.

    Invariant to ``event_count`` (so the event loop's structure can
    change without invalidating goldens) and sensitive to every pinned
    physical metric.
    """

    def _fingerprint_after(self, report, run_index, key, value):
        mutated = copy.deepcopy(report)
        mutated.runs[run_index].metrics[key] = value
        return mutated.metrics_fingerprint()

    def test_event_count_is_engine_internal(self):
        assert "event_count" in ENGINE_INTERNAL_METRICS

    def test_fingerprint_invariant_to_event_count(self, report):
        baseline = report.metrics_fingerprint()
        perturbed = self._fingerprint_after(
            report, 0, "event_count",
            report.runs[0].metrics["event_count"] + 12345,
        )
        assert perturbed == baseline

    @pytest.mark.parametrize("key", [
        "response_time_s",
        "fact_pages",
        "total_pages",
        "avg_disk_utilization",
        "avg_cpu_utilization",
    ])
    def test_fingerprint_sensitive_to_physical_metrics(self, report, key):
        baseline = report.metrics_fingerprint()
        original = report.runs[0].metrics[key]
        perturbed = self._fingerprint_after(report, 0, key, original + 1)
        assert perturbed != baseline

    def test_fingerprint_sensitive_to_queue_delay(self):
        report = ScenarioRunner("smoke_open_tiny").run()
        baseline = report.metrics_fingerprint()
        target = report.runs[0].metrics
        assert "avg_queue_delay_s" in target
        mutated = copy.deepcopy(report)
        mutated.runs[0].metrics["avg_queue_delay_s"] += 0.5
        assert mutated.metrics_fingerprint() != baseline

    def test_projection_reports_physical_metrics_only(self, report):
        for entry in report.metrics_projection().values():
            assert "event_count" not in entry["metrics"]
        # ... while the written report keeps the counter for diagnostics
        # (analytic runs never had one).
        kept = [
            run for run in json.loads(report.to_json())["runs"]
            if "event_count" in run["metrics"]
        ]
        assert kept

    def test_physical_metrics_filters_only_engine_internals(self):
        metrics = {"response_time_s": 1.5, "event_count": 42}
        assert physical_metrics(metrics) == {"response_time_s": 1.5}


class TestCliBench:
    def test_bench_list_exits_cleanly(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3_speedup_1store" in out
        assert "smoke_tiny" in out

    def test_bench_writes_a_schema_valid_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        validate_report(data)
        assert "fingerprint:" in capsys.readouterr().out

    def test_bench_metrics_identical_across_two_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert cli_main(
                ["bench", "--scenario", "smoke_tiny", "--fast",
                 "--out", str(path)]
            ) == 0
        first, second = (json.loads(p.read_text()) for p in paths)
        projection = lambda data: json.dumps(
            {r["run_id"]: r["metrics"] for r in data["runs"]}, sort_keys=True
        )
        assert projection(first) == projection(second)
        assert first["metrics_fingerprint"] == second["metrics_fingerprint"]

    def test_bench_unknown_scenario_fails(self, capsys):
        assert cli_main(["bench", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bench_regen_unknown_scenario_lists_valid_names(self, capsys):
        # --regen with a bad name must exit 2 with the known names, not
        # traceback.
        assert cli_main(["bench", "--regen", "--scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "smoke_tiny" in err

    def test_bench_unknown_run_id_lists_valid_ids(self, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--runs", "missing_run"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown run ids" in err
        assert "tiny_1store" in err

    def test_bench_empty_run_selection_fails(self, tmp_path, capsys):
        # Regression: `--runs ","` used to silently write a zero-run
        # report.
        out = tmp_path / "empty.json"
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--runs", ",",
             "--out", str(out)]
        ) == 2
        assert "selected no run points" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_without_scenario_or_list_fails(self, capsys):
        assert cli_main(["bench"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_write_report_helper_round_trips(self, tmp_path, report):
        path = tmp_path / "BENCH_roundtrip.json"
        write_report(report, str(path))
        validate_report(json.loads(path.read_text()))

    def test_bench_jobs_matches_serial_fingerprint(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--jobs", "1",
             "--stable", "--out", str(serial)]
        ) == 0
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--jobs", "3",
             "--stable", "--out", str(sharded)]
        ) == 0
        assert serial.read_text() == sharded.read_text()
        # The sharded run narrates per-shard progress.
        assert "[shard " in capsys.readouterr().out

    def test_bench_seeds_replicates_runs(self, tmp_path):
        out = tmp_path / "seeds.json"
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--fast",
             "--seeds", "0,5", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        validate_report(data)
        ids = [run["run_id"] for run in data["runs"]]
        assert ids == ["tiny_1store_s0", "tiny_1store_s5"]

    def test_bench_seed_and_seeds_conflict(self, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--seed", "1",
             "--seeds", "2,3"]
        ) == 2
        assert "either seed or seeds" in capsys.readouterr().err

    def test_bench_duplicate_or_empty_seeds_fail(self, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--seeds", "1,1"]
        ) == 2
        assert "distinct" in capsys.readouterr().err
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--seeds", ","]
        ) == 2
        assert "at least one" in capsys.readouterr().err

    def test_bench_missing_check_golden_fails_before_running(self, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny",
             "--check", "no/such/golden.json"]
        ) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bench_non_positive_jobs_fail_cleanly(self, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--jobs", "0"]
        ) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err


class TestAtomicWriteReport:
    """An interrupted rewrite never corrupts the report it replaces."""

    def _golden(self, tmp_path, report):
        path = tmp_path / "BENCH_golden.json"
        write_report(report, str(path))
        return path, path.read_bytes()

    def test_failed_write_keeps_previous_golden(
        self, tmp_path, report, monkeypatch
    ):
        path, before = self._golden(tmp_path, report)
        text = report.to_json()
        half = len(text) // 2
        # A lone surrogate cannot be encoded: the write fails partway.
        monkeypatch.setattr(
            type(report),
            "to_json",
            lambda self, stable=False: text[:half] + "\ud800" + text[half:],
        )
        with pytest.raises(UnicodeEncodeError):
            write_report(report, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_interrupted_replace_keeps_previous_golden(
        self, tmp_path, report, monkeypatch
    ):
        path, before = self._golden(tmp_path, report)

        def interrupted(_src, _dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.scenarios.runner.os.replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_report(report, str(path), stable=True)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == [path.name]

    def test_rewrite_keeps_permission_bits(self, tmp_path, report):
        path, _before = self._golden(tmp_path, report)
        os.chmod(path, 0o640)
        write_report(report, str(path), stable=True)
        assert os.stat(path).st_mode & 0o777 == 0o640
        validate_report(json.loads(path.read_text()))


class TestCliRegen:
    def test_regen_creates_and_then_reports_unchanged(
        self, tmp_path, capsys
    ):
        argv = ["bench", "--scenario", "smoke_tiny", "--fast",
                "--regen", "--golden-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        golden = tmp_path / "BENCH_smoke_tiny_fast.json"
        assert golden.exists()
        assert "new golden" in out
        validate_report(json.loads(golden.read_text()))
        # Second regeneration: same metrics, diff reported as unchanged.
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "unchanged" in out
        assert "fingerprint:" in out

    def test_regen_preserves_the_goldens_stability_mode(self, tmp_path):
        argv = ["bench", "--scenario", "smoke_tiny", "--regen",
                "--stable", "--golden-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        golden = tmp_path / "BENCH_smoke_tiny.json"
        first = golden.read_text()
        assert json.loads(first)["wall_clock_s"] == 0.0
        # No --stable the second time: inferred from the existing golden.
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--regen",
             "--golden-dir", str(tmp_path)]
        ) == 0
        assert golden.read_text() == first

    def test_regen_honours_an_explicit_stable_flag(self, tmp_path):
        # First regen without --stable: wall clocks are recorded.
        base = ["bench", "--scenario", "smoke_tiny", "--regen",
                "--golden-dir", str(tmp_path)]
        assert cli_main(base) == 0
        golden = tmp_path / "BENCH_smoke_tiny.json"
        assert json.loads(golden.read_text())["wall_clock_s"] > 0.0
        # Explicit --stable converts the golden instead of being ignored.
        assert cli_main(base + ["--stable"]) == 0
        assert json.loads(golden.read_text())["wall_clock_s"] == 0.0

    def test_regen_rejects_matrix_changing_flags(self, tmp_path, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--regen",
             "--golden-dir", str(tmp_path), "--runs", "tiny_1store"]
        ) == 2
        assert "--runs" in capsys.readouterr().err

    def test_regen_refuses_to_fork_a_second_golden_variant(
        self, tmp_path, capsys
    ):
        # A fast golden exists; regenerating the full variant would make
        # the nightly sweep run both matrices forever.
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--fast", "--regen",
             "--golden-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--regen",
             "--golden-dir", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert "add --fast" in err
        assert not (tmp_path / "BENCH_smoke_tiny.json").exists()

    def test_regen_reports_a_corrupt_golden_cleanly(self, tmp_path, capsys):
        golden = tmp_path / "BENCH_smoke_tiny_fast.json"
        golden.write_text("{ truncated")
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--fast", "--regen",
             "--golden-dir", str(tmp_path)]
        ) == 2
        assert "cannot read existing golden" in capsys.readouterr().err

    def test_regen_requires_an_existing_golden_dir(self, tmp_path, capsys):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--regen",
             "--golden-dir", str(tmp_path / "missing")]
        ) == 2
        assert "golden directory" in capsys.readouterr().err


class TestCliRegenAll:
    def test_regen_all_rewrites_existing_goldens_and_summarises(
        self, tmp_path, capsys
    ):
        # Seed two goldens (one stable); --regen-all must rewrite only
        # what exists, preserve stability modes, and print the diff.
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--fast", "--regen",
             "--stable", "--golden-dir", str(tmp_path)]
        ) == 0
        assert cli_main(
            ["bench", "--scenario", "smoke_open_tiny", "--regen",
             "--golden-dir", str(tmp_path)]
        ) == 0
        fast_golden = tmp_path / "BENCH_smoke_tiny_fast.json"
        stable_before = fast_golden.read_text()
        capsys.readouterr()
        assert cli_main(
            ["bench", "--regen-all", "--golden-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fingerprint diff summary" in out
        assert "BENCH_smoke_tiny_fast.json" in out
        assert "BENCH_smoke_open_tiny.json" in out
        assert "0/2 goldens changed fingerprint" in out
        assert "skipped (no committed golden)" in out
        # The stable golden round-trips byte-identically.
        assert fast_golden.read_text() == stable_before

    def test_regen_all_reports_a_changed_fingerprint(
        self, tmp_path, capsys
    ):
        assert cli_main(
            ["bench", "--scenario", "smoke_tiny", "--fast", "--regen",
             "--stable", "--golden-dir", str(tmp_path)]
        ) == 0
        golden = tmp_path / "BENCH_smoke_tiny_fast.json"
        tampered = json.loads(golden.read_text())
        tampered["metrics_fingerprint"] = "0" * 64
        golden.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert cli_main(
            ["bench", "--regen-all", "--golden-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "CHANGED" in out
        assert "1/1 goldens changed fingerprint" in out
        validate_report(json.loads(golden.read_text()))

    def test_regen_all_rejects_scenario_and_regen_flags(
        self, tmp_path, capsys
    ):
        assert cli_main(
            ["bench", "--regen-all", "--scenario", "smoke_tiny",
             "--golden-dir", str(tmp_path)]
        ) == 2
        assert "--scenario" in capsys.readouterr().err
        assert cli_main(
            ["bench", "--regen-all", "--regen",
             "--golden-dir", str(tmp_path)]
        ) == 2
        assert "not both" in capsys.readouterr().err
        assert cli_main(
            ["bench", "--regen-all", "--fast",
             "--golden-dir", str(tmp_path)]
        ) == 2
        assert "--fast" in capsys.readouterr().err
