"""Stream-shard plumbing: config hashes, runner override, guards, CLI.

Three contracts from PR 9 live here.  First, reproducibility: adding the
``stream_shards`` knob must not move any existing config hash (the knob
is excluded from ``config_dict`` at its default), while a sharded run
must *declare* its partitioned physics via ``partition_mode`` so a
sharded report can never pass for a serial golden.  Second, exactness:
for a fixed shard count the report bytes must not depend on how many
workers executed the slices (``--jobs 1`` vs ``--jobs 2``).  Third, the
oversubscription guard: CLI entry points refuse jobs/shard combinations
that cannot help on this host, while the library stays permissive so
tests can pool anywhere.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.shard import stream_oversubscription_error
from repro.scenarios.spec import MODE_OPEN_SYSTEM, MODE_SIM, RunSpec
from repro.cli import main


def open_run() -> RunSpec:
    return get_scenario("smoke_open_tiny").runs[0]


class TestRunSpecConfig:
    def test_default_is_absent_from_config_dict(self):
        run = open_run()
        assert run.stream_shards == 1
        assert "stream_shards" not in run.config_dict()
        assert "partition_mode" not in run.config_dict()

    def test_sharded_declares_partition_mode(self):
        from dataclasses import replace

        sharded = replace(open_run(), stream_shards=3)
        config = sharded.config_dict()
        assert config["stream_shards"] == 3
        assert config["partition_mode"] == "independent"

    def test_sharded_config_hash_differs_from_serial(self):
        from dataclasses import replace

        run = open_run()
        assert replace(run, stream_shards=2).config_hash() \
            != run.config_hash()

    def test_sim_params_carry_the_shard_count(self):
        from dataclasses import replace

        assert open_run().sim_params().stream_shards == 1
        sharded = replace(open_run(), stream_shards=4)
        assert sharded.sim_params().stream_shards == 4

    def test_validation(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="stream_shards"):
            replace(open_run(), stream_shards=0)
        with pytest.raises(ValueError, match=MODE_OPEN_SYSTEM):
            replace(
                open_run(), mode=MODE_SIM, streams=0, stream_shards=2
            )


class TestRunnerOverride:
    def test_report_bytes_independent_of_worker_count(self):
        """The intra-run twin of the --jobs 1 vs --jobs 2 identity: at a
        fixed shard count, pooling the slices must not move a byte."""
        serial = ScenarioRunner(
            "smoke_open_tiny", stream_shards=2, jobs=1
        ).run()
        pooled = ScenarioRunner(
            "smoke_open_tiny", stream_shards=2, jobs=2
        ).run()
        assert serial.to_json(stable=True) == pooled.to_json(stable=True)

    def test_sharded_report_declares_the_partition(self):
        report = ScenarioRunner(
            "smoke_open_tiny", stream_shards=2, jobs=1
        ).run()
        for result in report.runs:
            assert result.config["stream_shards"] == 2
            assert result.config["partition_mode"] == "independent"

    def test_sharded_fingerprint_differs_from_serial(self):
        serial = ScenarioRunner("smoke_open_tiny", jobs=1).run()
        sharded = ScenarioRunner(
            "smoke_open_tiny", stream_shards=2, jobs=1
        ).run()
        hashes = lambda report: [  # noqa: E731
            r.config_hash for r in report.runs
        ]
        assert hashes(serial) != hashes(sharded)

    def test_non_open_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="open-system"):
            ScenarioRunner("smoke_tiny", stream_shards=2)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="stream_shards"):
            ScenarioRunner("smoke_open_tiny", stream_shards=0)


class TestOversubscriptionGuard:
    def test_combination_exceeding_cpus_is_refused(self):
        message = stream_oversubscription_error(2, 2, cpu_count=1)
        assert message is not None
        assert "--jobs 1" in message

    def test_jobs_1_never_oversubscribes(self):
        # Sequential fold: shard count alone doesn't add concurrency.
        assert stream_oversubscription_error(1, 8, cpu_count=1) is None

    def test_enough_cpus_is_fine(self):
        assert stream_oversubscription_error(4, 2, cpu_count=4) is None
        assert stream_oversubscription_error(2, 4, cpu_count=2) is None

    def test_serial_defaults_are_fine(self):
        assert stream_oversubscription_error(1, 1, cpu_count=1) is None


class TestCli:
    def test_guard_refuses_oversubscription(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code = main([
            "bench", "--scenario", "smoke_open_tiny",
            "--stream-shards", "2", "--jobs", "2",
        ])
        assert code == 2
        assert "oversubscribes" in capsys.readouterr().err

    def test_regen_rejects_stream_shards(self, capsys):
        code = main([
            "bench", "--scenario", "smoke_open_tiny",
            "--regen", "--stream-shards", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--stream-shards" in err
        assert "--regen" in err

    def test_sharded_bench_writes_declared_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--scenario", "smoke_open_tiny",
            "--stream-shards", "2", "--jobs", "1",
            "--stable", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        for run in report["runs"]:
            assert run["config"]["stream_shards"] == 2
            assert run["config"]["partition_mode"] == "independent"


class TestBoundedMemoryGuard:
    @staticmethod
    def _load_module():
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "benchmarks", "check_bounded_memory.py",
        )
        spec = importlib.util.spec_from_file_location(
            "check_bounded_memory_under_test", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_oversubscription_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        module = self._load_module()
        code = module.main([
            "--small", "10", "--large", "20",
            "--stream-shards", "2", "--jobs", "2",
        ])
        assert code == 2
        assert "oversubscribes" in capsys.readouterr().err

    def test_invalid_shard_count_exits_2(self, capsys):
        module = self._load_module()
        code = module.main([
            "--small", "10", "--large", "20", "--stream-shards", "0",
        ])
        assert code == 2
        assert ">= 1" in capsys.readouterr().err
