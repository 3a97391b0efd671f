"""Engine behaviour: reporting, suppressions, baseline, exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.baseline import (
    PLACEHOLDER_JUSTIFICATION,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.findings import Finding

#: One minimal violating file per rule family (HASH-STABLE violates via
#: a registry whose dataclass has an undeclared field).
VIOLATIONS = {
    "DET-RNG": {
        "sim/v.py": "import random\n\ndef f():\n    return random.random()\n"
    },
    "DET-ORDER": {
        "sim/v.py": "def f():\n    s = {1, 2}\n    return list(s)\n"
    },
    "DET-FLOAT": {
        "sim/metrics.py": "def f(xs):\n    return sum(xs)\n"
    },
    "POOL-SAFE": {
        "scenarios/runner.py": "C = {}\n\ndef f(k):\n    C[k] = 1\n"
    },
    "HASH-STABLE": {
        "scenarios/hash_registry.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    a: int = 1\n"
            "CONFIG_HASH_REGISTRY = {'Cfg': {}}\n"
            "def registered_classes():\n"
            "    return {'Cfg': Cfg}\n"
        )
    },
}


class TestExitCodes:
    """Acceptance: non-zero on a synthetic violation of each family."""

    @pytest.mark.parametrize("rule", sorted(VIOLATIONS))
    def test_each_family_fails_the_cli(self, lint_cli, rule):
        code, out, _err = lint_cli(VIOLATIONS[rule])
        assert code == 1
        assert rule in out
        assert "FAILED" in out

    def test_clean_tree_exits_zero(self, lint_cli):
        code, out, _err = lint_cli({"sim/ok.py": "X = 1\n"})
        assert code == 0
        assert out.startswith("ok:")

    def test_missing_root_exits_two(self, lint_cli, tmp_path):
        import contextlib
        import io

        from repro.analysis.engine import main

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--root", str(tmp_path / "absent")])
        assert code == 2

    def test_list_rules(self, lint_cli):
        code, out, _err = lint_cli({}, "--list-rules")
        assert code == 0
        for rule in (*VIOLATIONS, "LINT"):
            assert rule in out


class TestEngineDiagnostics:
    def test_syntax_error_is_a_lint_finding(self, lint_tree):
        findings = lint_tree({"sim/broken.py": "def f(:\n"})
        assert [f.rule for f in findings] == ["LINT"]
        assert "syntax error" in findings[0].message

    def test_unknown_suppressed_rule_is_reported(self, lint_tree):
        findings = lint_tree(
            {"sim/x.py": "X = 1  # repro-lint: disable=DET-TYPO\n"}
        )
        assert [f.rule for f in findings] == ["LINT"]
        assert "DET-TYPO" in findings[0].message

    def test_multi_rule_directive(self, lint_tree):
        findings = lint_tree(
            {"sim/metrics.py": "def f(xs):\n"
                               "    s = {1}\n"
                               "    return sum(xs), list(s)  "
                               "# repro-lint: disable=DET-FLOAT,DET-ORDER\n"}
        )
        assert findings == []

    def test_directive_inside_string_is_inert(self, lint_tree):
        findings = lint_tree(
            {"sim/x.py": 'DOC = "# repro-lint: disable-file=DET-ORDER"\n'
                         "def f():\n"
                         "    s = {1}\n"
                         "    return list(s)\n"}
        )
        assert [f.rule for f in findings] == ["DET-ORDER"]

    def test_findings_are_sorted_and_rendered(self, lint_cli):
        code, out, _err = lint_cli(
            {
                "sim/b.py": "def f():\n    s = {1}\n    return list(s)\n",
                "sim/a.py": "def f():\n    s = {1}\n    return list(s)\n",
            }
        )
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("sim/")]
        assert lines == sorted(lines)
        assert lines[0].startswith("sim/a.py:3:")


class TestBaseline:
    def _finding(self, detail="f: raw sum() fold") -> Finding:
        return Finding(
            path="sim/metrics.py", line=2, col=12, rule="DET-FLOAT",
            message="raw sum()", detail=detail,
        )

    def test_round_trip_carries_justifications(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        first = write_baseline(path, [self._finding()], [])
        assert first[0].justification == PLACEHOLDER_JUSTIFICATION
        data = json.load(open(path))
        data["entries"][0]["justification"] = "ints only"
        with open(path, "w") as fh:
            json.dump(data, fh)
        entries = load_baseline(path)
        rewritten = write_baseline(path, [self._finding()], entries)
        assert rewritten[0].justification == "ints only"
        active, baselined, stale = apply_baseline(
            [self._finding()], load_baseline(path)
        )
        assert (active, len(baselined), stale) == ([], 1, [])

    def test_line_moves_do_not_invalidate_entries(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, [self._finding()], [])
        moved = Finding(
            path="sim/metrics.py", line=99, col=1, rule="DET-FLOAT",
            message="raw sum()", detail="f: raw sum() fold",
        )
        active, baselined, stale = apply_baseline([moved], load_baseline(path))
        assert (active, len(baselined), stale) == ([], 1, [])

    def test_stale_entries_are_returned(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, [self._finding()], [])
        active, baselined, stale = apply_baseline([], load_baseline(path))
        assert (active, baselined) == ([], [])
        assert [entry.detail for entry in stale] == ["f: raw sum() fold"]

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"entries": [{"rule": "X"}]}')
        with pytest.raises(BaselineError):
            load_baseline(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(BaselineError):
            load_baseline(str(path))

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == []


class TestBaselineCli:
    FILES = {"sim/metrics.py": "def f(xs):\n    return sum(xs)\n"}

    def _justify(self, path: str) -> None:
        data = json.load(open(path))
        for entry in data["entries"]:
            entry["justification"] = "host-side only"
        with open(path, "w") as fh:
            json.dump(data, fh)

    def test_write_then_pass(self, lint_cli, tmp_path):
        baseline = str(tmp_path / "b.json")
        code, out, _err = lint_cli(
            self.FILES, "--baseline", baseline, "--write-baseline"
        )
        assert code == 0 and os.path.exists(baseline)
        # A placeholder justification must still fail the enforcing run.
        code, out, _err = lint_cli(self.FILES, "--baseline", baseline)
        assert code == 1
        assert "without a real justification" in out
        self._justify(baseline)
        code, out, _err = lint_cli(self.FILES, "--baseline", baseline)
        assert code == 0
        assert "1 baselined" in out

    def test_stale_entry_fails_the_run(self, lint_cli, tmp_path):
        baseline = str(tmp_path / "b.json")
        lint_cli(self.FILES, "--baseline", baseline, "--write-baseline")
        self._justify(baseline)
        clean = {"sim/metrics.py": "def f(xs):\n    return len(xs)\n"}
        code, out, _err = lint_cli(clean, "--baseline", baseline)
        assert code == 1
        assert "stale baseline entry" in out

    def test_missing_explicit_baseline_fails_clearly(self, lint_cli, tmp_path):
        # A mistyped --baseline must not silently become an empty
        # baseline that reports every grandfathered finding as new.
        missing = str(tmp_path / "typo.json")
        code, out, err = lint_cli(self.FILES, "--baseline", missing)
        assert code == 2
        assert err.strip() == f"repro lint: baseline {missing!r} does not exist"
        assert out == ""
        # Writing to a new path still creates it.
        code, _out, _err = lint_cli(
            self.FILES, "--baseline", missing, "--write-baseline"
        )
        assert code == 0 and os.path.exists(missing)

    def test_no_baseline_reports_everything(self, lint_cli, tmp_path):
        baseline = str(tmp_path / "b.json")
        lint_cli(self.FILES, "--baseline", baseline, "--write-baseline")
        self._justify(baseline)
        code, out, _err = lint_cli(
            self.FILES, "--baseline", baseline, "--no-baseline"
        )
        assert code == 1
        assert "DET-FLOAT" in out
