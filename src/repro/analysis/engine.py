"""The ``repro lint`` engine: walk, parse, check, baseline, report.

Orchestration order for one invocation:

1. walk the scan root for ``*.py`` files (skipping ``__pycache__``) and
   compute package-relative posix paths — the path vocabulary every
   rule, suppression, and baseline entry speaks;
2. per file: parse, scan suppression comments, run each
   :class:`~repro.analysis.rules.FileRule` whose ``applies_to`` matches,
   drop findings a directive suppresses;
3. run each :class:`~repro.analysis.rules.ProjectRule` once on the root;
4. split findings against the committed baseline; *stale* baseline
   entries (matching nothing) fail the run just like new findings, so
   the baseline can only shrink to match reality;
5. report ``path:line:col: RULE message`` diagnostics and exit 0
   (clean), 1 (findings / stale entries / placeholder justifications),
   or 2 (unusable or missing baseline file).

Syntax errors and unknown rule ids in suppression comments surface as
``LINT`` findings rather than crashes, so a typo can't disarm a rule.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

import repro
from repro.analysis.baseline import (
    PLACEHOLDER_JUSTIFICATION,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rules import FileContext, FileRule, ProjectRule, get_rules
from repro.analysis.suppressions import scan_suppressions

#: Engine-level diagnostics (parse failures, bad suppression comments)
#: carry this pseudo-rule id; it is suppressible and baselinable like
#: any other so the machinery stays uniform.
ENGINE_RULE = "LINT"


def default_root() -> str:
    """The installed ``repro`` package directory."""
    return os.path.dirname(os.path.abspath(repro.__file__))


def default_baseline(root: str) -> str | None:
    """The committed baseline path, for the default root only.

    The repo keeps ``lint-baseline.json`` at the repository top level
    (two levels above ``src/repro``).  For an explicit ``--root`` —
    fixture trees in tests — there is no implied baseline; pass
    ``--baseline`` if one is wanted.
    """
    package_root = default_root()
    if os.path.abspath(root) != package_root:
        return None
    src_dir = os.path.dirname(package_root)
    if os.path.basename(src_dir) != "src":  # pragma: no cover - layout
        # guard for unusual installs; the repo always uses src/repro.
        return None
    return os.path.join(os.path.dirname(src_dir), "lint-baseline.json")


def iter_python_files(root: str) -> list[tuple[str, str]]:
    """``(absolute, package-relative posix)`` pairs, sorted by relpath."""
    pairs: list[tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            absolute = os.path.join(dirpath, filename)
            rel = os.path.relpath(absolute, root).replace(os.sep, "/")
            pairs.append((absolute, rel))
    return sorted(pairs, key=lambda pair: pair[1])


def lint_file(
    absolute: str,
    relpath: str,
    rules: list[FileRule],
    known_rules: set[str],
) -> tuple[list[Finding], int]:
    """Lint one file; returns (findings, suppressed_count)."""
    with open(absolute, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule=ENGINE_RULE,
                    message=f"syntax error: {exc.msg}",
                    detail="syntax error",
                )
            ],
            0,
        )
    suppressions = scan_suppressions(source, known_rules)
    findings: list[Finding] = [
        Finding(
            path=relpath,
            line=line,
            col=1,
            rule=ENGINE_RULE,
            message=(
                f"suppression names unknown rule {rule!r}; known rules: "
                f"{', '.join(sorted(known_rules))}"
            ),
            detail=f"unknown suppressed rule {rule}",
        )
        for line, rule in suppressions.unknown
    ]
    suppressed = 0
    context = FileContext(path=relpath, tree=tree, source=source)
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for finding in rule.check_file(context):
            if suppressions.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def collect_findings(root: str) -> tuple[list[Finding], int]:
    """All findings for a tree; returns (findings, suppressed_count)."""
    all_rules = get_rules()
    file_rules = [r for r in all_rules if isinstance(r, FileRule)]
    project_rules = [r for r in all_rules if isinstance(r, ProjectRule)]
    known = {rule.rule_id for rule in all_rules} | {ENGINE_RULE}
    findings: list[Finding] = []
    suppressed_total = 0
    for absolute, relpath in iter_python_files(root):
        file_findings, suppressed = lint_file(
            absolute, relpath, file_rules, known
        )
        findings.extend(file_findings)
        suppressed_total += suppressed
    for rule in project_rules:
        findings.extend(rule.check_project(root))
    return sort_findings(findings), suppressed_total


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint flags on ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "--root",
        default=None,
        help="directory tree to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline file of grandfathered findings (default: the repo's "
            "lint-baseline.json when linting the installed package; none "
            "for an explicit --root)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline and report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to cover the current findings (carries "
            "existing justifications; new entries get a TODO placeholder)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def run_lint(args: argparse.Namespace, out=None) -> int:
    """Execute the lint per parsed ``args``; returns the exit code."""
    out = out if out is not None else sys.stdout
    if args.list_rules:
        for rule in get_rules():
            print(f"{rule.rule_id}: {rule.description}", file=out)
        print(
            f"{ENGINE_RULE}: engine diagnostics (syntax errors, unknown "
            "suppressions)",
            file=out,
        )
        return 0

    root = os.path.abspath(args.root) if args.root else default_root()
    if not os.path.isdir(root):
        print(f"repro lint: not a directory: {root}", file=sys.stderr)
        return 2
    baseline_path = args.baseline or default_baseline(root)
    if (
        args.baseline
        and not args.write_baseline
        and not args.no_baseline
        and not os.path.exists(args.baseline)
    ):
        # A mistyped path must not pass for an empty baseline.
        print(
            f"repro lint: baseline {args.baseline!r} does not exist",
            file=sys.stderr,
        )
        return 2

    findings, suppressed = collect_findings(root)

    if args.write_baseline:
        if baseline_path is None:
            print(
                "repro lint: --write-baseline needs --baseline (or the "
                "default package root)",
                file=sys.stderr,
            )
            return 2
        try:
            previous = load_baseline(baseline_path)
        except BaselineError:
            previous = []  # a broken baseline is simply regenerated
        entries = write_baseline(baseline_path, findings, previous)
        todo = sum(
            1 for e in entries if e.justification == PLACEHOLDER_JUSTIFICATION
        )
        print(
            f"wrote {len(entries)} baseline entr"
            f"{'y' if len(entries) == 1 else 'ies'} to {baseline_path}"
            + (f" ({todo} with TODO justifications to fill in)" if todo else ""),
            file=out,
        )
        return 0

    if args.no_baseline or baseline_path is None:
        entries = []
    else:
        try:
            entries = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    placeholders = [
        entry
        for entry in entries
        if entry.justification == PLACEHOLDER_JUSTIFICATION
    ]
    active, baselined, stale = apply_baseline(findings, entries)

    for finding in active:
        print(finding.render(), file=out)
    for entry in stale:
        print(
            f"stale baseline entry (fixed? delete it): "
            f"rule={entry.rule} path={entry.path} detail={entry.detail!r}",
            file=out,
        )
    for entry in placeholders:
        print(
            f"baseline entry without a real justification: "
            f"rule={entry.rule} path={entry.path} detail={entry.detail!r}",
            file=out,
        )

    failed = bool(active or stale or placeholders)
    summary = (
        f"{len(active)} finding{'s' if len(active) != 1 else ''}, "
        f"{len(baselined)} baselined, {suppressed} suppressed, "
        f"{len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}"
    )
    print(("FAILED: " if failed else "ok: ") + summary, file=out)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "static determinism & contract checks over the repro package"
        ),
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args)
