"""reprolint driver: file discovery, rule execution, suppression, output.

Usage::

    python -m tools.reprolint src/repro                # human output
    python -m tools.reprolint src/repro --format json  # machine output
    python -m tools.reprolint --list-rules

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from tools.reprolint.context import ModuleContext
from tools.reprolint.directives import parse_directives
from tools.reprolint.findings import Finding, LintStats
from tools.reprolint.rules import ALL_RULES, ProjectRule, Rule


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand the given files/directories into a sorted list of .py files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def find_project_root(paths: Sequence[str]) -> Optional[Path]:
    """Walk up from the first path to the directory holding pyproject.toml."""
    if not paths:
        return None
    start = Path(paths[0]).resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


def _selected_rules(
    select: Optional[Sequence[str]], disable: Optional[Sequence[str]]
) -> List[Rule]:
    rules = list(ALL_RULES)
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.family in wanted]
    if disable:
        unwanted = set(disable)
        rules = [rule for rule in rules if rule.family not in unwanted]
    return rules


def lint_source(
    source: str,
    path: str = "<snippet>",
    rules: Optional[Sequence[Rule]] = None,
    relpath: Optional[str] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Lint one in-memory module; returns ``(findings, suppressed)``.

    Directive errors (``R0-suppression``) are always findings and are
    never themselves suppressible.  This is the entry point the fixture
    tests drive.
    """
    directives = parse_directives(source, path)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return (
            [
                Finding(
                    "R0-parse",
                    path,
                    getattr(error, "lineno", 1) or 1,
                    (getattr(error, "offset", 1) or 1) - 1,
                    f"syntax error: {error.msg}",
                )
            ],
            [],
        )
    ctx = ModuleContext(
        path=path,
        source=source,
        tree=tree,
        directives=directives,
        relpath=relpath if relpath is not None else path,
    )
    raw: List[Finding] = []
    for rule in rules if rules is not None else ALL_RULES:
        raw.extend(rule.check_module(ctx))

    findings: List[Finding] = list(directives.errors)
    suppressed: List[Finding] = []
    for finding in raw:
        if directives.suppression_for(finding) is not None:
            suppressed.append(finding)
        else:
            findings.append(finding)
    return findings, suppressed


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    project_root: Optional[Path] = None,
) -> Tuple[List[Finding], LintStats]:
    """Lint files/directories plus the project-level rules once."""
    active = list(rules) if rules is not None else list(ALL_RULES)
    stats = LintStats()
    findings: List[Finding] = []

    root = project_root if project_root is not None else find_project_root(paths)
    for file_path in discover_files(paths):
        stats.files += 1
        relpath = str(file_path)
        if root is not None:
            try:
                relpath = str(file_path.resolve().relative_to(root))
            except ValueError:
                pass
        module_findings, suppressed = lint_source(
            file_path.read_text(encoding="utf-8"),
            path=str(file_path),
            rules=active,
            relpath=relpath,
        )
        findings.extend(module_findings)
        stats.suppressed += len(suppressed)

    if root is not None:
        for rule in active:
            if isinstance(rule, ProjectRule):
                findings.extend(rule.check_project(root))

    findings.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    for finding in findings:
        stats.count(finding)
    return findings, stats


def _render_human(findings: Iterable[Finding], stats: LintStats) -> str:
    lines = [finding.render() for finding in findings]
    summary = (
        f"reprolint: {stats.findings} finding(s) in {stats.files} file(s)"
        f" ({stats.suppressed} suppressed)"
    )
    if stats.by_rule:
        summary += "  [" + ", ".join(
            f"{rule}: {count}" for rule, count in sorted(stats.by_rule.items())
        ) + "]"
    return "\n".join(lines + [summary])


def _render_json(findings: Iterable[Finding], stats: LintStats) -> str:
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "files": stats.files,
            "suppressed": stats.suppressed,
            "by_rule": dict(sorted(stats.by_rule.items())),
        },
        indent=2,
        sort_keys=False,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=(
            "Repo-specific static analysis: determinism (R1), numpy "
            "boundaries (R2), lock discipline (R3), exception taxonomy (R5), "
            "benchmark-gate schema (R6), native boundary (R7), subset "
            "restriction (R8)."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="FAMILY",
        help="only run these rule families (repeatable, e.g. --select R1)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        metavar="FAMILY",
        help="skip these rule families (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.family:>3}  {rule.name:<20} {rule.description}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2
    rules = _selected_rules(args.select, args.disable)
    findings, stats = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(_render_json(findings, stats))
    else:
        print(_render_human(findings, stats))
    return 1 if findings else 0
