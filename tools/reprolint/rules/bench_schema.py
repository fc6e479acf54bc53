"""R6 — bench-schema: every committed benchmark report follows the one
report schema that the CI regression gate reads.

``benchmarks/check_bench_regression.py`` gates a fresh report on the
committed one: every identity flag true, the same instance, every cell at
or under its committed ``ceiling_us``.  A committed report that drifts
from the schema — an unknown ``kind``, a cell without a ceiling, a
missing identity map — would leave that gate with nothing to hold a fresh
run to.  This rule runs the schema validator of ``benchmarks/harness.py``
(loaded from the linted project, so rule and gate never disagree) over
every ``BENCH_*.json`` at the repository root, and reports each problem.

Code: ``R6-bench-schema``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Callable, List

from tools.reprolint.findings import Finding
from tools.reprolint.rules.base import ProjectRule

HARNESS_RELPATH = Path("benchmarks") / "harness.py"


def load_validator(harness_path: Path) -> Callable[[object], List[str]]:
    """Import ``validate`` from a project's benchmark harness file."""
    spec = importlib.util.spec_from_file_location("_bench_harness", harness_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.validate


class BenchSchemaRule(ProjectRule):
    family = "R6"
    name = "bench-schema"
    description = (
        "committed BENCH_*.json reports follow the benchmark harness's "
        "report schema"
    )

    def check_project(self, root: Path) -> List[Finding]:
        harness_path = root / HARNESS_RELPATH
        if not harness_path.exists():
            return []
        validate = load_validator(harness_path)
        findings: List[Finding] = []
        for report_path in sorted(root.glob("BENCH_*.json")):
            relative = str(report_path.relative_to(root))
            try:
                payload = json.loads(report_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError) as error:
                problems = [f"unreadable report: {error}"]
            else:
                problems = validate(payload)
            findings.extend(
                Finding("R6-bench-schema", relative, 1, 0, problem)
                for problem in problems
            )
        return findings
