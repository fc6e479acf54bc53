"""Make the repository root importable so ``tools.reprolint`` resolves,
and ``benchmarks/`` so the benchmark harness and regression gate do.

The library tests run with ``PYTHONPATH=src``; the linter lives next to
``src`` at the repository root, and the benchmark scripts import the
harness as a sibling module, so these tests add both explicitly.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
for path in (REPO_ROOT, REPO_ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
