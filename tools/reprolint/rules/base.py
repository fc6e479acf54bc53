"""Rule interfaces.

A :class:`Rule` checks one module at a time from its AST; a
:class:`ProjectRule` additionally (or instead) checks repository-level
artifacts once per run — R6 validates committed benchmark reports against
the benchmark harness's report schema, which no library module contains.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from tools.reprolint.context import ModuleContext
from tools.reprolint.findings import Finding


class Rule:
    """One rule family (``family``, e.g. ``"R3"``) with a short name."""

    family: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        return []


class ProjectRule(Rule):
    """A rule that also runs once against the repository root."""

    def check_project(self, root: Path) -> List[Finding]:
        return []
