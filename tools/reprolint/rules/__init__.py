"""Rule registry: every rule family reprolint ships."""

from __future__ import annotations

from typing import Dict, List

from tools.reprolint.rules.base import ProjectRule, Rule
from tools.reprolint.rules.bench_schema import BenchSchemaRule
from tools.reprolint.rules.determinism import DeterminismRule
from tools.reprolint.rules.exception_taxonomy import ExceptionTaxonomyRule
from tools.reprolint.rules.lock_discipline import LockDisciplineRule
from tools.reprolint.rules.native_boundary import NativeBoundaryRule
from tools.reprolint.rules.numpy_boundary import NumpyBoundaryRule
from tools.reprolint.rules.subset_restriction import SubsetRestrictionRule

__all__ = ["ALL_RULES", "RULES_BY_FAMILY", "ProjectRule", "Rule"]

#: Every shipped rule, in family order.
ALL_RULES: List[Rule] = [
    DeterminismRule(),
    NumpyBoundaryRule(),
    LockDisciplineRule(),
    ExceptionTaxonomyRule(),
    BenchSchemaRule(),
    NativeBoundaryRule(),
    SubsetRestrictionRule(),
]

RULES_BY_FAMILY: Dict[str, Rule] = {rule.family: rule for rule in ALL_RULES}
