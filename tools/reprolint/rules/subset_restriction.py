"""R8 — subset-restriction: service code never assembles an index itself.

Subset sub-sessions are only correct because of one construction
invariant: every index in the service layer covers instances enumerated on
a phase-1 graph with *all* session targets hidden.  Two entry points
embody it — :meth:`TargetSubgraphIndex.restricted_to` (the subset path: it
slices a built index's per-target blocks, so nothing is re-enumerated at
all) and :meth:`ProtectionService.for_filtered_targets`, its enumerating
reference, which filters targets *before* enumeration and routes through
``TPPProblem``.  A service module that calls ``TargetSubgraphIndex(...)``
directly can silently enumerate a differently-filtered graph, and one that
feeds the private assembly hooks ``TargetSubgraphIndex._from_buffers`` /
``TargetSubgraphIndex._restore`` hand-made buffers skips every check those
entry points make — either breaks the bit-identity that
``tests/property/test_subset_restriction_differential.py`` pins between the
two entry points, in a way no single test would localise.  So the lint
forbids the constructor and the private hooks everywhere in
``repro/service/``.

Codes: ``R8-direct-index``, ``R8-private-index-hook``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.reprolint.context import ModuleContext
from tools.reprolint.findings import Finding
from tools.reprolint.rules.base import Rule

#: path fragment marking the service layer the rule polices.
_SERVICE_PACKAGE_FRAGMENT = "repro/service/"

#: TargetSubgraphIndex's private assembly hooks (delta splices, snapshot
#: restores); service code reaches them only through the public factories.
_PRIVATE_HOOKS = ("_from_buffers", "_restore")


def _in_service_package(ctx: ModuleContext) -> bool:
    return _SERVICE_PACKAGE_FRAGMENT in ctx.relpath.replace("\\", "/")


def _constructs_index(call: ast.Call) -> bool:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id == "TargetSubgraphIndex"
    if isinstance(function, ast.Attribute):
        return function.attr == "TargetSubgraphIndex"
    return False


def _private_hook(call: ast.Call) -> Optional[str]:
    """The hook name if ``call`` is ``TargetSubgraphIndex._from_buffers`` /
    ``_restore`` (also through a module attribute), else ``None``."""
    function = call.func
    if not isinstance(function, ast.Attribute) or function.attr not in _PRIVATE_HOOKS:
        return None
    owner = function.value
    if isinstance(owner, ast.Name) and owner.id == "TargetSubgraphIndex":
        return function.attr
    if isinstance(owner, ast.Attribute) and owner.attr == "TargetSubgraphIndex":
        return function.attr
    return None


class SubsetRestrictionRule(Rule):
    family = "R8"
    name = "subset-restriction"
    description = (
        "service code never constructs TargetSubgraphIndex directly or "
        "through its private assembly hooks; indexes come from TPPProblem "
        "(targets filtered before enumeration) or restrict a built index"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        if not _in_service_package(ctx):
            return findings
        _check_scope(ctx.tree, None, ctx, findings)
        return findings


def _check_scope(
    scope: ast.AST,
    enclosing: Optional[str],
    ctx: ModuleContext,
    findings: List[Finding],
) -> None:
    """Walk ``scope`` tracking the innermost enclosing function name."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_scope(node, node.name, ctx, findings)
            continue
        if isinstance(node, ast.ClassDef):
            _check_scope(node, enclosing, ctx, findings)
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            hook = _private_hook(call)
            if hook is not None:
                findings.append(
                    Finding(
                        "R8-private-index-hook",
                        ctx.path,
                        call.lineno,
                        call.col_offset,
                        f"TargetSubgraphIndex.{hook} called from service code "
                        f"(enclosing function {enclosing or '<module>'!r}); "
                        "derive indexes through TargetSubgraphIndex."
                        "restricted_to or the existing factories",
                    )
                )
                continue
            if not _constructs_index(call):
                continue
            findings.append(
                Finding(
                    "R8-direct-index",
                    ctx.path,
                    call.lineno,
                    call.col_offset,
                    "direct TargetSubgraphIndex construction in service "
                    f"code (enclosing function {enclosing or '<module>'!r}); "
                    "build indexes through TPPProblem / "
                    "ProtectionService.for_filtered_targets, or restrict a "
                    "built one with TargetSubgraphIndex.restricted_to",
                )
            )
