"""R4 — pickle-safety: nothing unpicklable crosses the process pool.

Anything handed to a ``ProcessPoolExecutor`` is pickled into its workers.
The library's own paths are serial or threaded, but its problems, indexes
and states stay picklable, and any process pool that ships them must obey
this rule.  Lambdas, functions defined inside another function (closures),
and local classes cannot be pickled — the failure surfaces at runtime, as
a ``PicklingError`` deep inside ``concurrent.futures``.

The rule finds every name bound to ``ProcessPoolExecutor(...)``
(assignments and ``with ... as`` aliases) and flags:

* a ``lambda`` passed to ``.submit(...)`` / ``.map(...)`` of such a name,
* a function or class *defined inside a function* passed there,
* a ``functools.partial`` over either of those,
* a ``lambda`` / local function as the pool's ``initializer=`` or inside
  ``initargs=``.

Thread pools are exempt — threads share the address space and never
pickle.  Module-level functions (and methods) are picklable by reference
and stay clean.

Code: ``R4-unpicklable-task``.
"""

from __future__ import annotations

import ast
from typing import List, Set

from tools.reprolint.context import ModuleContext
from tools.reprolint.findings import Finding
from tools.reprolint.rules.base import Rule

_POOL_NAMES = ("ProcessPoolExecutor",)


def _is_process_pool_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    function = node.func
    if isinstance(function, ast.Name):
        return function.id in _POOL_NAMES
    if isinstance(function, ast.Attribute):
        return function.attr in _POOL_NAMES
    return False


def _function_local_definitions(tree: ast.Module) -> Set[str]:
    """Names of functions/classes defined *inside* a function anywhere in
    the module — exactly the definitions pickle cannot reach by reference."""
    local: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if inner is node:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                local.add(inner.name)
    return local


def _pool_names(tree: ast.Module) -> Set[str]:
    pools: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_process_pool_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    pools.add(target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_process_pool_call(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    pools.add(item.optional_vars.id)
    return pools


class PickleSafetyRule(Rule):
    family = "R4"
    name = "pickle-safety"
    description = (
        "lambdas/closures/local classes must not be submitted to a "
        "ProcessPoolExecutor"
    )

    def check_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        local_definitions = _function_local_definitions(ctx.tree)
        pools = _pool_names(ctx.tree)

        def describe(node: ast.expr) -> str:
            if isinstance(node, ast.Lambda):
                return "a lambda"
            if isinstance(node, ast.Name) and node.id in local_definitions:
                return f"function-local definition {node.id!r}"
            if isinstance(node, ast.Call):
                function = node.func
                partial = (
                    isinstance(function, ast.Name) and function.id == "partial"
                ) or (
                    isinstance(function, ast.Attribute)
                    and function.attr == "partial"
                )
                if partial and node.args:
                    inner = describe(node.args[0])
                    if inner:
                        return f"functools.partial over {inner}"
            return ""

        def flag(node: ast.AST, what: str, where: str) -> None:
            findings.append(
                Finding(
                    "R4-unpicklable-task",
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    f"{what} passed to {where} cannot be pickled into a "
                    "worker process; move it to module level",
                )
            )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_process_pool_call(node):
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        what = describe(keyword.value)
                        if what:
                            flag(
                                keyword.value,
                                what,
                                "ProcessPoolExecutor(initializer=)",
                            )
                    elif keyword.arg == "initargs" and isinstance(
                        keyword.value, (ast.Tuple, ast.List)
                    ):
                        for element in keyword.value.elts:
                            what = describe(element)
                            if what:
                                flag(element, what, "ProcessPoolExecutor(initargs=)")
                continue
            function = node.func
            if (
                isinstance(function, ast.Attribute)
                and function.attr in ("submit", "map")
                and isinstance(function.value, ast.Name)
                and function.value.id in pools
            ):
                for arg in node.args[:1]:
                    what = describe(arg)
                    if what:
                        flag(arg, what, f"ProcessPoolExecutor.{function.attr}()")
        return findings
