"""R6 — bench-schema: committed benchmark reports and the scripts that emit
them must stay in sync with the CI regression gate.

``benchmarks/check_bench_regression.py`` is the CI gate: it dispatches on
a report's ``"kind"`` and enforces identity flags, speedup floors and
acceptance flags per kind.  The gate *silently un-arms* when a key is
renamed on either side — ``committed.get("delta_speedup_met")`` of a
report that spells it ``delta_ok`` is just ``None`` and the check
degrades to a no-op.  This rule makes that a lint failure instead:

1. **Gate registry extraction.**  The per-kind comparator functions are
   read from the gate's AST: every string key read off the ``fresh`` /
   ``committed`` dicts, every flag tuple passed to ``_check_flags``, and
   the flag/target tuples iterated by the engine-kernel tail become that
   kind's *required keys*.
2. **Committed reports.**  Every ``BENCH_*.json`` at the repository root
   must parse, carry a known ``kind`` (missing = engine-kernel), and
   contain every required key of its kind.  Reports with a ``methods``
   table must have a non-empty one whose rows carry the per-method keys.
3. **Emitting scripts.**  For ``BENCH_<name>.json`` the sibling
   ``benchmarks/bench_<name>.py`` must mention every required key as a
   string literal — renaming an emitted flag in the script without
   updating the gate (or vice versa) fails here, before a regenerated
   report ever reaches CI.

Code: ``R6-bench-schema``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from tools.reprolint.findings import Finding
from tools.reprolint.rules.base import ProjectRule

GATE_RELPATH = Path("benchmarks") / "check_bench_regression.py"

#: the kind the gate assumes when a report carries no "kind" field.
DEFAULT_KIND = "engine_kernel"


class GateRegistry:
    """Per-kind required keys extracted from the regression gate's AST."""

    def __init__(
        self,
        top_level: Dict[str, Set[str]],
        nested: Dict[str, Set[str]],
    ) -> None:
        #: kind -> keys required at the top level of the report
        self.top_level = top_level
        #: kind -> keys required in every row of the report's "methods" table
        self.nested = nested

    @property
    def kinds(self) -> Set[str]:
        return set(self.top_level)


def extract_gate_registry(gate_path: Path) -> GateRegistry:
    """Parse the regression gate and derive each kind's required keys."""
    tree = ast.parse(gate_path.read_text(encoding="utf-8"))
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    compare = functions.get("compare")
    if compare is None:
        raise ValueError(f"{gate_path} has no compare() dispatcher")

    # dispatch table: `if committed.get("kind") == "X": return compare_Y(...)`
    kind_to_function: Dict[str, Optional[str]] = {}
    for statement in compare.body:
        if not isinstance(statement, ast.If):
            continue
        kind = _dispatched_kind(statement.test)
        if kind is None:
            continue
        for inner in statement.body:
            if isinstance(inner, ast.Return) and isinstance(inner.value, ast.Call):
                callee = inner.value.func
                if isinstance(callee, ast.Name):
                    kind_to_function[kind] = callee.id

    top_level: Dict[str, Set[str]] = {}
    nested: Dict[str, Set[str]] = {}
    for kind, function_name in kind_to_function.items():
        function = functions.get(function_name)
        if function is None:
            continue
        keys, row_keys = _required_keys(function)
        top_level[kind] = keys
        nested[kind] = row_keys
    # the dispatcher's own tail is the default (engine-kernel) comparator
    keys, row_keys = _required_keys(compare)
    keys.discard("kind")
    top_level[DEFAULT_KIND] = keys
    nested[DEFAULT_KIND] = row_keys
    return GateRegistry(top_level, nested)


def _dispatched_kind(test: ast.expr) -> Optional[str]:
    """``committed.get("kind") == "X"`` -> ``"X"``."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
    ):
        return None
    left, right = test.left, test.comparators[0]
    for getter, constant in ((left, right), (right, left)):
        if (
            isinstance(getter, ast.Call)
            and isinstance(getter.func, ast.Attribute)
            and getter.func.attr == "get"
            and getter.args
            and isinstance(getter.args[0], ast.Constant)
            and getter.args[0].value == "kind"
            and isinstance(constant, ast.Constant)
            and isinstance(constant.value, str)
        ):
            return constant.value
    return None


def _required_keys(function: ast.FunctionDef) -> Tuple[Set[str], Set[str]]:
    """Collect ``(top-level keys, per-method-row keys)`` one comparator reads."""
    keys: Set[str] = set()
    row_keys: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            function_expr = node.func
            # fresh.get("k") / committed.get("k") / *_row.get("k")
            if (
                isinstance(function_expr, ast.Attribute)
                and function_expr.attr == "get"
                and isinstance(function_expr.value, ast.Name)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                receiver = function_expr.value.id
                key = node.args[0].value
                if receiver in ("fresh", "committed"):
                    keys.add(key)
                elif receiver.endswith("_row"):
                    row_keys.add(key)
            # _check_flags(fresh, committed, ("flag_a", "flag_b"))
            if (
                isinstance(function_expr, ast.Name)
                and function_expr.id == "_check_flags"
                and len(node.args) >= 3
                and isinstance(node.args[2], (ast.Tuple, ast.List))
            ):
                for element in node.args[2].elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        keys.add(element.value)
        elif isinstance(node, ast.For) and isinstance(
            node.iter, (ast.Tuple, ast.List)
        ):
            # for flag, target_key in (("a_met", "a_target"), ...):
            for element in ast.walk(node.iter):
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    keys.add(element.value)
    return keys, row_keys


def _string_literals(tree: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


class BenchSchemaRule(ProjectRule):
    family = "R6"
    name = "bench-schema"
    description = (
        "committed BENCH_*.json reports and emitting scripts carry every "
        "key the CI regression gate reads"
    )

    def check_project(self, root: Path) -> List[Finding]:
        findings: List[Finding] = []
        gate_path = root / GATE_RELPATH
        if not gate_path.exists():
            return []
        try:
            registry = extract_gate_registry(gate_path)
        except (ValueError, SyntaxError) as error:
            return [
                Finding(
                    "R6-bench-schema",
                    str(gate_path),
                    1,
                    0,
                    f"could not extract the gate registry: {error}",
                )
            ]

        for report_path in sorted(root.glob("BENCH_*.json")):
            findings.extend(self._check_report(root, report_path, registry))
        return findings

    def _check_report(
        self, root: Path, report_path: Path, registry: GateRegistry
    ) -> List[Finding]:
        findings: List[Finding] = []
        relative = str(report_path.relative_to(root))
        try:
            payload = json.loads(report_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError) as error:
            return [
                Finding(
                    "R6-bench-schema", relative, 1, 0, f"unreadable report: {error}"
                )
            ]
        if not isinstance(payload, dict):
            return [
                Finding(
                    "R6-bench-schema",
                    relative,
                    1,
                    0,
                    "report must be a JSON object",
                )
            ]
        kind = payload.get("kind", DEFAULT_KIND)
        if kind not in registry.kinds:
            return [
                Finding(
                    "R6-bench-schema",
                    relative,
                    1,
                    0,
                    f"unknown report kind {kind!r}; the gate dispatches on "
                    f"{sorted(registry.kinds)} — an unrecognised kind would "
                    "be checked as engine-kernel and silently pass",
                )
            ]
        required = registry.top_level[kind]
        for key in sorted(required - set(payload)):
            findings.append(
                Finding(
                    "R6-bench-schema",
                    relative,
                    1,
                    0,
                    f"missing key {key!r} read by the {kind} gate — the "
                    "corresponding CI check is un-armed",
                )
            )
        row_keys = registry.nested.get(kind, set())
        if "methods" in required:
            methods = payload.get("methods")
            if not isinstance(methods, dict) or not methods:
                findings.append(
                    Finding(
                        "R6-bench-schema",
                        relative,
                        1,
                        0,
                        f"{kind} report needs a non-empty 'methods' table",
                    )
                )
            else:
                for method, row in sorted(methods.items()):
                    if not isinstance(row, dict):
                        continue
                    for key in sorted(row_keys - set(row)):
                        findings.append(
                            Finding(
                                "R6-bench-schema",
                                relative,
                                1,
                                0,
                                f"methods[{method!r}] misses {key!r} read by "
                                "the gate",
                            )
                        )

        # the emitting script must spell every gate key literally
        script_path = (
            root
            / "benchmarks"
            / report_path.name.replace("BENCH_", "bench_").replace(".json", ".py")
        )
        if script_path.exists():
            try:
                literals = _string_literals(
                    ast.parse(script_path.read_text(encoding="utf-8"))
                )
            except SyntaxError as error:
                return findings + [
                    Finding(
                        "R6-bench-schema",
                        str(script_path.relative_to(root)),
                        getattr(error, "lineno", 1) or 1,
                        0,
                        f"unparseable benchmark script: {error.msg}",
                    )
                ]
            for key in sorted((required | row_keys) - literals):
                findings.append(
                    Finding(
                        "R6-bench-schema",
                        str(script_path.relative_to(root)),
                        1,
                        0,
                        f"script never emits gate key {key!r} (its committed "
                        f"report {report_path.name} would drop it on the "
                        "next regeneration, un-arming that CI check)",
                    )
                )
        return findings
