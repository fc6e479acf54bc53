"""Tests for the reprolint static-analysis suite.

Every rule family gets three fixtures: a snippet it must flag, a clean
variant it must not, and a suppressed variant (with a reason) it must
absorb.  A suppression *without* a reason is itself a finding, and the
whole library must lint clean — that last test is the one that keeps
``python -m tools.reprolint src/repro`` green in CI.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

import harness
from tools.reprolint import ALL_RULES, RULES_BY_FAMILY, lint_paths, lint_source
from tools.reprolint.driver import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(source: str, family: str, relpath: str = "mod.py"):
    """Lint a dedented snippet with a single rule family."""
    findings, suppressed = lint_source(
        textwrap.dedent(source),
        path=relpath,
        rules=[RULES_BY_FAMILY[family]],
        relpath=relpath,
    )
    return findings, suppressed


def codes(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# R1 — determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    FLAGGED = """
        from typing import Set, Tuple

        def order(edges: Set[Tuple[int, int]]):
            result = []
            for edge in edges:
                result.append(edge)
            return result
        """

    def test_set_iteration_flagged(self):
        findings, _ = lint(self.FLAGGED, "R1")
        assert codes(findings) == ["R1-set-iteration"]

    def test_sorted_iteration_clean(self):
        findings, _ = lint(
            """
            from typing import Set, Tuple

            def order(edges: Set[Tuple[int, int]]):
                result = []
                for edge in sorted(edges):
                    result.append(edge)
                return result
            """,
            "R1",
        )
        assert findings == []

    def test_order_insensitive_consumers_clean(self):
        findings, _ = lint(
            """
            def summarise(edges: set):
                return len(edges), min(edges), sorted(edges), set(edges)
            """,
            "R1",
        )
        assert findings == []

    def test_float_sum_over_set_flagged(self):
        # float addition is not associative: a sum over hash order is not
        # bit-identical across runs
        findings, _ = lint(
            """
            def total(weights: set):
                return sum(weights)
            """,
            "R1",
        )
        assert codes(findings) == ["R1-set-iteration"]

    def test_suppression_with_reason_absorbs(self):
        findings, suppressed = lint(
            """
            from typing import Set

            def collect(edges: Set[int]):
                out = set()
                # reprolint: disable=R1-set-iteration(only accumulates into a set; order-insensitive)
                for edge in edges:
                    out.add(edge)
                return out
            """,
            "R1",
        )
        assert findings == []
        assert codes(suppressed) == ["R1-set-iteration"]

    def test_unseeded_global_random_flagged(self):
        findings, _ = lint(
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            "R1",
        )
        assert codes(findings) == ["R1-unseeded-random"]

    def test_seeded_rng_clean(self):
        findings, _ = lint(
            """
            import random

            def pick(items, seed):
                rng = random.Random(seed)
                return rng.choice(items)
            """,
            "R1",
        )
        assert findings == []

    def test_datasets_modules_may_draw_entropy(self):
        findings, _ = lint(
            """
            import random

            def sample(items):
                return random.choice(items)
            """,
            "R1",
            relpath="src/repro/datasets/loader.py",
        )
        assert findings == []

    def test_set_pop_flagged(self):
        findings, _ = lint(
            """
            def take(edges: set):
                return edges.pop()
            """,
            "R1",
        )
        assert codes(findings) == ["R1-set-pop"]

    def test_disabled_family_reports_nothing(self):
        findings, suppressed = lint_source(textwrap.dedent(self.FLAGGED), rules=[])
        assert findings == []
        assert suppressed == []


# ----------------------------------------------------------------------
# R2 — numpy boundary
# ----------------------------------------------------------------------
class TestNumpyBoundaryRule:
    FLAGGED = """
        import numpy as np

        __all__ = ["total"]

        def total(values):
            arr = np.asarray(values)
            return arr.sum()
        """

    def test_numpy_scalar_return_flagged(self):
        findings, _ = lint(self.FLAGGED, "R2")
        assert codes(findings) == ["R2-numpy-return"]

    def test_int_conversion_clean(self):
        findings, _ = lint(
            """
            import numpy as np

            __all__ = ["total"]

            def total(values):
                arr = np.asarray(values)
                return int(arr.sum())
            """,
            "R2",
        )
        assert findings == []

    def test_module_without_public_surface_ignored(self):
        source = self.FLAGGED.replace('__all__ = ["total"]', "")
        findings, _ = lint(source, "R2")
        assert findings == []

    def test_scalar_inside_dict_flagged(self):
        findings, _ = lint(
            """
            import numpy as np

            __all__ = ["stats"]

            def stats(values):
                arr = np.asarray(values)
                return {"max": arr.max(), "n": len(values)}
            """,
            "R2",
        )
        assert codes(findings) == ["R2-numpy-return"]

    def test_suppression_with_reason_absorbs(self):
        findings, suppressed = lint(
            """
            import numpy as np

            __all__ = ["total"]

            def total(values):
                arr = np.asarray(values)
                # reprolint: disable=R2-numpy-return(caller converts; hot path avoids boxing)
                return arr.sum()
            """,
            "R2",
        )
        assert findings == []
        assert codes(suppressed) == ["R2-numpy-return"]


# ----------------------------------------------------------------------
# R3 — lock discipline
# ----------------------------------------------------------------------
class TestLockDisciplineRule:
    FLAGGED = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0  # reprolint: guarded-by(_lock)

            def bump(self):
                self._count += 1
        """

    def test_unlocked_write_flagged(self):
        findings, _ = lint(self.FLAGGED, "R3")
        assert codes(findings) == ["R3-unlocked-write"]

    def test_locked_write_clean(self):
        findings, _ = lint(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # reprolint: guarded-by(_lock)

                def bump(self):
                    with self._lock:
                        self._count += 1
            """,
            "R3",
        )
        assert findings == []

    def test_standalone_guard_covers_multiline_assignment(self):
        findings, _ = lint(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    # reprolint: guarded-by(_lock)
                    self._index = build(
                        big=True,
                    )

                def swap(self):
                    self._index = build()
            """,
            "R3",
        )
        assert codes(findings) == ["R3-unlocked-write"]

    def test_wrong_lock_flagged(self):
        findings, _ = lint(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()
                    self._count = 0  # reprolint: guarded-by(_lock)

                def bump(self):
                    with self._other:
                        self._count += 1
            """,
            "R3",
        )
        assert codes(findings) == ["R3-unlocked-write"]

    def test_subscript_and_del_flagged(self):
        findings, _ = lint(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}  # reprolint: guarded-by(_lock)

                def poke(self, key):
                    self._cache[key] = 1
                    del self._cache[key]
            """,
            "R3",
        )
        assert codes(findings) == ["R3-unlocked-write", "R3-unlocked-write"]

    def test_suppression_with_reason_absorbs(self):
        findings, suppressed = lint(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # reprolint: guarded-by(_lock)

                def _bump_locked(self):
                    # reprolint: disable=R3-unlocked-write(only called from solve() which holds _lock)
                    self._count += 1
            """,
            "R3",
        )
        assert findings == []
        assert codes(suppressed) == ["R3-unlocked-write"]


# ----------------------------------------------------------------------
# R5 — exception taxonomy
# ----------------------------------------------------------------------
class TestExceptionTaxonomyRule:
    FLAGGED = """
        def check(value):
            if value < 0:
                raise ValueError(f"value must be >= 0, got {value}")
        """

    def test_bare_valueerror_flagged(self):
        findings, _ = lint(self.FLAGGED, "R5")
        assert codes(findings) == ["R5-untyped-raise"]

    def test_typed_exception_clean(self):
        findings, _ = lint(
            """
            from repro.exceptions import BudgetError

            def check(value):
                if value < 0:
                    raise BudgetError(f"value must be >= 0, got {value}")
            """,
            "R5",
        )
        assert findings == []

    def test_typeerror_is_a_programming_error_and_passes(self):
        findings, _ = lint(
            """
            def check(value):
                if not isinstance(value, int):
                    raise TypeError(f"need an int, got {type(value)}")
            """,
            "R5",
        )
        assert findings == []

    def test_reraise_clean(self):
        findings, _ = lint(
            """
            def forward():
                try:
                    work()
                except KeyError:
                    raise
            """,
            "R5",
        )
        assert findings == []

    def test_taxonomy_module_is_exempt(self):
        findings, _ = lint(
            self.FLAGGED, "R5", relpath="src/repro/exceptions.py"
        )
        assert findings == []

    def test_suppression_with_reason_absorbs(self):
        findings, suppressed = lint(
            """
            def check(value):
                if value < 0:
                    # reprolint: disable=R5-untyped-raise(scaffolding; replaced by typed error in the next PR)
                    raise ValueError(f"value must be >= 0, got {value}")
            """,
            "R5",
        )
        assert findings == []
        assert codes(suppressed) == ["R5-untyped-raise"]


# ----------------------------------------------------------------------
# R6 — bench schema (project-level, driven against a fake repo tree)
# ----------------------------------------------------------------------
def make_fake_project(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    (root / "benchmarks").mkdir(parents=True)
    (root / "pyproject.toml").write_text("[project]\nname='x'\n")
    shutil.copy(REPO_ROOT / "benchmarks" / "harness.py", root / "benchmarks")
    return root


def valid_report(**changes) -> dict:
    report = {
        "kind": "snapshot",
        "config": {"instance": {"nodes": 10}, "harness": {"repeats": 5}},
        "native_available": True,
        "identity": {"snapshots_identical": True},
        "cells": {"triangle load": {"us": 120.5, "ceiling_us": 300}},
    }
    report.update(changes)
    return report


class TestBenchSchemaRule:
    def run_rule(self, root: Path):
        return RULES_BY_FAMILY["R6"].check_project(root)

    def write_report(self, root: Path, report) -> None:
        (root / "BENCH_demo.json").write_text(json.dumps(report))

    def test_complete_report_clean(self, tmp_path):
        root = make_fake_project(tmp_path)
        self.write_report(root, valid_report())
        assert self.run_rule(root) == []

    def test_missing_gate_key_flagged(self, tmp_path):
        root = make_fake_project(tmp_path)
        report = valid_report()
        del report["identity"]
        self.write_report(root, report)
        findings = self.run_rule(root)
        assert codes(findings) == ["R6-bench-schema"]
        assert "identity" in findings[0].message

    def test_unknown_kind_flagged(self, tmp_path):
        root = make_fake_project(tmp_path)
        self.write_report(root, valid_report(kind="mystery"))
        findings = self.run_rule(root)
        assert codes(findings) == ["R6-bench-schema"]
        assert "mystery" in findings[0].message

    def test_cell_without_ceiling_flagged(self, tmp_path):
        root = make_fake_project(tmp_path)
        self.write_report(
            root, valid_report(cells={"triangle load": {"us": 120.5}})
        )
        findings = self.run_rule(root)
        assert codes(findings) == ["R6-bench-schema"]
        assert "ceiling_us" in findings[0].message

    def test_unreadable_report_flagged(self, tmp_path):
        root = make_fake_project(tmp_path)
        (root / "BENCH_demo.json").write_text("{not json")
        findings = self.run_rule(root)
        assert codes(findings) == ["R6-bench-schema"]

    def test_real_gate_registry_has_all_kinds(self):
        assert set(harness.KINDS) == {
            "engine_kernel",
            "index_build",
            "index_update",
            "snapshot",
        }
        # one committed report per kind, each clean under the schema
        reports = sorted(REPO_ROOT.glob("BENCH_*.json"))
        kinds = [json.loads(path.read_text())["kind"] for path in reports]
        assert sorted(kinds) == sorted(harness.KINDS)
        assert [path.name for path in reports] == sorted(
            f"BENCH_{kind}.json" for kind in kinds
        )
        assert self.run_rule(REPO_ROOT) == []


# ----------------------------------------------------------------------
# R7 — native-boundary
# ----------------------------------------------------------------------
class TestNativeBoundaryRule:
    def test_ctypes_import_outside_native_flagged(self):
        findings, _ = lint(
            """
            import ctypes

            def f():
                return ctypes.c_long(0)
            """,
            "R7",
            relpath="src/repro/motifs/coverage.py",
        )
        assert codes(findings) == ["R7-ctypes-import"]
        assert "repro._native" in findings[0].message

    def test_ctypes_from_import_flagged(self):
        findings, _ = lint(
            "from ctypes import c_long\n",
            "R7",
            relpath="src/repro/service/session.py",
        )
        assert codes(findings) == ["R7-ctypes-import"]

    def test_ctypes_inside_native_package_clean(self):
        findings, _ = lint(
            "import ctypes\n",
            "R7",
            relpath="src/repro/_native/build.py",
        )
        assert findings == []

    def test_ctypes_outside_repro_package_clean(self):
        findings, _ = lint(
            "import ctypes\n",
            "R7",
            relpath="tools/somewhere.py",
        )
        assert findings == []

    def test_undeclared_symbol_flagged(self):
        findings, _ = lint(
            """
            import ctypes

            def load(path):
                lib = ctypes.CDLL(path)
                kill = lib.repro_kill_instances
                kill.argtypes = [ctypes.c_void_p]
                return kill
            """,
            "R7",
            relpath="src/repro/_native/build.py",
        )
        assert codes(findings) == ["R7-undeclared-symbol"]
        assert "restype" in findings[0].message

    def test_fully_declared_symbol_clean(self):
        findings, _ = lint(
            """
            import ctypes

            def load(path):
                lib = ctypes.CDLL(path)
                kill = lib.repro_kill_instances
                kill.argtypes = [ctypes.c_void_p]
                kill.restype = ctypes.c_long
                return kill
            """,
            "R7",
            relpath="src/repro/_native/build.py",
        )
        assert findings == []

    def test_unguarded_native_call_flagged(self):
        findings, _ = lint(
            """
            class State:
                def delete_edge(self, edge_id):
                    return self._native.kill_instances(self._ctx, edge_id)
            """,
            "R7",
            relpath="src/repro/motifs/coverage.py",
        )
        assert codes(findings) == ["R7-unguarded-native-call"]

    def test_aliased_unguarded_call_flagged(self):
        findings, _ = lint(
            """
            class State:
                def walk(self):
                    native = self._native
                    return native.heap_pop(self._keys, self._ids, 3)
            """,
            "R7",
            relpath="src/repro/motifs/coverage.py",
        )
        assert codes(findings) == ["R7-unguarded-native-call"]

    def test_guarded_call_clean(self):
        findings, _ = lint(
            """
            class State:
                def delete_edge(self, edge_id):
                    if self._native is not None:
                        return self._native.kill_instances(self._ctx, edge_id)
                    return self._slow(edge_id)
            """,
            "R7",
            relpath="src/repro/motifs/coverage.py",
        )
        assert findings == []

    def test_dispatch_method_clean(self):
        findings, _ = lint(
            """
            class State:
                def _delete_edge_native(self, edge_id):
                    return self._native.kill_instances(self._ctx, edge_id)
            """,
            "R7",
            relpath="src/repro/motifs/coverage.py",
        )
        assert findings == []

    def test_suppression_with_reason_absorbs(self):
        findings, suppressed = lint(
            """
            import ctypes  # reprolint: disable=R7-ctypes-import(FFI demo script)
            """,
            "R7",
            relpath="src/repro/motifs/demo.py",
        )
        assert findings == []
        assert codes(suppressed) == ["R7-ctypes-import"]


# ----------------------------------------------------------------------
# R8 — subset restriction
# ----------------------------------------------------------------------
class TestSubsetRestrictionRule:
    def test_direct_construction_in_service_flagged(self):
        findings, _ = lint(
            """
            from repro.motifs.enumeration import TargetSubgraphIndex

            def open_session(graph, targets, motif):
                return TargetSubgraphIndex(graph, targets, motif)
            """,
            "R8",
            relpath="src/repro/service/service.py",
        )
        assert codes(findings) == ["R8-direct-index"]
        assert "for_filtered_targets" in findings[0].message

    def test_attribute_construction_flagged(self):
        findings, _ = lint(
            """
            import repro.motifs.enumeration as enumeration

            class Session:
                def build(self, graph, targets):
                    self._index = enumeration.TargetSubgraphIndex(
                        graph, targets, "triangle"
                    )
            """,
            "R8",
            relpath="src/repro/service/service.py",
        )
        assert codes(findings) == ["R8-direct-index"]
        assert "'build'" in findings[0].message

    def test_module_level_construction_flagged(self):
        findings, _ = lint(
            """
            from repro.motifs.enumeration import TargetSubgraphIndex

            INDEX = TargetSubgraphIndex(None, (), "triangle")
            """,
            "R8",
            relpath="src/repro/service/registry.py",
        )
        assert codes(findings) == ["R8-direct-index"]
        assert "<module>" in findings[0].message

    def test_nested_function_construction_flagged(self):
        findings, _ = lint(
            """
            from repro.motifs.enumeration import TargetSubgraphIndex

            def open_session(graph, targets, motif):
                def sneaky():
                    return TargetSubgraphIndex(graph, targets, motif)
                return sneaky()
            """,
            "R8",
            relpath="src/repro/service/service.py",
        )
        assert codes(findings) == ["R8-direct-index"]
        assert "'sneaky'" in findings[0].message

    def test_outside_service_package_clean(self):
        findings, _ = lint(
            """
            from repro.motifs.enumeration import TargetSubgraphIndex

            def build_index(graph, targets, motif):
                return TargetSubgraphIndex(graph, targets, motif)
            """,
            "R8",
            relpath="src/repro/core/model.py",
        )
        assert findings == []

    def test_other_calls_in_service_clean(self):
        findings, _ = lint(
            """
            def open_session(problem, factory):
                index = problem.build_index()
                return factory.for_filtered_targets(problem.graph, index)
            """,
            "R8",
            relpath="src/repro/service/service.py",
        )
        assert findings == []

    def test_private_hooks_in_service_flagged(self):
        findings, _ = lint(
            """
            import repro.motifs.enumeration as enumeration
            from repro.motifs.enumeration import TargetSubgraphIndex

            def derive(indexed, targets, motif, edges, arities, counts):
                return TargetSubgraphIndex._from_buffers(
                    indexed, targets, motif, edges, arities, counts
                )

            def restore(indexed, targets, motif, arrays):
                return enumeration.TargetSubgraphIndex._restore(
                    indexed, targets, motif, arrays
                )
            """,
            "R8",
            relpath="src/repro/service/service.py",
        )
        assert codes(findings) == ["R8-private-index-hook"] * 2
        assert "_from_buffers" in findings[0].message
        assert "'derive'" in findings[0].message
        assert "restricted_to" in findings[1].message

    def test_restriction_and_other_hooks_clean(self):
        findings, _ = lint(
            """
            from repro.graphs.indexed import IndexedGraph

            def subset_index(index, kept, nodes, edge_ids, indptr, nbrs, inc):
                graph = IndexedGraph._restore(nodes, edge_ids, indptr, nbrs, inc)
                return index.restricted_to(kept), graph
            """,
            "R8",
            relpath="src/repro/service/service.py",
        )
        assert findings == []

    def test_private_hooks_outside_service_clean(self):
        findings, _ = lint(
            """
            from repro.motifs.enumeration import TargetSubgraphIndex

            def splice(indexed, targets, motif, edges, arities, counts):
                return TargetSubgraphIndex._from_buffers(
                    indexed, targets, motif, edges, arities, counts
                )
            """,
            "R8",
            relpath="src/repro/motifs/updates.py",
        )
        assert findings == []

    def test_suppression_with_reason_absorbs(self):
        findings, suppressed = lint(
            """
            from repro.motifs.enumeration import TargetSubgraphIndex

            def probe(graph, targets):
                return TargetSubgraphIndex(graph, targets, "triangle")  # reprolint: disable=R8-direct-index(diagnostic probe)
            """,
            "R8",
            relpath="src/repro/service/probe.py",
        )
        assert findings == []
        assert codes(suppressed) == ["R8-direct-index"]


# ----------------------------------------------------------------------
# Suppression engine
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_suppression_without_reason_is_a_finding(self):
        findings, suppressed = lint(
            """
            def check(value):
                # reprolint: disable=R5-untyped-raise
                raise ValueError("nope")
            """,
            "R5",
        )
        # the reason-less directive does NOT suppress, and is itself flagged
        assert sorted(codes(findings)) == ["R0-suppression", "R5-untyped-raise"]
        assert suppressed == []

    def test_unknown_directive_is_a_finding(self):
        findings, _ = lint(
            """
            x = 1  # reprolint: enable=R5
            """,
            "R5",
        )
        assert codes(findings) == ["R0-suppression"]

    def test_family_wide_suppression(self):
        findings, suppressed = lint(
            """
            def check(value):
                # reprolint: disable=R5(layer has no taxonomy yet)
                raise ValueError("nope")
            """,
            "R5",
        )
        assert findings == []
        assert codes(suppressed) == ["R5-untyped-raise"]

    def test_reason_may_contain_parentheses(self):
        findings, suppressed = lint(
            """
            def check(value):
                # reprolint: disable=R5-untyped-raise(sorted by (-gain, key) later (twice))
                raise ValueError("nope")
            """,
            "R5",
        )
        assert findings == []
        assert codes(suppressed) == ["R5-untyped-raise"]

    def test_inline_suppression_applies_to_its_own_line(self):
        findings, suppressed = lint(
            """
            def check(value):
                raise ValueError("nope")  # reprolint: disable=R5-untyped-raise(inline form)
            """,
            "R5",
        )
        assert findings == []
        assert codes(suppressed) == ["R5-untyped-raise"]

    def test_suppression_does_not_leak_to_other_lines(self):
        findings, _ = lint(
            """
            def check(value):
                # reprolint: disable=R5-untyped-raise(covers only the next line)
                raise ValueError("one")

            def check2(value):
                raise ValueError("two")
            """,
            "R5",
        )
        assert codes(findings) == ["R5-untyped-raise"]

    def test_syntax_error_reported_as_parse_finding(self):
        findings, _ = lint_source("def broken(:\n    pass\n")
        assert codes(findings) == ["R0-parse"]


# ----------------------------------------------------------------------
# Driver / CLI
# ----------------------------------------------------------------------
class TestDriver:
    def test_all_seven_families_registered(self):
        assert sorted(RULES_BY_FAMILY) == ["R1", "R2", "R3", "R5", "R6", "R7", "R8"]
        assert len(ALL_RULES) == 7

    def test_parser_accepts_select_and_format(self):
        args = build_parser().parse_args(
            ["src", "--select", "R1", "--format", "json"]
        )
        assert args.select == ["R1"] and args.format == "json"

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise ValueError('x')\n")
        assert main([str(bad)]) == 1
        capsys.readouterr()
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        assert main([str(good)]) == 0
        capsys.readouterr()
        assert main([]) == 2

    def test_disabling_a_family_turns_its_rule_off(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise ValueError('x')\n")
        assert main([str(bad)]) == 1
        capsys.readouterr()
        assert main([str(bad), "--disable", "R5"]) == 0
        capsys.readouterr()

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    raise ValueError('x')\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["by_rule"] == {"R5-untyped-raise": 1}
        assert payload["findings"][0]["line"] == 2

    def test_library_lints_clean(self):
        """The acceptance gate: src/repro must be clean under every rule."""
        findings, stats = lint_paths(
            [str(REPO_ROOT / "src" / "repro")], project_root=REPO_ROOT
        )
        assert findings == []
        assert stats.files > 60
        # the two documented suppressions (benign set iterations) are the
        # only silenced findings — a new one needs a reason to land here
        assert stats.suppressed == 2
