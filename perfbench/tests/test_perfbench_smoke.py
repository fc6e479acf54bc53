"""Tiny-scale runs of every workload through the benchmark's command line."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.measure import _mismatch
from perfbench.workloads import Reload, Solve
from repro.service import ProtectionRequest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path: Path, workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace),
            "--scale", "smoke",
            "--work-dir", str(tmp_path),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_traced_smoke_run_reports_every_per_layer_metric(tmp_path, workload) -> None:
    result = _run(tmp_path, workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2000
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    layer = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert layer["client.connections_per_request"] == 1.0
    assert layer["server.solves_executed"] >= 1000
    assert layer["server.coalesced_hits"] == 0
    assert layer["service.apply_delta_ms_p50"] > 0
    if workload == "paper-mix":  # its deltas never reach a target: no sub-session is evicted
        assert layer["service.subset_hit_ratio"] == 1.0
        assert layer["service.subset_builds"] == 0


def test_untraced_smoke_run_reports_every_end_to_end_metric(tmp_path) -> None:
    result = _run(tmp_path, "live-updates", trace=0)
    assert result["correct"] is True
    spec = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == spec
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_wrong_answers_are_mismatches() -> None:
    request = ProtectionRequest("SGB-Greedy", 2)
    solve = Solve(request, [[1, 2]], "abc")
    payload = {
        "protectors": [[1, 2]],
        "extra": {"service": {"kernel": "native"}, "server": {"content_hash": "abc"}},
    }
    assert _mismatch(solve, payload, "native") is None
    assert _mismatch(solve, {**payload, "protectors": [[1, 3]]}, "native")
    assert _mismatch(solve, payload, "numpy")
    assert _mismatch(Solve(request, [[1, 2]], "def"), payload, "native")
    reload = Reload(Path("d.tppdelta"), "abc")
    assert _mismatch(reload, {"content_hash": "abc"}, "native") is None
    assert _mismatch(reload, {"content_hash": "abd"}, "native")


def test_refuses_to_run_without_the_sources(tmp_path) -> None:
    """Beside BENCHMARK.json and perfbench/ alone, the run fails and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
