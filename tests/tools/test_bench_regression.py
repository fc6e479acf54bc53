"""Tests for the benchmark regression gate (``check_bench_regression.py``).

A fresh report passes when every identity flag is true, it measured the
committed instance, and every committed cell is at or under its ceiling;
ceilings are skipped, and everything else still checked, when the fresh
run had no native kernel.
"""

from __future__ import annotations

import copy
import json

import pytest

from check_bench_regression import check, main


def committed_report() -> dict:
    return {
        "kind": "index_build",
        "config": {
            "instance": {"nodes": 12000, "motifs": ["triangle", "rectangle"]},
            "harness": {"repeats": 5, "cpu_count": 2, "available_cpus": 2},
        },
        "native_available": True,
        "identity": {"builds_identical": True, "greedy_traces_agree": True},
        "cells": {
            "triangle build": {"us": 80000.0, "ceiling_us": 190000, "numpy_us": 9e4},
            "rectangle build": {"us": 85000.0, "ceiling_us": 210000},
        },
    }


def fresh_report(**changes) -> dict:
    fresh = copy.deepcopy(committed_report())
    # another host and sampling is not another instance
    fresh["config"]["harness"] = {"repeats": 1, "cpu_count": 8, "available_cpus": 4}
    fresh["cells"]["triangle build"]["us"] = 150000.0
    fresh.update(changes)
    return fresh


def test_a_report_at_or_under_its_ceilings_passes():
    assert check(fresh_report(), committed_report()) == []
    fresh = fresh_report()
    fresh["cells"]["rectangle build"]["us"] = 210000
    assert check(fresh, committed_report()) == []


def test_a_cell_over_its_ceiling_fails():
    fresh = fresh_report()
    fresh["cells"]["rectangle build"]["us"] = 210000.1
    failures = check(fresh, committed_report())
    assert len(failures) == 1 and "rectangle build" in failures[0]


def test_a_committed_cell_without_a_ceiling_fails():
    committed = committed_report()
    del committed["cells"]["triangle build"]["ceiling_us"]
    failures = check(fresh_report(), committed)
    assert failures and "ceiling_us" in failures[0]


def test_a_cell_missing_from_the_fresh_report_fails():
    fresh = fresh_report()
    del fresh["cells"]["rectangle build"]
    failures = check(fresh, committed_report())
    assert failures == ["rectangle build: missing from the fresh report"]


@pytest.mark.parametrize("value", [False, None])
def test_a_false_or_missing_identity_flag_fails(value):
    fresh = fresh_report()
    if value is None:
        del fresh["identity"]["greedy_traces_agree"]
    else:
        fresh["identity"]["greedy_traces_agree"] = value
    failures = check(fresh, committed_report())
    assert len(failures) == 1 and "greedy_traces_agree" in failures[0]


def test_another_instance_fails():
    fresh = fresh_report()
    fresh["config"]["instance"]["nodes"] = 2000
    failures = check(fresh, committed_report())
    assert len(failures) == 1 and "another instance" in failures[0]


def test_without_native_ceilings_are_skipped_but_identity_holds():
    fresh = fresh_report(native_available=False)
    fresh["cells"]["triangle build"]["us"] = 10 * 190000.0
    assert check(fresh, committed_report()) == []
    fresh["identity"]["builds_identical"] = False
    failures = check(fresh, committed_report())
    assert len(failures) == 1 and "builds_identical" in failures[0]


def test_another_kind_fails():
    failures = check(fresh_report(kind="snapshot"), committed_report())
    assert failures == ["fresh kind 'snapshot' is not 'index_build'"]


def test_main_exit_codes(tmp_path, capsys):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(committed_report()))
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(fresh_report()))
    assert main([str(fresh), str(committed)]) == 0
    slow = fresh_report()
    slow["cells"]["triangle build"]["us"] = 200000.0
    fresh.write_text(json.dumps(slow))
    assert main([str(fresh), str(committed)]) == 1
    assert "REGRESSION: triangle build" in capsys.readouterr().err
