"""Fail when a fresh benchmark report regresses against the committed one.

CI re-runs each benchmark at the committed configuration and gates the
freshly emitted report on the one checked into the repository::

    PYTHONPATH=src python benchmarks/bench_index_build.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_index_build.json

Every kind is checked the same way (the schema is in ``harness.py``).  The
check fails (exit 1) if either report does not follow the schema, if the
kinds differ, if an identity flag of either report is false or missing
from the fresh one, if the fresh run measured another instance than the
committed one, if a committed cell is missing from the fresh report, or
if a fresh cell's ``us`` exceeds the ``ceiling_us`` the committed report
records for it.  The ceilings bound the native kernel: they are skipped
when the fresh report records ``native_available: false`` (no C toolchain
is machine shape, not a regression), while every other check still
applies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from harness import validate


def check(fresh: dict, committed: dict) -> List[str]:
    """Return the human-readable failures of ``fresh`` against
    ``committed`` (empty when it passes)."""
    failures = [f"committed report: {problem}" for problem in validate(committed)]
    failures += [f"fresh report: {problem}" for problem in validate(fresh)]
    if failures:
        return failures
    if fresh["kind"] != committed["kind"]:
        return [f"fresh kind {fresh['kind']!r} is not {committed['kind']!r}"]
    for flag in sorted(set(committed["identity"]) | set(fresh["identity"])):
        if fresh["identity"].get(flag) is not True:
            failures.append(f"identity flag {flag} is not true in the fresh run")
    if fresh["config"]["instance"] != committed["config"]["instance"]:
        failures.append(
            "the fresh run measured another instance than the committed "
            "report, so its ceilings do not apply"
        )
    native = fresh["native_available"]
    for name, cell in committed["cells"].items():
        measured = fresh["cells"].get(name)
        if measured is None:
            failures.append(f"{name}: missing from the fresh report")
        elif native and measured["us"] > cell["ceiling_us"]:
            failures.append(
                f"{name}: {measured['us']:.1f} us exceeds the ceiling "
                f"{cell['ceiling_us']:.1f} us"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly emitted BENCH_<kind>.json")
    parser.add_argument("committed", help="the committed BENCH_<kind>.json")
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    committed = json.loads(Path(args.committed).read_text())
    failures = check(fresh, committed)
    if not (validate(fresh) or validate(committed)):
        for name, cell in committed["cells"].items():
            print(
                f"{name:>34}: fresh {fresh['cells'].get(name, {}).get('us')} us, "
                f"ceiling {cell['ceiling_us']} us"
            )
        if not fresh["native_available"]:
            print("ceilings skipped: the fresh run reports native_available=false")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
