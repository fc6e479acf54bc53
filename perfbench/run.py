"""End-to-end serving benchmark: a live ``repro-tpp serve`` under fixed traffic.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 35 --trace 0

Workloads (:mod:`perfbench.workloads`): ``paper-mix`` and ``live-updates``.
A run builds its workload's fixed instance, writes the snapshot and the
``.tppdelta`` chain under ``.perfbench_work/``, computes in-process
reference answers (for the solves of every fifth session state), then
starts the server with the public CLI (``repro-tpp serve --index-file``,
through :mod:`perfbench.bootstrap`) and drives it with
:class:`repro.server.ServingClient` over closed-loop connections.  The
seed only reorders the fixed request multiset.  ``--seconds`` sets the
solve count (the workload's nominal rate times ``--seconds``, at least
1,000 so that a p99 has ten samples beyond it).

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``solve_p50_ms`` and ``solve_rps`` (medians over ten consecutive rounds of
the window), ``solve_p99_ms`` and ``reload_p50_ms`` (pooled), ``setup_s``
(median of nine server starts, spawn to first ``/healthz`` 200) and
``warm_rss_mb`` (the server's ``VmHWM`` once the warm-up has sent every
catalogue request).
``--trace 1`` sends the sequence to two servers, an untraced one and one
whose layer entry points record spans, alternating round by round, and
reports the per-layer metrics.
A wrong answer sets ``correct`` to false; the exit code is 0 only when
every answer was right and no operation failed.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="'smoke' runs a tiny instance (the benchmark's own tests)",
    )
    parser.add_argument(
        "--work-dir", default=str(WORK), help="scratch directory inside the checkout"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")

    work = Path(args.work_dir)
    os.environ["REPRO_NATIVE_CACHE"] = str(work / "native")
    # the kernel compiler's temporaries stay inside the checkout too
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import measure, workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.at_scale(workloads.WORKLOADS[args.workload], args.scale)
    run_dir = work / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    return measure.run(workload, args.seed, args.seconds, bool(args.trace), run_dir)


if __name__ == "__main__":
    sys.exit(main())
