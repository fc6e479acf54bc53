"""Run ``repro-tpp serve`` for the benchmark, with or without layer spans.

Usage::

    python3 -u perfbench/bootstrap.py [--trace] --spans FILE -- serve ARGS...

Everything after ``--`` goes to :func:`repro.cli.main` unchanged, so the
server is the one the public CLI starts.  With ``--trace`` the public
functions listed in :func:`install_spans` are replaced by span-recording
wrappers before the CLI runs; without it nothing is wrapped, so the
untraced and traced servers differ only by the wrappers.  When the CLI
returns (``SIGINT`` drains and stops it) the recorded spans are written
to ``--spans``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import SpanRecorder  # noqa: E402


def method_slug(name: str) -> str:
    """``SGB-Greedy+BB`` -> ``sgb-bb``, ``CT-Greedy:TBD`` -> ``ct-tbd``."""
    return (
        name.lower().replace("-greedy", "").replace("+", "-").replace(":", "-")
    )


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap each traced layer's public entry points in ``recorder`` spans."""
    import repro.server.app as app
    from repro.core.model import ProtectionResult
    from repro.motifs import CoverageState
    from repro.server import ProtectionServer
    from repro.service import ProtectionService, iter_methods, register_method

    app.read_request = recorder.wrap_async(app.read_request, "server.read_request")
    app.json_response = recorder.wrap(app.json_response, "server.json_response")
    app.load_delta_snapshot = recorder.wrap(
        app.load_delta_snapshot, "persistence.load_delta"
    )
    ProtectionServer.content_hash = recorder.wrap(  # type: ignore[method-assign]
        ProtectionServer.content_hash, "server.content_hash"
    )
    ProtectionService.solve = recorder.wrap(  # type: ignore[method-assign]
        ProtectionService.solve, "service.solve"
    )
    ProtectionService.apply_delta = recorder.wrap(  # type: ignore[method-assign]
        ProtectionService.apply_delta, "service.apply_delta"
    )
    for name in ("for_filtered_targets", "from_snapshot"):
        original = ProtectionService.__dict__[name].__func__
        setattr(
            ProtectionService,
            name,
            classmethod(recorder.wrap(original, f"service.{name}")),
        )
    CoverageState.copy = recorder.wrap(  # type: ignore[method-assign]
        CoverageState.copy, "motifs.state_copy"
    )
    ProtectionResult.to_dict = recorder.wrap(  # type: ignore[method-assign]
        ProtectionResult.to_dict, "core.result_to_dict"
    )
    for spec in list(iter_methods()):
        register_method(
            spec.name,
            kind=spec.kind,
            order=spec.order,
            description=spec.description,
            replace=True,
        )(recorder.wrap(spec.runner, f"core.{method_slug(spec.name)}.runner"))


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: bootstrap.py [--trace] --spans FILE -- serve ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("--spans", required=True, help="where to write the spans")
    args = parser.parse_args(argv[:split])

    from repro.cli import main as cli_main

    recorder = SpanRecorder()
    if args.trace:
        install_spans(recorder)
    try:
        return cli_main(argv[split + 1:])
    finally:
        recorder.dump(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
