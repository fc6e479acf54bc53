"""Command-line interface.

Seven sub-commands cover the common workflows:

* ``repro-tpp protect`` — run one or more protection queries on an edge-list
  file (or a named dataset) through a shared-index
  :class:`~repro.service.ProtectionService` session and write the released
  graph,
* ``repro-tpp build-index`` — enumerate the target-subgraph index once and
  persist it as a snapshot file that later ``protect --index-file`` runs
  (or :meth:`ProtectionService.from_snapshot`) cold-start from without
  enumerating,
* ``repro-tpp apply-delta`` — splice edge insertions/deletions into a saved
  index incrementally (bit-identical to rebuilding on the updated graph)
  and write the updated snapshot, optionally recording the change as a
  small ``*.tppdelta`` diff file,
* ``repro-tpp verify-index`` — validate snapshot / delta files (hashes,
  format version) without constructing an index,
* ``repro-tpp serve`` — expose a session over HTTP (solve, health/stats,
  graceful hot-reload, artifact endpoints; see :mod:`repro.server`),
* ``repro-tpp publish`` — verify snapshot / delta files and publish them
  content-hash-addressed to a store directory or a running server, and
* ``repro-tpp experiment`` — regenerate one of the paper's figures/tables and
  print its rows/series.

Examples
--------
Protect 10 random targets of a synthetic Arenas-like graph::

    repro-tpp protect --dataset arenas-email --targets 10 --budget 30 \
        --motif triangle --method SGB-Greedy --output released.edges

Sweep three budgets from one session, JSON out::

    repro-tpp protect --dataset arenas-email --budget 10 20 30 \
        --json results.json

Build the index once, then serve queries from the snapshot (no
enumeration at startup)::

    repro-tpp build-index --dataset arenas-email --targets 10 \
        --output arenas.tppsnap
    repro-tpp protect --index-file arenas.tppsnap --budget 30

Splice a graph update into the saved index and keep serving::

    repro-tpp apply-delta --index-file arenas.tppsnap \
        --insert 12 873 --delete 40 61 --output arenas-v2.tppsnap \
        --save-delta update-0001.tppdelta
    repro-tpp verify-index arenas-v2.tppsnap update-0001.tppdelta

Serve the index over HTTP and publish it for replicas::

    repro-tpp serve --index-file arenas.tppsnap --port 8035 \
        --artifact-dir /var/tpp/store
    repro-tpp publish arenas.tppsnap --store /var/tpp/store --set-latest

Regenerate Fig. 3 at quick scale::

    repro-tpp experiment fig3 --scale quick
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.engines import ENGINE_NAMES
from repro.core.model import TPPProblem
from repro.datasets.loaders import load_edge_list_dataset
from repro.datasets.registry import available_datasets, load_dataset
from repro.datasets.targets import sample_random_targets
from repro.experiments.reporting import (
    format_runtime_comparison,
    format_similarity_evolution,
    format_utility_loss_table,
    save_json,
)
from repro.experiments.runner import EXPERIMENT_RUNNERS
from repro.experiments.runtime import RuntimeComparison
from repro.experiments.similarity_evolution import SimilarityEvolution
from repro.experiments.utility_loss import UtilityLossTable
from repro.graphs.io import write_edge_list
from repro._native import KERNEL_NAMES
from repro.motifs.base import available_motifs
from repro.service import ProtectionRequest, ProtectionService, method_names
from repro.utility.loss import compare_graphs

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser.

    Method and engine choices are read from the live registries
    (:func:`repro.service.method_names`, ``ENGINE_NAMES``), so methods
    registered by downstream plugins are accepted — and a typo fails fast
    with the full list of valid names.
    """
    parser = argparse.ArgumentParser(
        prog="repro-tpp",
        description="Target Privacy Preserving for social networks (ICDE 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    protect = subparsers.add_parser(
        "protect", help="select protectors and write the released graph"
    )
    protect.add_argument(
        "--dataset",
        default="arenas-email",
        help=f"named dataset ({', '.join(available_datasets())}) or ignored if --edge-list given",
    )
    protect.add_argument("--edge-list", help="path to an edge-list file to protect")
    protect.add_argument("--targets", type=int, default=10, help="number of random targets")
    protect.add_argument(
        "--budget",
        type=int,
        nargs="+",
        default=[20],
        help="protector deletion budget k; several values sweep the budgets "
        "from one shared-index session",
    )
    protect.add_argument(
        "--motif", default="triangle", choices=sorted(available_motifs())
    )
    protect.add_argument(
        "--method", default="SGB-Greedy", choices=sorted(method_names())
    )
    protect.add_argument(
        "--engine",
        default="coverage",
        choices=ENGINE_NAMES,
        help="marginal-gain engine: 'coverage' = coverage kernel (-R algorithms), "
        "'recount' = naive recount",
    )
    protect.add_argument("--seed", type=int, default=0)
    protect.add_argument(
        "--index-file",
        help="cold-start the session from a snapshot written by build-index "
        "(skips dataset loading, target sampling and enumeration; "
        "--dataset/--edge-list/--targets/--motif are ignored)",
    )
    protect.add_argument(
        "--kernel",
        default="auto",
        choices=KERNEL_NAMES,
        help="coverage-state hot-loop kernel: 'auto' compiles/loads the "
        "native C kernel when possible and falls back to numpy; 'native' "
        "and 'numpy' force one side (bit-identical results either way)",
    )
    protect.add_argument("--output", help="write the released graph to this edge list")
    protect.add_argument(
        "--json",
        dest="json_path",
        help="write the full ProtectionResult(s) to this JSON file",
    )
    protect.add_argument(
        "--utility", action="store_true", help="also report the utility loss"
    )

    build_index = subparsers.add_parser(
        "build-index",
        help="enumerate the target-subgraph index once and save it as a "
        "snapshot for later cold starts",
    )
    build_index.add_argument(
        "--dataset",
        default="arenas-email",
        help=f"named dataset ({', '.join(available_datasets())}) or ignored if --edge-list given",
    )
    build_index.add_argument(
        "--edge-list", help="path to an edge-list file to index"
    )
    build_index.add_argument(
        "--targets", type=int, default=10, help="number of random targets"
    )
    build_index.add_argument(
        "--motif", default="triangle", choices=sorted(available_motifs())
    )
    build_index.add_argument(
        "--seed",
        type=int,
        default=0,
        help="target-sampling seed (use the same seed as the later protect "
        "run so both describe the same instance)",
    )
    build_index.add_argument(
        "--output",
        required=True,
        help="snapshot file to write (conventionally *.tppsnap)",
    )

    apply_delta = subparsers.add_parser(
        "apply-delta",
        help="apply edge insertions/deletions to a saved index incrementally "
        "and write the updated snapshot (no re-enumeration of the world)",
    )
    apply_delta.add_argument(
        "--index-file",
        required=True,
        help="snapshot to update (written by build-index or a previous apply-delta)",
    )
    apply_delta.add_argument(
        "--delta-file",
        help="apply the operations of this delta snapshot (*.tppdelta); its "
        "parent content hash must match the index file",
    )
    apply_delta.add_argument(
        "--insert",
        nargs=2,
        action="append",
        default=[],
        metavar=("U", "V"),
        help="insert the edge (U, V); repeatable",
    )
    apply_delta.add_argument(
        "--delete",
        nargs=2,
        action="append",
        default=[],
        metavar=("U", "V"),
        help="delete the edge (U, V); repeatable (deletions apply before insertions)",
    )
    apply_delta.add_argument(
        "--constant",
        type=int,
        help="dissimilarity constant C of the updated problem (default: keep, "
        "auto-bumped if insertions raise the initial similarity above it)",
    )
    apply_delta.add_argument(
        "--output",
        required=True,
        help="snapshot file to write the updated index to",
    )
    apply_delta.add_argument(
        "--save-delta",
        help="also record the applied delta as a delta-snapshot file "
        "(conventionally *.tppdelta) tied to the input snapshot's content hash",
    )

    verify_index = subparsers.add_parser(
        "verify-index",
        help="validate snapshot / delta-snapshot files (hashes, format "
        "version) without constructing an index",
    )
    verify_index.add_argument(
        "files", nargs="+", help="snapshot (*.tppsnap) or delta (*.tppdelta) files"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve protection queries over HTTP from a shared-index session "
        "(solve, health/stats, hot-reload and artifact endpoints)",
    )
    serve.add_argument(
        "--dataset",
        default="arenas-email",
        help=f"named dataset ({', '.join(available_datasets())}) or ignored if --edge-list given",
    )
    serve.add_argument("--edge-list", help="path to an edge-list file to serve")
    serve.add_argument(
        "--targets", type=int, default=10, help="number of random targets"
    )
    serve.add_argument(
        "--motif", default="triangle", choices=sorted(available_motifs())
    )
    serve.add_argument("--seed", type=int, default=0, help="target-sampling seed")
    serve.add_argument(
        "--index-file",
        help="cold-start the session from a snapshot (*.tppsnap); "
        "--dataset/--edge-list/--targets/--motif are ignored",
    )
    serve.add_argument(
        "--kernel",
        default="auto",
        choices=KERNEL_NAMES,
        help="coverage-state hot-loop kernel for the served session "
        "('auto' / 'native' / 'numpy'; bit-identical results either way)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8035, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--artifact-dir",
        help="attach a content-hash artifact store at this directory "
        "(enables the /artifacts endpoints and hash-addressed /reload)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="bound on queued solves; beyond it new requests get 429",
    )
    serve.add_argument(
        "--solver-threads",
        type=int,
        default=4,
        help="executor width for concurrent solves",
    )
    serve.add_argument(
        "--follow-store",
        type=float,
        metavar="SECONDS",
        help="poll the artifact store's 'latest' pointer at this interval and "
        "converge on it (deltas apply incrementally, snapshots swap in)",
    )

    publish = subparsers.add_parser(
        "publish",
        help="verify snapshot / delta files and publish them content-hash-"
        "addressed, to a store directory or a running server",
    )
    publish.add_argument(
        "files", nargs="+", help="snapshot (*.tppsnap) or delta (*.tppdelta) files"
    )
    publish.add_argument(
        "--store",
        help="publish into this artifact-store directory (shared with "
        "'repro-tpp serve --artifact-dir')",
    )
    publish.add_argument(
        "--url",
        help="publish over HTTP to a running server (e.g. http://127.0.0.1:8035)",
    )
    publish.add_argument(
        "--set-latest",
        action="store_true",
        help="after publishing, point the store's 'latest' pointer at the "
        "last published artifact (what '--follow-store' replicas converge on)",
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures or tables"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENT_RUNNERS))
    experiment.add_argument("--scale", default="quick", choices=("quick", "paper"))
    experiment.add_argument("--json", help="also save the result as JSON to this path")

    return parser


def _format_result(result) -> str:
    if isinstance(result, SimilarityEvolution):
        return format_similarity_evolution(result)
    if isinstance(result, RuntimeComparison):
        return format_runtime_comparison(result)
    if isinstance(result, UtilityLossTable):
        return format_utility_loss_table(result)
    return str(result)


def _load_instance(args: argparse.Namespace):
    """Load the graph named by ``--edge-list``/``--dataset`` and sample targets."""
    if args.edge_list:
        graph = load_edge_list_dataset(args.edge_list)
    else:
        graph = load_dataset(args.dataset)
    targets = sample_random_targets(graph, args.targets, seed=args.seed)
    return graph, targets


def _command_protect(args: argparse.Namespace) -> int:
    if args.index_file:
        service = ProtectionService.from_snapshot(args.index_file, kernel=args.kernel)
        print(
            f"session cold-started from {args.index_file} "
            f"(motif {service.problem.motif.name}, "
            f"{len(service.targets)} targets, "
            f"{service.index.number_of_instances()} target subgraphs)"
        )
    else:
        graph, targets = _load_instance(args)
        service = ProtectionService(
            graph, targets, motif=args.motif, kernel=args.kernel
        )
    requests = [
        ProtectionRequest(args.method, budget, engine=args.engine, seed=args.seed)
        for budget in args.budget
    ]
    results = service.solve_many(requests)

    problem = service.problem
    for result in results:
        print(result.summary())
        print(f"fully protected: {result.fully_protected}")

    if args.json_path:
        path = save_json(results[0] if len(results) == 1 else results, args.json_path)
        print(f"results saved to {path}")

    if (args.output or args.utility) and len(results) > 1:
        print(
            "note: --output/--utility use the largest-budget result of the sweep",
            file=sys.stderr,
        )
    best = max(results, key=lambda result: result.budget, default=None)
    if best is not None:
        released = best.released_graph(problem)
        if args.utility:
            # problem.graph materialises lazily on a cold-started session;
            # only the utility comparison actually needs the original graph
            report = compare_graphs(problem.graph, released, path_length_sample=100)
            print(report.summary())
            for metric, original, new, loss in report.as_rows():
                print(f"  {metric:>6}: {original:.4f} -> {new:.4f} (loss {100 * loss:.2f}%)")
        if args.output:
            write_edge_list(released, args.output, header=f"released by {best.algorithm}")
            print(f"released graph written to {args.output}")
    return 0


def _command_build_index(args: argparse.Namespace) -> int:
    graph, targets = _load_instance(args)
    problem = TPPProblem(graph, targets, motif=args.motif)
    stopwatch_start = time.perf_counter()
    path = problem.save_index(args.output)
    elapsed = time.perf_counter() - stopwatch_start
    index = problem.build_index()  # cached — returns the just-built index
    size = path.stat().st_size
    print(
        f"indexed {graph.number_of_nodes()} nodes / {graph.number_of_edges()} "
        f"edges, {len(targets)} targets, motif {args.motif}: "
        f"{index.number_of_instances()} target subgraphs, "
        f"{index.number_of_candidate_edges()} candidate edges"
    )
    print(
        f"snapshot written to {path} ({size} bytes, built+saved in {elapsed:.3f}s); "
        f"serve it with: repro-tpp protect --index-file {path}"
    )
    return 0


def _parse_delta_node(token: str, indexed):
    """Parse a CLI node token with the edge-list loader's convention.

    Integer-looking tokens become ``int`` (the SNAP / KONECT convention the
    loaders apply), except when the graph actually holds the *string* form
    of the label — then the live labels win, so deltas address the same
    nodes the file did.
    """
    try:
        as_int = int(token)
    except ValueError:
        return token
    if not indexed.has_node(as_int) and indexed.has_node(token):
        return token
    return as_int


def _command_apply_delta(args: argparse.Namespace) -> int:
    from repro.motifs.updates import EdgeDelta
    from repro.persistence import load_delta_snapshot, save_delta_snapshot

    if args.delta_file and (args.insert or args.delete):
        print(
            "apply-delta: use either --delta-file or --insert/--delete, not both",
            file=sys.stderr,
        )
        return 2
    if not args.delta_file and not args.insert and not args.delete:
        print(
            "apply-delta: nothing to apply — pass --delta-file or at least "
            "one --insert/--delete",
            file=sys.stderr,
        )
        return 2

    from repro.exceptions import DeltaError, PersistenceError

    try:
        problem = TPPProblem.from_snapshot(args.index_file)
        index = problem.build_index()  # restored — no enumeration runs
        if args.delta_file:
            # verifies the parent content hash before anything is touched
            delta = load_delta_snapshot(args.delta_file).delta_for(index)
        else:
            indexed = index.indexed_graph
            parse = lambda pair: tuple(
                _parse_delta_node(tok, indexed) for tok in pair
            )
            delta = EdgeDelta.from_edges(
                insert=[parse(pair) for pair in args.insert],
                delete=[parse(pair) for pair in args.delete],
            )

        start = time.perf_counter()
        updated, outcome = problem.apply_delta(delta, constant=args.constant)
        elapsed = time.perf_counter() - start
    except (DeltaError, PersistenceError) as error:
        print(f"apply-delta: {error}", file=sys.stderr)
        return 1
    from repro.persistence import save_snapshot

    path = save_snapshot(args.output, outcome.index, updated.constant)
    print(
        f"applied {outcome.edges_inserted} insert(s) / "
        f"{outcome.edges_deleted} delete(s) in {elapsed:.3f}s: "
        f"{outcome.instances_added} target subgraph(s) created, "
        f"{outcome.instances_removed} destroyed, "
        f"{len(outcome.changed_targets)} of {len(index.targets)} targets "
        f"changed ({outcome.targets_reenumerated} re-enumerated)"
    )
    print(f"updated snapshot written to {path} ({path.stat().st_size} bytes)")
    if args.save_delta:
        delta_path = save_delta_snapshot(
            args.save_delta, delta, index, outcome.index
        )
        print(f"delta recorded to {delta_path} ({delta_path.stat().st_size} bytes)")
    return 0


def _command_verify_index(args: argparse.Namespace) -> int:
    from repro.exceptions import PersistenceError
    from repro.persistence import verify_snapshot_file

    failures = 0
    for file in args.files:
        try:
            info = verify_snapshot_file(file)
        except PersistenceError as error:
            failures += 1
            print(f"{file}: INVALID — {error}", file=sys.stderr)
            continue
        counts = ", ".join(f"{k}={v}" for k, v in info["counts"].items())
        if info["kind"] == "snapshot":
            print(
                f"{file}: OK snapshot v{info['format_version']} "
                f"motif={info['motif'].get('name')} ({counts}) "
                f"content={info['content_hash'][:12]}…"
            )
        else:
            print(
                f"{file}: OK delta v{info['format_version']} ({counts}) "
                f"parent={info['parent_content_hash'][:12]}… "
                f"result={info['result_content_hash'][:12]}…"
            )
    return 1 if failures else 0


def _serve_session(args: argparse.Namespace) -> ProtectionService:
    """Open the session ``repro-tpp serve`` will put behind HTTP."""
    if args.index_file:
        service = ProtectionService.from_snapshot(args.index_file, kernel=args.kernel)
        print(f"session cold-started from {args.index_file}")
        return service
    graph, targets = _load_instance(args)
    service = ProtectionService(graph, targets, motif=args.motif, kernel=args.kernel)
    print(
        f"session built: {graph.number_of_nodes()} nodes, "
        f"{len(targets)} targets, motif {args.motif} "
        f"({service.build_seconds:.3f}s)"
    )
    return service


def _command_serve(args: argparse.Namespace) -> int:
    from repro.server import ArtifactStore, ProtectionServer, serve_in_background

    service = _serve_session(args)
    store = ArtifactStore(args.artifact_dir) if args.artifact_dir else None
    server = ProtectionServer(
        service,
        store=store,
        max_pending=args.max_pending,
        solver_threads=args.solver_threads,
        poll_interval=args.follow_store,
    )
    handle = serve_in_background(server, host=args.host, port=args.port)
    print(
        f"serving {len(service.targets)} targets at {handle.url} "
        f"(content hash {server.content_hash()[:12]}…); endpoints: "
        "POST /solve, GET /healthz, GET /stats, POST /reload"
        + (", /artifacts" if store is not None else "")
    )
    print("Ctrl-C stops the server (in-flight queries drain first)")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        handle.stop()
        stats = server.stats()
        print(
            f"served {stats['queries_served']} queries "
            f"({stats['coalesced_hits']} coalesced, "
            f"{stats['rejected']} rejected, {stats['reloads']} reloads)"
        )
    return 0


def _command_publish(args: argparse.Namespace) -> int:
    from repro.exceptions import PersistenceError, ServerError

    if bool(args.store) == bool(args.url):
        print(
            "publish: pass exactly one destination — --store DIR or --url URL",
            file=sys.stderr,
        )
        return 2
    failures = 0
    published: List[dict] = []
    if args.store:
        from repro.server import ArtifactStore

        store = ArtifactStore(args.store)
        for file in args.files:
            try:
                record = store.publish_file(file)
            except (PersistenceError, OSError) as error:
                failures += 1
                print(f"{file}: REFUSED — {error}", file=sys.stderr)
                continue
            published.append(record.to_dict())
            print(
                f"{file}: published {record.kind} "
                f"{record.content_hash[:12]}… ({record.size} bytes)"
            )
        if args.set_latest and published:
            latest = store.set_latest(str(published[-1]["content_hash"]))
            print(f"latest -> {latest.content_hash[:12]}…")
    else:
        from repro.server import ServingClient

        client = ServingClient(args.url)
        for file in args.files:
            try:
                record = client.publish_file(file)
            except (ServerError, OSError) as error:
                failures += 1
                print(f"{file}: REFUSED — {error}", file=sys.stderr)
                continue
            published.append(dict(record))
            print(
                f"{file}: published {record['kind']} "
                f"{str(record['content_hash'])[:12]}… to {client.base_url}"
            )
        if args.set_latest and published:
            latest_record = client.set_latest(str(published[-1]["content_hash"]))
            print(f"latest -> {str(latest_record['content_hash'])[:12]}…")
    return 1 if failures else 0


def _command_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENT_RUNNERS[args.name]
    results = runner(scale=args.scale)
    if not isinstance(results, list):
        results = [results]
    for result in results:
        print(_format_result(result))
        print()
    if args.json:
        save_json(results if len(results) > 1 else results[0], args.json)
        print(f"results saved to {args.json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "protect":
        return _command_protect(args)
    if args.command == "build-index":
        return _command_build_index(args)
    if args.command == "apply-delta":
        return _command_apply_delta(args)
    if args.command == "verify-index":
        return _command_verify_index(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "publish":
        return _command_publish(args)
    if args.command == "experiment":
        return _command_experiment(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
