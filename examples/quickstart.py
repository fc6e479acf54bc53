"""Quickstart: protect a handful of sensitive links in a social graph.

Runs the full TPP workflow on a synthetic Arenas-email-like graph through
the session API — the target-subgraph index is built once and every query
runs on a copy of the session's pristine coverage state:

1. sample target links that must stay hidden,
2. open a ProtectionService session for (graph, targets, motif),
3. solve the three greedy selections as one batch of typed requests,
4. verify full protection and compare the algorithms, and
5. measure the utility cost of the release.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import ProtectionRequest, ProtectionService, verify_result
from repro.datasets import arenas_email_like, sample_random_targets
from repro.experiments import format_table
from repro.utility import compare_graphs


def main() -> None:
    # 1. the social graph and the sensitive target links -------------------
    graph = arenas_email_like(nodes=600, seed=1)
    targets = sample_random_targets(graph, count=10, seed=0)
    print(f"graph: {graph.number_of_nodes()} nodes, {graph.number_of_edges()} edges")
    print(f"targets to hide: {len(targets)} links")

    # 2. open a protection session (phase 1 removes the targets, the index
    #    is enumerated exactly once) ----------------------------------------
    service = ProtectionService(graph, targets, motif="triangle")
    print(
        f"target subgraphs an adversary could exploit: {service.pristine_similarity()} "
        f"(index built in {service.build_seconds:.3f}s)"
    )

    # 3. run the three greedy protector selections as one request batch -----
    budget = 40
    requests = [
        ProtectionRequest("SGB-Greedy", budget),
        ProtectionRequest("CT-Greedy:TBD", budget),
        ProtectionRequest("WT-Greedy:TBD", budget),
    ]
    results = service.solve_many(requests)

    rows = []
    for result in results:
        assert verify_result(service.problem, result), "trace must match recount"
        service_meta = result.extra["service"]
        assert service_meta["reused_index"], "coverage queries reuse the session index"
        rows.append(
            (
                result.algorithm,
                result.budget_used,
                result.initial_similarity,
                result.final_similarity,
                "yes" if result.fully_protected else "no",
                f"{service_meta['solve_seconds']:.3f}s",
            )
        )
    print()
    print(
        format_table(
            ["algorithm", "deletions", "s(∅,T)", "s(P,T)", "fully protected", "time"],
            rows,
        )
    )

    # 4. the session stayed pristine: repeated queries are deterministic ----
    repeat = service.solve(requests[0])
    assert repeat.protectors == results[0].protectors, "same request, same answer"
    assert service.pristine_deletions() == (), "queries never mutate the session"
    print(f"\nsession answered {service.queries_served} queries from one index")

    # 5. utility cost of the best release -----------------------------------
    best = results[0]
    released = best.released_graph(service.problem)
    report = compare_graphs(graph, released, metrics=("clust", "cn", "r"))
    print()
    print(f"utility impact of {best.algorithm}: {report.summary()}")
    for metric, original, new, loss in report.as_rows():
        print(f"  {metric:>6}: {original:.4f} -> {new:.4f}  (loss {100 * loss:.2f}%)")


if __name__ == "__main__":
    main()
