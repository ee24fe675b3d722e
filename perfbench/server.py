"""serve_mixed's and ingest_refresh's process under test, and the cache warmer.

``server.py warm --cache DIR`` builds the scale-1 world once through the
program's ``PipelineRuntime`` into the benchmark's own artifact cache and
writes ``universe.json``: every collected entry (ecosystem, name,
version, sha256, node id) and the names that have similar edges, which
the load generator draws its inputs from.

``server.py serve|ingest --cache DIR ...`` is one ``repro serve`` process
with the CLI's defaults (LRU of 4,096 entries in 8 shards, no rate
limit, no webhook), started from that warm cache. In ``ingest`` mode it
also owns a writer thread that applies a seeded sequence of event
batches back to back through ``refresh_from_events`` once told ``go``;
one warm-up batch (the one-time ``DeltaState`` bootstrap) is applied
before the server reports ready, so it counts as set-up.

Protocol (one JSON line per message on stdout, one word per line on
stdin): ``ready`` (port, pid, ns) -> ``go`` -> ``writer_done`` (ingest)
-> ``stop`` -> ``done``. ``quit`` exits without measuring; the runner
uses it for the extra set-up probes.
"""

from __future__ import annotations

import argparse
import os
from importlib import import_module
import random
import sys
import threading
from pathlib import Path

from common import (
    WORLD,
    message,
    now_ns,
    use_checkout_source,
    write_json,
)

def runtime_for(cache: Path):
    from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
    from repro.world import WorldConfig

    return PipelineRuntime(
        WorldConfig(**WORLD),
        store=ArtifactStore(cache_dir=cache / "store", disk_enabled=True),
        report=PipelineReport(),
    )


def warm(cache: Path) -> None:
    from repro.core.edges import node_id
    from repro.core.graph import EdgeType
    from repro.core.query import QueryEngine

    runtime = runtime_for(cache)
    runtime.warm()
    dataset = runtime.dataset()
    indexes = QueryEngine(runtime.malgraph()).indexes()
    similar_seeds = sorted(
        {
            indexes.node_attrs(node)["name"]
            for node in indexes.nodes
            if indexes.neighbors(node, (EdgeType.SIMILAR,))
        }
    )
    write_json(
        cache / "universe.json",
        {
            "entries": [
                [
                    e.package.ecosystem,
                    e.package.name,
                    e.package.version,
                    e.sha256(),
                    node_id(e.package),
                ]
                for e in dataset.entries
            ],
            "similar_seeds": similar_seeds,
        },
    )


def install_tracing(tracer) -> None:
    """Wrap the public entry points of the service, query and delta layers."""
    # import_module, not "import a.b as c": repro.core re-exports a
    # function named kmeans that shadows the submodule attribute.
    kmeans = import_module("repro.core.kmeans")
    query_indexes = import_module("repro.core.query.indexes")
    refresh = import_module("repro.service.refresh")
    from repro.core.embedding import AstEmbedder
    from repro.core.malgraph import MalGraph
    from repro.core.query import QueryEngine
    from repro.pipeline.stages import CollectionCodec, MalGraphCodec
    from repro.service.cache import EnrichmentService
    from repro.service.enrich import EnrichmentEngine
    from repro.service.feed import FeedExporter
    from repro.service.index import IntelIndex
    from repro.service.server import IntelRequestHandler

    def applied(tracer, result):
        report = result[1]
        tracer.totals["delta.events"] += report.events
        tracer.totals["delta.embedded"] += report.embed_cache_misses

    def grown(tracer, result):
        tracer.totals["similarity.kmeans_iters"] += sum(r.iterations for r in result[1])

    tracer.patch_method(CollectionCodec, "load", "io.collection_load")
    tracer.patch_method(MalGraphCodec, "load", "io.malgraph_load")
    tracer.patch_method(IntelIndex, "build", "index.build")
    tracer.patch_method(IntelIndex, "near_names", "index.near_names")
    tracer.patch_method(IntelIndex, "related", "index.related")
    tracer.patch_method(IntelIndex, "clone", "index.clone")
    tracer.patch_method(IntelIndex, "replace_groups", "index.replace_groups")
    tracer.patch_method(EnrichmentEngine, "enrich", "enrich.engine")
    tracer.patch_method(EnrichmentService, "enrich", "service.enrich")
    tracer.patch_method(EnrichmentService, "batch_enrich", "service.batch_enrich")
    tracer.patch_method(EnrichmentService, "publish", "refresh.publish")
    tracer.patch_method(FeedExporter, "page", "feed.page")
    tracer.patch_method(QueryEngine, "run", "query.run")
    tracer.patch_function(query_indexes, "build_indexes", "query.build_indexes")
    tracer.patch_function(
        query_indexes, "apply_index_patches", "query.patch_indexes"
    )
    tracer.patch_method(MalGraph, "apply_delta", "delta.apply", applied)
    tracer.patch_function(refresh, "refresh_from_events", "refresh.batch")
    tracer.patch_method(AstEmbedder, "embed_many", "embedding.embed_many")
    tracer.patch_function(kmeans, "grow_kmeans", "similarity.grow_kmeans", grown)

    # The request span carries the generator's request id, so the runner
    # can match each handler span to the latency the client saw.
    handle = tracer.wrap("server.request", IntelRequestHandler.__dict__["_guarded"])

    def guarded(self, route):
        tracer.set_context(self.headers.get("X-Bench-Id"))
        try:
            return handle(self, route)
        finally:
            tracer.set_context(None)

    IntelRequestHandler._guarded = guarded


def plan_batches(dataset, seed: int, count: int):
    """``count`` batches shaped like ``bench_incremental_malgraph``'s: k
    removals, k detections, k publishes of new names reusing existing
    payloads, and one report linking two survivors (k = entries // 2000,
    at least 1). Removed, detected and template packages are distinct
    across the whole sequence, and published packages are never touched
    again, so every batch applies cleanly to whatever the earlier ones
    left."""
    from dataclasses import replace

    from repro.collection.records import CollectedReport, DatasetEntry, SourceClaim
    from repro.core.delta import GraphEvent
    from repro.ecosystem.package import PackageId, make_artifact

    rng = random.Random(seed)
    entries = [e for e in dataset.entries if e.artifact is not None]
    k = max(1, len(dataset.entries) // 2000)
    # Templates: one per payload, so a published copy joins no duplicate
    # family that a later batch's publish rebuilds.
    templates = []
    used = set()
    for entry in rng.sample(entries, len(entries)):
        if len(templates) == k * count:
            break
        if entry.sha256() not in used:
            templates.append(entry)
            used.add(entry.sha256())
    touched = rng.sample([e for e in entries if e.sha256() not in used], 2 * k * count)
    batches = []
    for b in range(count):
        removed = touched[2 * k * b : 2 * k * b + k]
        detected = touched[2 * k * b + k : 2 * k * (b + 1)]
        templates_b = templates[k * b : k * (b + 1)]
        published = []
        for i, template in enumerate(templates_b):
            eco = template.package.ecosystem
            name = f"pb-{seed}-{b}-{i}"
            published.append(
                DatasetEntry(
                    package=PackageId(eco, name, "1.0"),
                    claims=[SourceClaim(source="snyk", report_day=30, shares_artifact=True)],
                    artifact=make_artifact(eco, name, "1.0", dict(template.artifact.files)),
                    artifact_origin="source:perfbench",
                    release_day=28,
                    downloads=3,
                )
            )
        events = [GraphEvent.package_removed(e.package) for e in removed]
        events += [
            GraphEvent.package_detected(
                replace(e, claims=list(e.claims), downloads=e.downloads + 10)
            )
            for e in detected
        ]
        events += [GraphEvent.package_added(e) for e in published]
        events.append(
            GraphEvent.report_ingested(
                CollectedReport(
                    report_id=f"r-perfbench-{b}",
                    url=f"https://intel.example/r-perfbench-{b}",
                    site="intel.example",
                    category="Security org.",
                    source="snyk",
                    publish_day=31,
                    packages=[e.package for e in (detected + published)[:2]],
                )
            )
        )
        batches.append((events, published, removed + detected + templates_b))
    return batches


def serve(args) -> int:
    from repro.core.edges import node_id
    from repro.service import build_service, create_server

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracing(tracer)
    refresh = import_module("repro.service.refresh")

    cache = Path(args.cache)
    runtime = runtime_for(cache)
    collection = runtime.collection()
    malgraph = runtime.malgraph()
    service = build_service(
        malgraph,
        capacity=4096,
        degraded=collection.stats.degraded,
        shards=8,
        source_health=collection.stats.source_health,
    )
    # Lazy set-up a long-running server pays once: the query indexes.
    service.query_engine.indexes()
    server = create_server(service, port=0)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()

    batches = []
    writer_log = []
    if args.mode == "ingest":
        batches = plan_batches(malgraph.dataset, args.seed, args.batches + 1)
        warmup, warm_published, _ = batches[0]
        refresh.refresh_from_events(service.index, warmup, service=service, malgraph=malgraph)
        first_epoch = service.index.epoch
        # Epoch of the generation that first serves each batch's packages;
        # the warm-up batch's is published before the reads start.
        write_json(
            Path(args.manifest),
            {
                "batches": [
                    {
                        "epoch": first_epoch + position,
                        "published": [
                            [e.package.ecosystem, e.package.name, e.package.version,
                             node_id(e.package)]
                            for e in published
                        ],
                    }
                    for position, (_, published, _) in enumerate(batches)
                ],
                "touched": [node_id(e.package) for _, _, rows in batches for e in rows],
            },
        )
        batches = batches[1:]

    def write_batches() -> None:
        for position, (events, _, _) in enumerate(batches, start=1):
            if tracer is not None:
                tracer.set_context(f"batch-{position}")
            handed = now_ns()
            refresh.refresh_from_events(
                service.index, events, service=service, malgraph=malgraph
            )
            writer_log.append((handed, now_ns(), len(events)))
        message("writer_done")

    writer = threading.Thread(target=write_batches)
    message("ready", port=server.server_address[1], pid=os.getpid(), ns=now_ns())
    command = ""
    while command not in ("stop", "quit"):
        command = sys.stdin.readline().strip() or "quit"
        if command == "go" and args.mode == "ingest":
            writer.start()
    if writer.is_alive():
        writer.join()
    server.shutdown()
    server.server_close()
    if command == "quit":
        return 0

    if tracer is not None:
        tracer.enabled = False
    checks = {}
    if args.mode == "ingest":
        from repro.core.malgraph import MalGraph
        from repro.io.malgraphs import canonical_malgraph_json

        cold = MalGraph.build(malgraph.dataset)
        checks["graph_matches_cold_build"] = canonical_malgraph_json(
            malgraph
        ) == canonical_malgraph_json(cold)
        checks["epoch_advanced_per_batch"] = (
            service.index.epoch == first_epoch + len(batches)
        )
    write_json(
        Path(args.out),
        {
            "writer": writer_log,
            "checks": checks,
            "entries": len(malgraph.dataset),
            "trace": tracer.export() if tracer is not None else None,
        },
    )
    message("done")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("warm", "serve", "ingest"))
    parser.add_argument("--cache", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batches", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--manifest", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    use_checkout_source()
    if args.mode == "warm":
        warm(Path(args.cache))
        message("done")
        return 0
    return serve(args)


if __name__ == "__main__":
    raise SystemExit(main())
