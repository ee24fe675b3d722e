"""Command-line interface.

``python -m repro <command>`` regenerates the paper's evaluation, saves
or publishes datasets, exports the graph, runs queries and scans
packages::

    python -m repro warm                   # build + persist the pipeline cache
    python -m repro tables                 # every table and figure
    python -m repro show table7            # one experiment
    python -m repro cache info             # inspect the artifact cache
    python -m repro dataset --out data/    # save the collected dataset
    python -m repro publish --out site/    # the transparency website
    python -m repro export --out g/ --format graphml
    python -m repro query "MATCH (a)-[dependency]-(b) RETURN a.name, b.name"
    python -m repro update --graph g/ events.jsonl   # delta-evolve a saved graph
    python -m repro validate               # groups vs ground truth
    python -m repro scan path/to/package/  # detector verdict for a dir

Every dataset-consuming command resolves the expensive stages through
the :mod:`repro.pipeline` artifact store; ``--cache-dir`` points it at a
specific disk cache, ``--no-disk-cache`` keeps it in-memory only, and
``--report`` / ``--report-json`` expose the per-stage hit/miss report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.paper import PaperArtifacts
from repro.world import WorldConfig

#: experiment key -> PaperArtifacts method name
EXPERIMENTS: Dict[str, str] = {
    "table1": "table1_sources",
    "fig2": "fig2_timeline",
    "table2": "table2_malgraph",
    "fig3": "fig3_example_subgraph",
    "table3": "table3_reports",
    "table4": "table4_overlap",
    "fig4": "fig4_dg_cdf",
    "table5": "table5_freshness",
    "table6": "table6_missing",
    "fig5": "fig5_causes",
    "table7": "table7_diversity",
    "fig8": "fig8_campaign",
    "fig9": "fig9_active_periods",
    "fig11": "fig11_downloads",
    "fig12": "fig12_operations",
    "table8": "table8_idn",
}


def _artifacts(args: argparse.Namespace) -> PaperArtifacts:
    # Stage-level memoisation lives in the pipeline store, so a fresh
    # facade per invocation costs nothing beyond the first resolution.
    # --jobs only changes how the similar-edge stage executes (worker
    # processes), never what it produces, so it is excluded from cache
    # fingerprints and safe to vary between invocations.
    similarity = None
    if getattr(args, "jobs", None) is not None:
        from repro.core.similarity import SimilarityConfig

        similarity = SimilarityConfig(jobs=args.jobs)
    return PaperArtifacts(
        WorldConfig(seed=args.seed, scale=args.scale), similarity=similarity
    )


def _render_experiment(artifacts: PaperArtifacts, key: str) -> str:
    result = getattr(artifacts, EXPERIMENTS[key])()
    if result is None:
        return f"{key}: no qualifying data in this world"
    return result.render()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_tables(args: argparse.Namespace) -> int:
    artifacts = _artifacts(args)
    for key in EXPERIMENTS:
        print(_render_experiment(artifacts, key))
        print()
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    print(_render_experiment(_artifacts(args), args.experiment))
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.io.datasets import save_dataset

    artifacts = _artifacts(args)
    target = save_dataset(
        artifacts.dataset, args.out, include_artifacts=not args.no_artifacts
    )
    print(f"wrote {len(artifacts.dataset)} entries to {target}")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    import json

    from repro.pipeline import PipelineRuntime
    from repro.reliability import FaultPlan, RetryPolicy

    plan = None
    if args.fault_plan is not None:
        if args.fault_plan in FaultPlan.PRESETS:
            plan = FaultPlan.preset(
                args.fault_plan,
                seed=args.fault_seed if args.fault_seed is not None else 0,
            )
        else:
            plan = FaultPlan.from_dict(
                json.loads(Path(args.fault_plan).read_text())
            )
            if args.fault_seed is not None:
                plan = plan.reseeded(args.fault_seed)
    policy = None
    if args.max_retries is not None:
        policy = RetryPolicy().with_max_retries(args.max_retries)

    runtime = PipelineRuntime(
        WorldConfig(seed=args.seed, scale=args.scale),
        fault_plan=plan,
        retry_policy=policy,
        allow_degraded=args.allow_degraded,
    )
    result = runtime.collection()
    stats = result.stats
    print(
        f"collected {len(result.dataset)} entries "
        f"({stats.merged_entries} merged, "
        f"{stats.recovery.recovered}/{stats.recovery.attempted} recovered "
        "from mirrors)"
    )
    if stats.degradation is not None:
        print(stats.degradation.render())
    if args.out is not None:
        from repro.io.datasets import save_dataset

        target = save_dataset(result.dataset, args.out)
        print(f"wrote dataset to {target}")
    if args.degradation_json is not None:
        payload = (
            stats.degradation.to_dict()
            if stats.degradation is not None
            else None
        )
        Path(args.degradation_json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote degradation report to {args.degradation_json}")
    if stats.degraded and not args.allow_degraded:
        # Completed, but gave data up and the caller did not opt in; the
        # artifact was not cached. Distinct exit code for schedulers.
        return 3
    return 0


def cmd_publish(args: argparse.Namespace) -> int:
    from repro.io.publish import publish_dataset

    artifacts = _artifacts(args)
    target = publish_dataset(artifacts.malgraph, args.out)
    print(f"published dataset site to {target}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.core.graph import EdgeType
    from repro.io.export import to_dot, to_graphml, to_neo4j_csv

    artifacts = _artifacts(args)
    graph = artifacts.malgraph.graph
    edge_types = None
    if args.edges:
        edge_types = [EdgeType(name) for name in args.edges.split(",")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "graphml":
        path = out / "malgraph.graphml"
        path.write_text(to_graphml(graph, edge_types))
        print(f"wrote {path}")
    elif args.format == "dot":
        path = out / "malgraph.dot"
        path.write_text(to_dot(graph, edge_types))
        print(f"wrote {path}")
    else:
        nodes, edges = to_neo4j_csv(graph, out, edge_types)
        print(f"wrote {nodes} and {edges}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.query import QueryEngine, QueryError

    artifacts = _artifacts(args)
    # over the full MalGraph (not just the bare graph) so queries see
    # the enriched attributes: campaign, actor, family, group ids, and
    # directed dependency edges
    engine = QueryEngine(artifacts.malgraph)
    try:
        result = engine.run(args.query)
    except QueryError as error:
        print(f"query error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render_table())
        print(f"({result.row_count} rows, {result.elapsed_ms:.2f} ms)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import validate_groups

    artifacts = _artifacts(args)
    print(validate_groups(artifacts.malgraph).render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    artifacts = _artifacts(args)
    sections = [
        "# Evaluation report",
        "",
        f"World: seed={args.seed}, scale={args.scale}. Every table and "
        "figure of the paper's evaluation, regenerated.",
        "",
    ]
    for key in EXPERIMENTS:
        sections.append(f"## {key}")
        sections.append("")
        sections.append("```")
        sections.append(_render_experiment(artifacts, key))
        sections.append("```")
        sections.append("")
    payload = "\n".join(sections)
    if args.out:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    from repro.analysis.whatif import compute_defense_sweep

    sweep = compute_defense_sweep(
        scales=tuple(args.scales),
        seed=args.seed,
        corpus_scale=min(args.scale, 0.25),
    )
    print(sweep.render())
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    from repro.analysis.families import compute_family_census

    artifacts = _artifacts(args)
    print(compute_family_census(artifacts.malgraph).render())
    return 0


def cmd_actors(args: argparse.Namespace) -> int:
    from repro.analysis.actors import compute_actor_attribution

    artifacts = _artifacts(args)
    print(compute_actor_attribution(artifacts.dataset).render(top=args.top))
    return 0


def cmd_insights(args: argparse.Namespace) -> int:
    artifacts = _artifacts(args)
    report = artifacts.insights()
    print(report.render())
    return 0 if report.all_hold else 1


def cmd_stability(args: argparse.Namespace) -> int:
    from repro.analysis.stability import compute_stability

    artifacts = _artifacts(args)
    print(compute_stability(artifacts.dataset, snapshots=args.snapshots).render())
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from repro.detection.scanner import evaluate_on_corpus

    artifacts = _artifacts(args)
    result = evaluate_on_corpus(artifacts.world.corpus, sample=args.sample)
    print(result.render())
    return 0


def cmd_enrich(args: argparse.Namespace) -> int:
    import json

    from repro.service import Indicator, build_service

    if not args.name and not args.sha256:
        print("enrich needs a package name or --sha256", file=sys.stderr)
        return 2
    artifacts = _artifacts(args)
    service = build_service(artifacts.malgraph)
    result = service.enrich(
        Indicator(
            name=args.name,
            version=args.pkg_version,
            sha256=args.sha256,
            ecosystem=args.ecosystem,
        )
    )
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 1 if result.verdict == "malicious" else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import WebhookDispatcher, build_service, serve

    artifacts = _artifacts(args)
    webhook = None
    if args.webhook:
        webhook = WebhookDispatcher(args.webhook)
    collection_stats = artifacts.collection.stats
    service = build_service(
        artifacts.malgraph,
        capacity=args.cache,
        degraded=collection_stats.degraded,
        shards=args.shards,
        source_health=collection_stats.source_health,
        webhook=webhook,
    )
    print(
        f"indexed {service.index.package_count} packages "
        f"(seed={args.seed}, scale={args.scale}, "
        f"{service.cache.shard_count} cache shards)"
    )
    if webhook is not None:
        print(f"pushing new detections to {webhook.url}")
    try:
        server = serve(
            service,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            rate_limit=args.rate_limit if args.rate_limit > 0 else None,
            rate_burst=args.burst,
        )
    finally:
        if webhook is not None:
            webhook.flush(timeout=5.0)
            webhook.close()
    return 0 if server is not None else 2


def cmd_feed(args: argparse.Namespace) -> int:
    import json

    from repro.service import build_service

    artifacts = _artifacts(args)
    collection_stats = artifacts.collection.stats
    service = build_service(
        artifacts.malgraph,
        degraded=collection_stats.degraded,
        source_health=collection_stats.source_health,
    )
    if args.cursor is not None or args.limit is not None:
        # One page, exactly as /v1/feed would answer it.
        from repro.service import CursorError, CursorExpired

        try:
            page = service.feed.page(cursor=args.cursor, limit=args.limit)
        except CursorExpired as error:
            print(f"cursor expired: {error}", file=sys.stderr)
            return 2
        except CursorError as error:
            print(f"bad cursor/limit: {error}", file=sys.stderr)
            return 2
        payload = page
    else:
        items = service.feed.walk()
        payload = {
            "generation": service.snapshot.generation,
            "total": len(items),
            "items": items,
        }
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {payload['total']} indicators to {args.out}")
    else:
        print(rendered)
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    from repro import pipeline
    from repro.core.delta.events import events_from_jsonl
    from repro.core.groups import GroupKind
    from repro.errors import DatasetError, GraphError
    from repro.io.malgraphs import load_malgraph_bundle, save_malgraph_bundle

    bundle = Path(args.graph)
    if not bundle.is_dir():
        print(f"not a bundle directory: {bundle}", file=sys.stderr)
        return 2
    similarity = None
    if getattr(args, "jobs", None) is not None:
        from repro.core.similarity import SimilarityConfig

        similarity = SimilarityConfig(jobs=args.jobs)
    try:
        events = events_from_jsonl(args.events)
        if not events:
            print(f"no events in {args.events}", file=sys.stderr)
            return 2
        evolved = load_malgraph_bundle(bundle, similarity, pipeline.get_store())
        _, delta = evolved.apply_delta(events)
    except (DatasetError, GraphError, OSError) as error:
        print(f"update error: {error}", file=sys.stderr)
        return 2
    target = save_malgraph_bundle(evolved, args.out or bundle)
    print(delta.summary())
    counts = (f"{kind.value}={len(evolved.groups(kind))}" for kind in GroupKind)
    print("groups " + ", ".join(counts))
    print(f"wrote updated bundle to {target}")
    return 0


def cmd_warm(args: argparse.Namespace) -> int:
    from repro import pipeline

    artifacts = _artifacts(args)
    artifacts.warm()
    if not args.report:  # --report prints the same table on exit
        print(pipeline.get_report().render())
    store = pipeline.get_store()
    if store.disk_enabled:
        print(f"disk cache: {store.cache_dir}")
    else:
        print("disk cache: disabled")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro import pipeline

    store = pipeline.get_store()
    if args.action == "clear":
        store.clear_memory()
        removed = store.clear_disk()
        print(f"removed {removed} cache entries from {store.cache_dir}")
        return 0
    entries = store.disk_entries()
    state = "enabled" if store.disk_enabled else "disabled"
    print(f"cache dir: {store.cache_dir} (disk {state})")
    if not entries:
        print("no cached artifacts")
        return 0
    print(f"{'stage':<12} {'fingerprint':<18} {'size':>10}  config")
    for entry in entries:
        world = entry["config"].get("world", {})
        knobs = ", ".join(f"{k}={world[k]}" for k in sorted(world))
        print(
            f"{entry['stage']:<12} {entry['fingerprint']:<18} "
            f"{entry['bytes']:>10}  {knobs}"
        )
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from repro.detection.detector import Detector
    from repro.ecosystem.package import make_artifact

    root = Path(args.path)
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    files = {
        str(p.relative_to(root)): p.read_text(encoding="utf-8", errors="replace")
        for p in sorted(root.rglob("*.py"))
    }
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    artifact = make_artifact(args.ecosystem, root.name, "0.0.0", files)
    verdict = Detector().scan(artifact)
    print(verdict.explain())
    return 1 if verdict.malicious else 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Analysis of Malicious Packages in "
        "Open-Source Software in the Wild' (DSN 2025)",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="world scale factor"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="embedding worker processes for the MALGRAPH build "
        "(0 = one per core; default: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="keep pipeline artifacts in memory only",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the pipeline stage report to stderr on exit",
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="FILE",
        help="write the pipeline stage report as JSON to FILE on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    warm = sub.add_parser(
        "warm", help="build the pipeline stages and persist the cacheable ones"
    )
    # Also accepted after the subcommand (`repro warm --jobs 0`); SUPPRESS
    # keeps an omitted flag from clobbering a global `--jobs` value.
    warm.add_argument(
        "--jobs",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="embedding worker processes (0 = one per core)",
    )
    warm.set_defaults(func=cmd_warm)

    cache = sub.add_parser("cache", help="inspect or clear the artifact cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.set_defaults(func=cmd_cache)

    sub.add_parser("tables", help="render every table and figure").set_defaults(
        func=cmd_tables
    )

    show = sub.add_parser("show", help="render one experiment")
    show.add_argument("experiment", choices=sorted(EXPERIMENTS))
    show.set_defaults(func=cmd_show)

    dataset = sub.add_parser("dataset", help="save the collected dataset")
    dataset.add_argument("--out", required=True)
    dataset.add_argument(
        "--no-artifacts", action="store_true", help="names/hashes only"
    )
    dataset.set_defaults(func=cmd_dataset)

    collect = sub.add_parser(
        "collect",
        help="run the Section II collection, optionally under fault injection",
    )
    collect.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="chaos preset ('moderate' / 'heavy') or path to a FaultPlan JSON file",
    )
    collect.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="override the fault plan's seed",
    )
    collect.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="per-operation retry budget (default: RetryPolicy default of 4)",
    )
    collect.add_argument(
        "--allow-degraded",
        action="store_true",
        help="accept (and cache) a degraded collection artifact",
    )
    collect.add_argument(
        "--out", default=None, help="save the collected dataset to this directory"
    )
    collect.add_argument(
        "--degradation-json",
        default=None,
        metavar="FILE",
        help="write the DegradationReport as canonical JSON to FILE",
    )
    collect.set_defaults(func=cmd_collect)

    publish = sub.add_parser("publish", help="write the dataset website")
    publish.add_argument("--out", required=True)
    publish.set_defaults(func=cmd_publish)

    export = sub.add_parser("export", help="export MALGRAPH")
    export.add_argument("--out", required=True)
    export.add_argument(
        "--format", choices=("graphml", "dot", "csv"), default="graphml"
    )
    export.add_argument(
        "--edges", help="comma-separated edge types (default: all)"
    )
    export.set_defaults(func=cmd_export)

    query = sub.add_parser("query", help="run a Cypher-like graph query")
    query.add_argument("query")
    query.add_argument(
        "--json",
        action="store_true",
        help="emit {columns, rows, row_count, elapsed_ms} JSON instead of a table",
    )
    query.set_defaults(func=cmd_query)

    sub.add_parser(
        "validate", help="score groups against ground truth"
    ).set_defaults(func=cmd_validate)

    sub.add_parser(
        "census", help="malware-family census over similarity groups"
    ).set_defaults(func=cmd_census)

    actors = sub.add_parser(
        "actors", help="actor aliases recovered from security reports"
    )
    actors.add_argument("--top", type=int, default=10)
    actors.set_defaults(func=cmd_actors)

    sub.add_parser(
        "insights", help="the paper's four lessons, measured (exit 1 if any fails)"
    ).set_defaults(func=cmd_insights)

    report = sub.add_parser("report", help="write the full evaluation as markdown")
    report.add_argument("--out", default=None, help="output file (default: stdout)")
    report.set_defaults(func=cmd_report)

    whatif = sub.add_parser(
        "whatif", help="defense response-time sweep (attacker yield)"
    )
    whatif.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[0.25, 0.5, 1.0, 2.0, 4.0],
        help="detection latency multipliers to sweep",
    )
    whatif.set_defaults(func=cmd_whatif)

    stability = sub.add_parser(
        "stability", help="Section II-D metric stability over snapshots"
    )
    stability.add_argument("--snapshots", type=int, default=6)
    stability.set_defaults(func=cmd_stability)

    detect = sub.add_parser("detect", help="evaluate the detector on the corpus")
    detect.add_argument("--sample", type=int, default=None)
    detect.set_defaults(func=cmd_detect)

    scan = sub.add_parser("scan", help="scan a package directory")
    scan.add_argument("path")
    scan.add_argument("--ecosystem", default="pypi")
    scan.set_defaults(func=cmd_scan)

    enrich = sub.add_parser(
        "enrich", help="threat-intel verdict for an indicator (exit 1 if malicious)"
    )
    enrich.add_argument("name", nargs="?", default=None, help="package name")
    enrich.add_argument(
        "--pkg-version", default=None, help="package version to pin the lookup"
    )
    enrich.add_argument("--sha256", default=None, help="artifact code signature")
    enrich.add_argument("--ecosystem", default=None)
    enrich.set_defaults(func=cmd_enrich)

    update = sub.add_parser(
        "update",
        help="evolve a saved MALGRAPH bundle with an events JSONL (delta, no rebuild)",
    )
    update.add_argument(
        "--graph", required=True, metavar="DIR",
        help="bundle directory written by `repro dataset` + save_malgraph_bundle",
    )
    update.add_argument("events", help="events JSONL file (one GraphEvent per line)")
    update.add_argument(
        "--out", default=None, metavar="DIR",
        help="write the evolved bundle here (default: update --graph in place)",
    )
    update.set_defaults(func=cmd_update)

    serve = sub.add_parser("serve", help="run the enrichment HTTP API")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8742)
    serve.add_argument("--cache", type=int, default=4096, help="LRU capacity")
    serve.add_argument(
        "--shards",
        type=int,
        default=8,
        help="LRU shard count (distinct-key lookups contend per shard, not globally)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="REQ_PER_S",
        help="per-client token-bucket rate limit in requests/second "
        "(429 + Retry-After when exceeded; 0 = no limiting)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=None,
        help="token-bucket burst size (default: the --rate-limit value)",
    )
    serve.add_argument(
        "--webhook",
        default=None,
        metavar="URL",
        help="POST a new-detections event to URL whenever a published "
        "refresh adds packages (retries with backoff; failures land in "
        "the dead-letter book under /v1/metrics)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every request and print the metrics summary on shutdown",
    )
    serve.set_defaults(func=cmd_serve)

    feed = sub.add_parser(
        "feed",
        help="export the STIX-ish detection feed (what GET /v1/feed serves)",
    )
    feed.add_argument(
        "--cursor",
        default=None,
        help="resume a paginated walk from this opaque cursor (one page)",
    )
    feed.add_argument(
        "--limit",
        type=int,
        default=None,
        help="page size; with no --cursor, returns just the first page",
    )
    feed.add_argument(
        "--out", default=None, help="write the JSON here instead of stdout"
    )
    feed.set_defaults(func=cmd_feed)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    import json

    from repro import pipeline

    parser = build_parser()
    args = parser.parse_args(argv)
    pipeline.configure(
        cache_dir=args.cache_dir,
        disk_enabled=False if args.no_disk_cache else None,
    )
    pipeline.reset_report()
    try:
        return args.func(args)
    finally:
        report = pipeline.get_report()
        if args.report:
            print(report.render(), file=sys.stderr)
        if args.report_json:
            Path(args.report_json).write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
