"""cold_chain's process under test: the analyst's ``repro warm`` plus
``repro tables`` path in one fresh process.

It builds the world, collects, encodes the corpus columnar, builds
MALGRAPH and renders every experiment of ``repro.cli.EXPERIMENTS``, all
through the program's own ``PipelineRuntime`` with an in-memory artifact
store. The world is pinned (seed 7, scale 1) so its outputs can be
checked against the digests in ``pinned.json``. After the chain it reads
the tables again a few times, as an analyst re-running ``repro tables``
on a warm process would; the workload seed only orders those re-renders.

Protocol: prints ``{"msg": "ready", "ns": ...}`` once its imports are
done (``--imports-only`` stops there), then runs and writes its
measurements to ``--out`` before printing ``{"msg": "done"}``.
"""

from __future__ import annotations

import argparse
from importlib import import_module
import hashlib
import random
import time

from common import (
    WORLD,
    message,
    now_ns,
    reference_burst,
    use_checkout_source,
    write_json,
)

#: re-renders of all experiments after the chain (one read = one pass)
READ_PASSES = 4


def install_tracing(tracer) -> None:
    """Wrap the public entry points of every layer the chain loads."""
    # import_module, not "import a.b as c": repro.core re-exports a
    # function named kmeans that shadows the submodule attribute.
    mirrorsearch = import_module("repro.collection.mirrorsearch")
    builtin = import_module("repro.connectors.builtin")
    kmeans = import_module("repro.core.kmeans")
    sns = import_module("repro.intel.sns")
    web = import_module("repro.intel.web")
    corpus = import_module("repro.malware.corpus")
    world = import_module("repro.world")
    from repro.connectors.base import Connector
    from repro.core.columnar import ColumnarDataset
    from repro.core.embedding import AstEmbedder
    from repro.core.malgraph import MalGraph
    from repro.crawler.spider import Spider
    from repro.ecosystem.mirror import MirrorRegistry
    from repro.ecosystem.registry import Registry
    from repro.intel.reports import ReportFactory
    from repro.intel.sources import AttributionEngine

    def pulled(tracer, result):
        tracer.totals["connectors.records"] += len(result.records)

    def grown(tracer, result):
        tracer.totals["similarity.kmeans_iters"] += sum(r.iterations for r in result[1])

    tracer.patch_function(world, "build_world", "world.build_world")
    tracer.patch_function(world, "collect", "collection.collect")
    tracer.patch_function(corpus, "build_corpus", "malware.build_corpus")
    tracer.patch_method(Registry, "publish", "ecosystem.publish")
    tracer.patch_method(MirrorRegistry, "sync", "ecosystem.mirror_sync")
    tracer.count_method(Registry, "live_snapshot", "ecosystem.live_snapshot")
    tracer.patch_method(AttributionEngine, "attribute", "intel.attribute")
    tracer.patch_method(ReportFactory, "build", "intel.reports")
    tracer.patch_function(web, "build_web", "intel.build_web")
    tracer.patch_function(sns, "build_feed", "intel.build_feed")
    for cls in (Connector, *vars(builtin).values()):
        if isinstance(cls, type) and "pull" in cls.__dict__:
            tracer.patch_method(cls, "pull", "connectors.pull", pulled)
    tracer.patch_method(Spider, "crawl", "crawler.crawl")
    tracer.patch_function(
        mirrorsearch, "recover_from_mirrors", "collection.recover"
    )
    tracer.patch_method(ColumnarDataset, "from_dataset", "columnar.encode")
    tracer.patch_method(MalGraph, "build", "malgraph.build")
    tracer.patch_method(AstEmbedder, "embed_many", "embedding.embed_many")
    tracer.patch_function(kmeans, "grow_kmeans", "similarity.grow_kmeans", grown)


def render(artifacts, experiments, key: str) -> str:
    """One experiment exactly as ``repro tables`` prints it."""
    result = getattr(artifacts, experiments[key])()
    if result is None:
        return f"{key}: no qualifying data in this world"
    return result.render()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--imports-only", action="store_true")
    args = parser.parse_args()

    use_checkout_source()
    from repro.cli import EXPERIMENTS
    from repro.io.malgraphs import canonical_malgraph_json
    from repro.paper import PaperArtifacts
    from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
    from repro.pipeline.report import current_peak_rss_kb
    from repro.world import WorldConfig

    message("ready", ns=now_ns())
    if args.imports_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracing(tracer)

    config = WorldConfig(**WORLD)
    runtime = PipelineRuntime(
        config,
        store=ArtifactStore(disk_enabled=False),
        report=PipelineReport(),
    )
    stage_s = {}
    rss_kb = {}
    # Reference bursts at the chain's step boundaries time this process's
    # own core, before and after each step (see common.SpeedProbe).
    bursts = [reference_burst(0)]
    started = now_ns()
    cpu_started = time.process_time()
    for stage, resolve in (
        ("world", runtime.world),
        ("collection", runtime.collection),
        ("columnar", runtime.columnar),
        ("malgraph", runtime.malgraph),
    ):
        begun = now_ns()
        resolve()
        stage_s[stage] = (now_ns() - begun) / 1e9
        rss_kb[stage] = current_peak_rss_kb()
        bursts.append(reference_burst(len(bursts)))
    artifacts = PaperArtifacts(config, runtime=runtime)
    rendered = {}
    first_render_s = {}
    for key in EXPERIMENTS:
        begun = now_ns()
        rendered[key] = render(artifacts, EXPERIMENTS, key)
        first_render_s[key] = (now_ns() - begun) / 1e9
    chain_s = (now_ns() - started) / 1e9 - sum(bursts[1:])
    chain_cpu_s = time.process_time() - cpu_started
    bursts.append(reference_burst(len(bursts)))

    rng = random.Random(args.seed)
    reads_ms = []
    read_mismatches = 0
    for _ in range(READ_PASSES):
        keys = list(EXPERIMENTS)
        rng.shuffle(keys)
        begun = now_ns()
        texts = {key: render(artifacts, EXPERIMENTS, key) for key in keys}
        reads_ms.append((now_ns() - begun) / 1e6)
        read_mismatches += any(texts[key] != rendered[key] for key in keys)
        bursts.append(reference_burst(len(bursts)))
    peak_kb = current_peak_rss_kb()

    if tracer is not None:
        tracer.enabled = False
    malgraph = runtime.malgraph()
    tables = "".join(rendered[key] + "\n\n" for key in EXPERIMENTS)
    stats = runtime.collection().stats
    timings = malgraph.similar.clustering.timings
    write_json(
        args.out,
        {
            "chain_s": chain_s,
            "chain_cpu_s": chain_cpu_s,
            "bursts": bursts,
            "stage_s": stage_s,
            "rss_kb": rss_kb,
            "peak_kb": peak_kb,
            "first_render_s": first_render_s,
            "reads_ms": reads_ms,
            "read_mismatches": read_mismatches,
            "entries": len(runtime.dataset()),
            "digests": {
                "malgraph": hashlib.sha256(
                    canonical_malgraph_json(malgraph).encode("utf-8")
                ).hexdigest(),
                "tables": hashlib.sha256(tables.encode("utf-8")).hexdigest(),
            },
            "books": {
                "pages_fetched": stats.crawl.pages_fetched,
                "reports_extracted": stats.crawl.reports_extracted,
                "recovery_attempted": stats.recovery.attempted,
                "recovery_recovered": stats.recovery.recovered,
                "artifacts": timings.artifacts if timings else 0,
                "unique_artifacts": timings.unique_artifacts if timings else 0,
                "split_s": timings.split_seconds if timings else 0.0,
            },
            "trace": tracer.export() if tracer is not None else None,
        },
    )
    message("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
