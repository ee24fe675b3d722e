"""The delta stage: advance() chains content addresses across batches."""

from __future__ import annotations

from repro.core.delta import GraphEvent, apply_events_to_dataset
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig
from repro.io.malgraphs import canonical_malgraph_json
from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
from repro.pipeline.report import SOURCE_DISK
from repro.pipeline.stages import STAGE_COLLECTION, STAGE_DELTA, STAGE_MALGRAPH
from repro.world import WorldConfig

from tests.core.helpers import entry, report

SMALL = WorldConfig(seed=3, scale=0.05)


def _runtime(tmp_path, store=None) -> PipelineRuntime:
    store = store or ArtifactStore(cache_dir=tmp_path / "cache", disk_enabled=True)
    return PipelineRuntime(SMALL, store=store, report=PipelineReport())


def _batch(dataset):
    fresh = entry("delta-added-pkg", code="def added():\n    return 41\n")
    return [
        GraphEvent.package_removed(dataset.entries[0].package),
        GraphEvent.package_added(fresh),
    ]


def test_advance_builds_once_then_hits_cache_tiers(tmp_path):
    runtime = _runtime(tmp_path)
    events = _batch(runtime.dataset())
    first = runtime.advance(events)
    counts = runtime.report.counts()
    assert counts[STAGE_DELTA]["misses"] == 1

    # same store, fresh runtime: memory tier serves the artifact
    warm = _runtime(tmp_path, store=runtime.store)
    assert warm.advance(events) is first
    assert warm.report.counts()[STAGE_DELTA]["hits"] == 1
    assert warm.report.counts()[STAGE_DELTA]["misses"] == 0

    # fresh store over the same cache dir: a cold process, disk tier
    cold = _runtime(tmp_path)
    reloaded = cold.advance(events)
    assert reloaded is not first
    assert canonical_malgraph_json(reloaded) == canonical_malgraph_json(first)
    assert cold.report.counts()[STAGE_DELTA]["hits"] == 1
    assert reloaded.similarity_config is cold.similarity


def test_advance_matches_cold_rebuild_and_chains(tmp_path):
    runtime = _runtime(tmp_path)
    base_ds = runtime.dataset()
    first = _batch(base_ds)
    mid = runtime.advance(first)
    mid_ds = apply_events_to_dataset(base_ds, first)
    assert canonical_malgraph_json(mid) == canonical_malgraph_json(
        MalGraph.build(mid_ds)
    )

    second = [
        GraphEvent.package_detected(
            entry("delta-added-pkg", code="def added():\n    return 41\n",
                  downloads=5)
        ),
        GraphEvent.report_ingested(
            report("r-delta", [entry("delta-added-pkg").package])
        ),
    ]
    head = runtime.advance(second)
    assert head.delta_epoch == 2
    final_ds = apply_events_to_dataset(mid_ds, second)
    assert canonical_malgraph_json(head) == canonical_malgraph_json(
        MalGraph.build(final_ds)
    )
    # two delta resolutions recorded, each with its own chained address
    runs = [r for r in runtime.report.runs if r.stage == STAGE_DELTA]
    assert len(runs) == 2
    assert runs[0].fingerprint != runs[1].fingerprint
    # each build recorded its apply_delta substage with a summary line
    subs = [s for s in runtime.report.substages if s.stage == STAGE_DELTA]
    assert len(subs) == 2 and all(s.name == "apply_delta" for s in subs)


def test_disk_loaded_graph_deltas_with_the_config_it_was_built_with(
    tmp_path, small_collection
):
    """Regression: a graph loaded from the disk cache carried no
    SimilarityConfig, so a delta without ``similarity=`` (the service's
    refresh path) re-clustered with the stock config."""
    config = WorldConfig(seed=3, scale=0.15)
    similarity = SimilarityConfig(min_similarity=None, seed=3)

    def runtime() -> PipelineRuntime:
        store = ArtifactStore(cache_dir=tmp_path / "cache", disk_enabled=True)
        held = PipelineRuntime(
            config, similarity, store=store, report=PipelineReport()
        )
        # the session's collection of this world stands in for its build
        store.put_memory(
            STAGE_COLLECTION, held.fingerprint(STAGE_COLLECTION), small_collection
        )
        return held

    runtime().warm()
    fresh = runtime()
    loaded = fresh.malgraph()
    assert [r.source for r in fresh.report.runs if r.stage == STAGE_MALGRAPH] == [
        SOURCE_DISK
    ]
    events = _batch(loaded.dataset)
    evolved, _ = loaded.apply_delta(events)
    cold = MalGraph.build(
        apply_events_to_dataset(small_collection.dataset, events), similarity
    )
    assert canonical_malgraph_json(evolved) == canonical_malgraph_json(cold)
