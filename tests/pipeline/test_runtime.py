"""PipelineRuntime: stage resolution, reporting, facade integration."""

from __future__ import annotations

from repro.core.similarity import SimilarityConfig
from repro.paper import PaperArtifacts, default_artifacts
from repro.pipeline import (
    ArtifactStore,
    PipelineReport,
    PipelineRuntime,
    STAGES,
)
from repro.world import WorldConfig, default_collection, default_dataset, default_world

SMALL = WorldConfig(seed=3, scale=0.05)


def runtime_for(tmp_path, disk_enabled=True, store=None) -> PipelineRuntime:
    store = store or ArtifactStore(
        cache_dir=tmp_path / "cache", disk_enabled=disk_enabled
    )
    return PipelineRuntime(SMALL, store=store, report=PipelineReport())


def test_first_resolution_builds_then_memory_hits(tmp_path):
    runtime = runtime_for(tmp_path, disk_enabled=False)
    first = runtime.malgraph()
    assert runtime.malgraph() is first
    counts = runtime.report.counts()
    for stage in STAGES:
        assert counts[stage]["misses"] == 1, counts
    # The second malgraph() call hit memory. The upstream stages were
    # already built by the first call, so nothing is elided and counted.
    assert counts["malgraph"]["hits"] == 1
    assert counts["collection"]["hits"] == 0
    assert counts["world"]["hits"] == 0


def test_world_identity_is_preserved(tmp_path):
    runtime = runtime_for(tmp_path)
    assert runtime.world() is runtime.world()


def test_fresh_store_resolves_from_disk(tmp_path):
    warm = runtime_for(tmp_path).warm()
    baseline = warm.malgraph()

    # A fresh store + report over the same cache dir: a cold process.
    cold = runtime_for(tmp_path)
    reloaded = cold.malgraph()
    counts = cold.report.counts()
    for stage in STAGES:
        assert counts[stage] == {"hits": 1, "misses": 0}, counts
    assert reloaded is not baseline

    from repro.analysis import compute_graph_stats

    assert (
        compute_graph_stats(reloaded).render()
        == compute_graph_stats(baseline).render()
    )


def test_a_stage_elided_then_built_counts_once(tmp_path):
    """Regression: on a warm disk cache the collection's load elides the
    world, and a later call that needs the world itself (``repro
    tables`` reads its mirrors) builds it. The build replaces the elided
    row, so the books read 0 hits / 1 miss, not 1 / 1."""
    runtime_for(tmp_path).warm()
    cold = runtime_for(tmp_path)
    cold.malgraph()
    cold.world()
    assert [(r.stage, r.status, r.source) for r in cold.report.runs] == [
        ("collection", "hit", "disk"),
        ("malgraph", "hit", "disk"),
        ("world", "miss", "build"),
    ]
    assert cold.report.counts()["world"] == {"hits": 0, "misses": 1}


def test_corrupt_disk_entry_triggers_clean_rebuild(tmp_path):
    warm = runtime_for(tmp_path).warm()
    store = warm.store
    for stage in ("collection", "malgraph"):
        fp = warm.fingerprint(stage)
        entry_dir = store.cache_dir / stage / fp
        for payload in entry_dir.iterdir():
            payload.write_text("corrupted beyond recognition")

    cold = runtime_for(tmp_path)
    rebuilt = cold.malgraph()  # must not raise
    assert rebuilt.graph.nodes()
    counts = cold.report.counts()
    assert counts["malgraph"]["misses"] == 1
    # The rebuild repaired the cache: the next cold store hits again.
    repaired = runtime_for(tmp_path)
    repaired.malgraph()
    assert repaired.report.counts()["malgraph"] == {"hits": 1, "misses": 0}


def test_report_render_mentions_every_stage(tmp_path):
    runtime = runtime_for(tmp_path, disk_enabled=False)
    runtime.warm()
    rendered = runtime.report.render()
    for stage in STAGES:
        assert stage in rendered


def test_malgraph_fingerprint_includes_similarity(tmp_path):
    default = PipelineRuntime(SMALL, store=ArtifactStore(disk_enabled=False))
    tweaked = PipelineRuntime(
        SMALL,
        SimilarityConfig(min_similarity=None),
        store=ArtifactStore(disk_enabled=False),
    )
    assert default.fingerprint("malgraph") != tweaked.fingerprint("malgraph")
    assert default.fingerprint("world") == tweaked.fingerprint("world")


# -- facade integration ------------------------------------------------------

def test_world_defaults_share_one_artifact():
    assert default_world(seed=3, scale=0.05) is default_world(seed=3, scale=0.05)
    assert default_collection(seed=3, scale=0.05) is default_collection(
        seed=3, scale=0.05
    )
    assert default_dataset(seed=3, scale=0.05) is default_dataset(seed=3, scale=0.05)


def test_paper_facade_shares_the_store_with_world_defaults():
    artifacts = PaperArtifacts(SMALL)
    assert artifacts.collection is default_collection(seed=3, scale=0.05)
    assert artifacts.dataset is default_dataset(seed=3, scale=0.05)


def test_default_artifacts_memoised_per_full_config():
    a = default_artifacts(seed=3, scale=0.05)
    assert default_artifacts(seed=3, scale=0.05) is a


def test_default_artifacts_distinguishes_horizon_and_latency():
    base = default_artifacts(seed=3, scale=0.05)
    horizon = default_artifacts(seed=3, scale=0.05, horizon=2000)
    latency = default_artifacts(seed=3, scale=0.05, detection_latency_scale=2.0)
    assert base is not horizon
    assert base is not latency
    assert horizon.config.horizon == 2000
    assert latency.config.detection_latency_scale == 2.0
    assert len(horizon.dataset) != 0
    assert horizon.collection is not base.collection


def test_default_artifacts_distinguishes_similarity_config():
    base = default_artifacts(seed=3, scale=0.05)
    tweaked = default_artifacts(
        seed=3, scale=0.05, similarity=SimilarityConfig(min_similarity=None)
    )
    assert base is not tweaked
    # Same world/collection (similarity only affects the graph stage) ...
    assert tweaked.collection is base.collection
    # ... but a distinct malgraph artifact.
    assert tweaked.malgraph is not base.malgraph


def test_malgraph_build_records_substage_timings(tmp_path):
    """A built malgraph leaves embed/cluster/split rows (with embedding
    cache counters) in the report; cache hits record nothing new."""
    runtime = runtime_for(tmp_path)
    runtime.malgraph()
    subs = {sub.name: sub for sub in runtime.report.substages}
    assert set(subs) == {"embed", "cluster", "split"}
    assert all(sub.stage == "malgraph" for sub in subs.values())
    assert all(sub.seconds >= 0.0 for sub in subs.values())
    embed = subs["embed"].detail
    assert embed["cache_misses"] == embed["unique"]  # cold store
    assert embed["artifacts"] >= embed["unique"] > 0

    before = len(runtime.report.substages)
    runtime.malgraph()  # memory hit: no build, no new substages
    assert len(runtime.report.substages) == before

    rendered = runtime.report.render()
    assert "malgraph.embed" in rendered
    assert "cache_misses" in rendered


def test_second_runtime_build_hits_the_embedding_cache(tmp_path):
    """A fresh store over the same cache dir skips every re-embed when
    only clustering knobs change (the sweep the cache exists for)."""
    runtime = runtime_for(tmp_path)
    runtime.malgraph()

    sweep = PipelineRuntime(
        SMALL,
        similarity=SimilarityConfig(min_similarity=0.5),
        store=ArtifactStore(cache_dir=tmp_path / "cache"),
        report=PipelineReport(),
    )
    sweep.malgraph()
    embed = next(
        sub for sub in sweep.report.substages if sub.name == "embed"
    ).detail
    assert embed["cache_misses"] == 0
    assert embed["cache_hits"] == embed["unique"]
