"""The delta stage: advance() chains content addresses across batches."""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path
from typing import Set

import pytest

from repro.core.delta import GraphEvent, apply_events_to_dataset
from repro.core.embedding import AstEmbedder
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig
from repro.io.malgraphs import canonical_malgraph_json
from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
from repro.pipeline.report import SOURCE_DISK
from repro.pipeline.stages import STAGE_COLLECTION, STAGE_DELTA, STAGE_MALGRAPH
from repro.pipeline.store import EMBEDDINGS_STAGE
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


# -- the store a loaded graph records -----------------------------------------
#
# A "loaded graph" is the MALGRAPH that a fresh runtime, with a new
# ArtifactStore over a warmed cache directory, loads from disk: what a
# new process serving a cached corpus starts from.


def open_runtime(cache_dir: Path) -> PipelineRuntime:
    """A runtime as a new process opens it: a new store over ``cache_dir``."""
    return PipelineRuntime(
        SMALL,
        store=ArtifactStore(cache_dir=cache_dir, disk_enabled=True),
        report=PipelineReport(),
    )


def loaded_graph(cache_dir: Path):
    """(runtime, graph): the graph a fresh runtime loads from disk."""
    runtime = open_runtime(cache_dir)
    malgraph = runtime.malgraph()
    assert [r.source for r in runtime.report.runs if r.stage == STAGE_MALGRAPH] == [
        SOURCE_DISK
    ]
    return runtime, malgraph


def embeddable(dataset):
    return [e for e in dataset.available_entries() if e.artifact.code_files()]


def known_batch(dataset):
    """A removal and a detection: the batch publishes no payload."""
    gone, seen = embeddable(dataset)[:2]
    return [
        GraphEvent.package_removed(gone.package),
        GraphEvent.package_detected(
            dataclasses.replace(seen, downloads=seen.downloads + 1)
        ),
    ]


def unique_embeddable(dataset) -> int:
    return len({e.sha256() for e in embeddable(dataset)})


def vector_files(cache_dir: Path) -> Set[str]:
    """The SHA256s whose vectors the disk tier under ``cache_dir`` holds."""
    return {path.stem for path in (cache_dir / EMBEDDINGS_STAGE).glob("*/*.npy")}


@pytest.fixture(scope="module")
def warmed_cache(tmp_path_factory) -> Path:
    """A cache directory one runtime warmed: collection, MALGRAPH and
    every vector the build embedded."""
    cache_dir = tmp_path_factory.mktemp("warmed") / "cache"
    open_runtime(cache_dir).warm()
    return cache_dir


@pytest.fixture()
def cache_dir(tmp_path, warmed_cache) -> Path:
    """A private copy of the warmed cache, which the test may change."""
    return Path(shutil.copytree(warmed_cache, tmp_path / "cache"))


def test_loaded_graph_deltas_without_re_embedding_the_corpus(cache_dir):
    """Regression: a loaded graph's first delta re-embedded every
    artifact, because the engine never saw the store the graph came
    from, whose disk tier holds every vector."""
    runtime, loaded = loaded_graph(cache_dir)
    assert loaded.store is runtime.store
    events = known_batch(loaded.dataset)
    evolved, delta = loaded.apply_delta(events)
    after = apply_events_to_dataset(loaded.dataset, events)
    assert delta.embed_cache_misses == 0
    assert delta.embed_cache_hits == unique_embeddable(after)
    assert f"embedded 0 of {delta.embed_cache_hits} artifacts" in delta.summary()

    storeless, _ = MalGraph.build(loaded.dataset).apply_delta(events)
    expected = canonical_malgraph_json(MalGraph.build(after))
    assert canonical_malgraph_json(storeless) == expected
    assert canonical_malgraph_json(evolved) == expected


def test_forks_and_loaded_bundles_keep_the_store(cache_dir):
    runtime, loaded = loaded_graph(cache_dir)
    events = known_batch(loaded.dataset)
    fork, _ = loaded.apply_delta(events)
    assert fork is not loaded
    assert fork.store is runtime.store

    runtime.advance(events)  # writes the evolved bundle to disk
    fresh = open_runtime(cache_dir)
    head = fresh.advance(events)
    assert [r.source for r in fresh.report.runs if r.stage == STAGE_DELTA] == [
        SOURCE_DISK
    ]
    assert head.store is fresh.store
    _, delta = head.apply_delta(known_batch(head.dataset))
    assert delta.embed_cache_misses == 0


def test_a_storeless_graph_embeds_on_its_first_delta_and_writes_nothing(
    small_dataset, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph built without a store touched one")

    for method in ("embedding_memory", "load_embeddings", "save_embeddings"):
        monkeypatch.setattr(ArtifactStore, method, refuse)
    built = MalGraph.build(small_dataset)
    assert built.store is None
    events = known_batch(small_dataset)
    _, delta = built.apply_delta(events)
    assert delta.embed_cache_hits == 0
    assert delta.embed_cache_misses == unique_embeddable(
        apply_events_to_dataset(small_dataset, events)
    )


def test_a_new_payload_writes_exactly_its_vector(cache_dir):
    _, loaded = loaded_graph(cache_dir)
    before = vector_files(cache_dir)
    fresh = entry("delta-added-pkg", code="def added():\n    return 41\n")
    assert fresh.sha256() not in before
    _, delta = loaded.apply_delta([GraphEvent.package_added(fresh)])
    assert delta.embed_cache_misses == 1
    assert vector_files(cache_dir) == before | {fresh.sha256()}


def test_a_deleted_vector_file_is_the_only_one_embedded(cache_dir, monkeypatch):
    _, loaded = loaded_graph(cache_dir)
    events = known_batch(loaded.dataset)
    storeless, _ = MalGraph.build(loaded.dataset).apply_delta(events)
    dropped = embeddable(loaded.dataset)[2].sha256()
    (vector,) = (cache_dir / EMBEDDINGS_STAGE).glob(f"*/{dropped}.npy")
    vector.unlink()

    embedded = []
    embed_many = AstEmbedder.embed_many

    def spy(self, artifacts, *args, **kwargs):
        embedded.extend(artifact.sha256() for artifact in artifacts)
        return embed_many(self, artifacts, *args, **kwargs)

    monkeypatch.setattr(AstEmbedder, "embed_many", spy)
    evolved, delta = loaded.apply_delta(events)
    assert embedded == [dropped]
    assert delta.embed_cache_misses == 1
    assert dropped in vector_files(cache_dir)
    assert canonical_malgraph_json(evolved) == canonical_malgraph_json(storeless)
