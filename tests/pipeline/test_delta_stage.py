"""Deltas on graphs a pipeline runtime resolved: a loaded graph
records the settings it was built with and the store that holds its
vectors, so its deltas equal cold builds and embed only new code."""

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
from repro.io.malgraphs import (
    canonical_malgraph_json,
    load_malgraph_bundle,
    save_malgraph_bundle,
)
from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
from repro.pipeline.report import SOURCE_DISK
from repro.pipeline.stages import STAGE_COLLECTION, STAGE_MALGRAPH
from repro.pipeline.store import EMBEDDINGS_STAGE
from repro.world import WorldConfig

from tests.core.helpers import entry

SMALL = WorldConfig(seed=3, scale=0.05)


def _batch(dataset):
    fresh = entry("delta-added-pkg", code="def added():\n    return 41\n")
    return [
        GraphEvent.package_removed(dataset.entries[0].package),
        GraphEvent.package_added(fresh),
    ]


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
    before = loaded.dataset
    events = known_batch(before)
    after = apply_events_to_dataset(before, events)
    storeless, _ = MalGraph.build(before).apply_delta(events)
    _, delta = loaded.apply_delta(events)
    assert delta.embed_cache_misses == 0
    assert delta.embed_cache_hits == unique_embeddable(after)
    assert f"embedded 0 of {delta.embed_cache_hits} artifacts" in delta.summary()

    expected = canonical_malgraph_json(MalGraph.build(after))
    assert canonical_malgraph_json(storeless) == expected
    assert canonical_malgraph_json(loaded) == expected


def test_loaded_bundles_record_the_settings_and_the_store(cache_dir, tmp_path):
    """An evolved graph saved as a bundle and loaded by a new process's
    runtime clusters with that runtime's configuration and reads the
    vectors its store holds: the next delta embeds nothing."""
    _, loaded = loaded_graph(cache_dir)
    loaded.apply_delta(known_batch(loaded.dataset))
    bundle = save_malgraph_bundle(loaded, tmp_path / "bundle")

    fresh = open_runtime(cache_dir)
    head = load_malgraph_bundle(bundle, fresh.similarity, fresh.store)
    assert head.similarity_config is fresh.similarity
    assert head.store is fresh.store
    assert canonical_malgraph_json(head) == canonical_malgraph_json(loaded)
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
