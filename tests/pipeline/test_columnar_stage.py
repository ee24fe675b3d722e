"""The columnar artifact tier of :class:`PipelineRuntime`.

A disk hit memory-maps the arrays and elides the entire upstream chain
(no world simulation, no JSONL parse) — the defining property this file
pins down, along with the degraded-corpus quarantine the collection
stage already enforces.
"""

from __future__ import annotations

from repro.core.columnar import ColumnarMalwareDataset
from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
from repro.world import WorldConfig

from tests.core.test_columnar_roundtrip import canonical
from tests.pipeline.test_runtime import SMALL, runtime_for


def _trace(runtime: PipelineRuntime):
    return [(r.stage, r.status, r.source) for r in runtime.report.runs]


def test_columnar_builds_then_memory_hits(tmp_path):
    runtime = runtime_for(tmp_path, disk_enabled=False)
    first = runtime.columnar()
    assert isinstance(first, ColumnarMalwareDataset)
    assert runtime.columnar() is first
    # second call: memory hit; the upstream stages were already resolved
    # by the first call, so they are not counted again as elided hits
    assert _trace(runtime) == [
        ("world", "miss", "build"),
        ("collection", "miss", "build"),
        ("columnar", "miss", "build"),
        ("columnar", "hit", "memory"),
    ]


def test_disk_hit_mmaps_in_and_elides_the_world(tmp_path):
    warm = runtime_for(tmp_path)
    built = warm.columnar()

    cold = runtime_for(tmp_path)  # fresh store + report, same cache dir
    loaded = cold.columnar()
    assert _trace(cold) == [
        ("columnar", "hit", "disk"),
        ("collection", "hit", "elided"),
        ("world", "hit", "elided"),
    ]
    assert loaded is not built
    # the mmapped facade hydrates to the very same bytes
    assert canonical(loaded) == canonical(built)


def test_columnar_hydration_matches_collection_dataset(tmp_path):
    runtime = runtime_for(tmp_path, disk_enabled=False)
    assert canonical(runtime.columnar()) == canonical(runtime.dataset())


def test_columnar_fingerprint_tracks_collection_not_similarity(tmp_path):
    from repro.core.similarity import SimilarityConfig

    default = runtime_for(tmp_path, disk_enabled=False)
    tweaked = PipelineRuntime(
        SMALL,
        SimilarityConfig(min_similarity=None),
        store=ArtifactStore(disk_enabled=False),
    )
    assert default.fingerprint("columnar") == tweaked.fingerprint("columnar")
    other_world = PipelineRuntime(
        WorldConfig(seed=4, scale=0.05), store=ArtifactStore(disk_enabled=False)
    )
    assert default.fingerprint("columnar") != other_world.fingerprint("columnar")


def test_degraded_corpus_is_not_cached(tmp_path):
    """Under heavy chaos without allow_degraded, the columnar artifact
    resolves for the call but never lands in the cache (same quarantine
    as the collection stage)."""
    from repro.reliability import FaultPlan

    store = ArtifactStore(cache_dir=tmp_path / "cache", disk_enabled=True)
    runtime = PipelineRuntime(
        SMALL,
        store=store,
        report=PipelineReport(),
        fault_plan=FaultPlan.heavy(11),
    )
    held = runtime.columnar()
    assert runtime.collection().stats.degraded  # the plan actually bit
    fp = runtime.fingerprint("columnar")
    assert store.get_memory("columnar", fp) is None
    assert not store.has_disk("columnar", fp)
    # ... but the quarantined facade still hydrates
    assert held.entries or held.reports
