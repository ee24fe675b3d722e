"""The persistent ``embeddings`` tier: vectors keyed by embedder
fingerprint + artifact SHA256 survive into new stores/processes, config
sweeps re-cluster without re-embedding, and corruption degrades to a
rebuild — never a crash or a wrong vector."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.delta import GraphEvent
from repro.core.embedding import AstEmbedder
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig, cluster_artifacts
from repro.ecosystem.package import make_artifact
from repro.pipeline.store import ArtifactStore, EMBEDDINGS_STAGE, META_FILENAME
from tests.core.helpers import dataset, entry


def _artifacts(count: int = 6):
    return [
        make_artifact(
            "pypi",
            f"pkg{idx}",
            "1.0.0",
            {
                f"pkg{idx}/main.py": (
                    f"def run_{idx}(arg):\n"
                    f"    value_{idx} = arg + {idx}\n"
                    f"    return value_{idx}\n"
                )
            },
        )
        for idx in range(count)
    ]


def _store(tmp_path) -> ArtifactStore:
    return ArtifactStore(cache_dir=tmp_path / "cache", disk_enabled=True)


def test_embedding_cache_round_trip_across_stores(tmp_path):
    """A second store over the same cache dir (a fresh process, in
    effect) re-clusters with zero re-embeds and identical results."""
    artifacts = _artifacts()
    cold = cluster_artifacts(artifacts, store=_store(tmp_path))
    assert cold.timings.cache_hits == 0
    assert cold.timings.cache_misses == cold.timings.unique_artifacts

    warm = cluster_artifacts(artifacts, store=_store(tmp_path))
    assert warm.timings.cache_misses == 0
    assert warm.timings.cache_hits == warm.timings.unique_artifacts
    assert warm.groups == cold.groups
    assert np.array_equal(warm.labels, cold.labels)


def test_cached_vectors_match_direct_embedding(tmp_path):
    """What comes back from disk is the vector, not an approximation."""
    artifacts = _artifacts()
    embedder = AstEmbedder()
    cluster_artifacts(artifacts, store=_store(tmp_path))
    loaded = _store(tmp_path).load_embeddings(
        embedder.fingerprint(), [a.sha256() for a in artifacts]
    )
    for artifact in artifacts:
        assert np.array_equal(
            loaded[artifact.sha256()], embedder.embed_package(artifact)
        )


def test_similarity_sweep_never_re_embeds(tmp_path):
    """Changing clustering-only knobs re-clusters from cached vectors —
    the sweep the embeddings tier exists for."""
    artifacts = _artifacts()
    cluster_artifacts(artifacts, store=_store(tmp_path))
    for config in (
        SimilarityConfig(min_similarity=0.5),
        SimilarityConfig(start_k=5),
        SimilarityConfig(seed=9),
        SimilarityConfig(min_similarity=None),
    ):
        result = cluster_artifacts(artifacts, config, store=_store(tmp_path))
        assert result.timings.cache_misses == 0, config


def test_embedder_knob_change_misses_the_cache(tmp_path):
    """dim/weights change the vectors, so they address a new cache entry."""
    artifacts = _artifacts()
    cluster_artifacts(artifacts, store=_store(tmp_path))
    result = cluster_artifacts(
        artifacts, SimilarityConfig(dim=128), store=_store(tmp_path)
    )
    assert result.timings.cache_misses == result.timings.unique_artifacts


def test_corrupt_vector_file_falls_back_to_rebuild(tmp_path):
    artifacts = _artifacts()
    baseline = cluster_artifacts(artifacts, store=_store(tmp_path))
    entry_dir = (
        tmp_path / "cache" / EMBEDDINGS_STAGE / AstEmbedder().fingerprint()
    )
    victim = artifacts[0].sha256()
    (entry_dir / f"{victim}.npy").write_bytes(b"not a numpy file")

    result = cluster_artifacts(artifacts, store=_store(tmp_path))
    # exactly the corrupt vector is re-embedded; the rest still hit
    assert result.timings.cache_misses == 1
    assert result.groups == baseline.groups
    # ... and the rebuilt vector repaired the entry for the next run
    repaired = cluster_artifacts(artifacts, store=_store(tmp_path))
    assert repaired.timings.cache_misses == 0


def test_corrupt_meta_invalidates_the_whole_entry(tmp_path):
    artifacts = _artifacts()
    baseline = cluster_artifacts(artifacts, store=_store(tmp_path))
    entry_dir = (
        tmp_path / "cache" / EMBEDDINGS_STAGE / AstEmbedder().fingerprint()
    )
    (entry_dir / META_FILENAME).write_text("{broken json")

    result = cluster_artifacts(artifacts, store=_store(tmp_path))
    assert result.timings.cache_misses == result.timings.unique_artifacts
    assert result.groups == baseline.groups


def test_memory_tier_serves_repeat_builds_without_disk(tmp_path):
    """Within one process the sha → vector map lives in the store's
    memory LRU; a repeat build is fully warm even with disk disabled,
    and the delta engine's similar stage reads and fills the same map."""
    artifacts = _artifacts()
    store = ArtifactStore(cache_dir=tmp_path / "cache", disk_enabled=False)
    cold = cluster_artifacts(artifacts, store=store)
    assert cold.timings.cache_misses == cold.timings.unique_artifacts
    warm = cluster_artifacts(artifacts, store=store)
    assert warm.timings.cache_misses == 0

    base = MalGraph.build(
        dataset(
            [replace(entry(a.id.name, a.id.version), artifact=a) for a in artifacts]
        ),
        store=store,
    )
    trimmed, removal = base.apply_delta(
        [GraphEvent.package_removed(artifacts[0].id)]
    )
    assert removal.embed_cache_misses == 0
    newcomer = entry("fresh", code="def fresh(arg):\n    return arg * 7\n")
    grown, addition = trimmed.apply_delta([GraphEvent.package_added(newcomer)])
    assert addition.embed_cache_misses == 1
    rebuilt = cluster_artifacts(
        [e.artifact for e in grown.dataset.available_entries()], store=store
    )
    assert rebuilt.timings.cache_misses == 0


def test_embedding_cache_crosses_real_process_boundary(tmp_path):
    """A child process warms the cache dir; the parent re-clusters with
    zero re-embeds — the 'warmed cache survives into new processes'
    guarantee, for real."""
    repo_src = Path(__file__).resolve().parents[2] / "src"
    cache_dir = tmp_path / "shared-cache"
    # The child builds the same artifacts _artifacts() does and warms
    # the shared cache dir from a completely separate interpreter.
    script = (
        "import sys\n"
        "from repro.core.similarity import cluster_artifacts\n"
        "from repro.ecosystem.package import make_artifact\n"
        "from repro.pipeline.store import ArtifactStore\n"
        "artifacts = [\n"
        "    make_artifact('pypi', f'pkg{i}', '1.0.0',\n"
        "                  {f'pkg{i}/main.py': f'def run_{i}(arg):\\n"
        "    value_{i} = arg + {i}\\n    return value_{i}\\n'})\n"
        "    for i in range(6)\n"
        "]\n"
        "result = cluster_artifacts(\n"
        "    artifacts, store=ArtifactStore(cache_dir=sys.argv[1])\n"
        ")\n"
        "assert result.timings.cache_misses > 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cache_dir)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr

    result = cluster_artifacts(
        _artifacts(), store=ArtifactStore(cache_dir=cache_dir)
    )
    assert result.timings.cache_misses == 0
