"""Similar-edge pipeline: AST -> embedding -> K-Means -> groups.

Implements Section III-A's four-step recipe: (1) parse each package's
source into an AST, (2) embed it, (3) cluster embeddings with the
growing-k K-Means, (4) link packages that share a cluster.

The paper notes the clustering can produce false positives ("two packages
use similar codes but belong to two different groups") which they remove
by manual inspection; :attr:`SimilarityConfig.min_similarity` automates
that pass — each K-Means cluster is re-split into cosine-similarity
connected components, so loosely attached members drop off.

This stage dominates ``MalGraph.build`` wall time, so it is the one that
scales with the hardware: embedding fans out over ``jobs`` worker
processes (deduplicated by SHA256 first), vectors persist in the
:mod:`repro.pipeline` store's ``embeddings`` tier keyed by an
embedder-only fingerprint (a ``min_similarity``/``start_k`` sweep never
re-embeds), and every substage is timed into
:class:`SimilarityTimings` so the win is observable.

Each step has one implementation here, which the delta engine's
incremental stage (:mod:`repro.core.delta.similar`) calls too:
:func:`fill_embeddings` (store tiers, then the embedder),
:func:`cluster_embedded` (K-Means, per-cluster split, group order) and
:func:`link_similar` (the blocked cosine kernel over
:class:`IntUnionFind`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.embedding import DEFAULT_DIM, AstEmbedder
from repro.core.kmeans import GrowthTrace, KMeansResult, grow_kmeans
from repro.ecosystem.package import PackageArtifact

#: Row-block size of :func:`link_similar`'s cosine matmul: one block of
#: the cosine matrix is materialised at a time, so a single huge cluster
#: (the registering-flood case) cannot allocate O(m²) memory at once.
SIMILARITY_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SimilarityConfig:
    """Knobs of the similarity pipeline."""

    dim: int = DEFAULT_DIM
    start_k: int = 3  # the paper's initial cluster count
    seed: int = 0
    max_k: Optional[int] = None
    duplicate_eps: float = 0.05
    #: cosine threshold of the automated false-positive pass; set to None
    #: to reproduce the raw cluster-co-membership edges.
    min_similarity: Optional[float] = 0.90
    structural_weight: float = 0.15
    lexical_weight: float = 5.0
    #: embedding worker processes (0 = one per core). An execution knob,
    #: not a result knob: it is excluded from pipeline fingerprints
    #: because the output is byte-identical for any value.
    jobs: int = 1


@dataclass
class SimilarityTimings:
    """Per-substage wall time and embedding-cache accounting."""

    embed_seconds: float = 0.0
    cluster_seconds: float = 0.0
    split_seconds: float = 0.0
    artifacts: int = 0
    unique_artifacts: int = 0
    #: unique SHA256s served from the persistent embedding cache
    cache_hits: int = 0
    #: unique SHA256s that had to be embedded this run
    cache_misses: int = 0
    jobs: int = 1

    def to_dict(self) -> dict:
        return {
            "embed_seconds": self.embed_seconds,
            "cluster_seconds": self.cluster_seconds,
            "split_seconds": self.split_seconds,
            "artifacts": self.artifacts,
            "unique_artifacts": self.unique_artifacts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": self.jobs,
        }

    def rows(self) -> List[Tuple[str, float, Dict[str, Any]]]:
        """(substage, seconds, detail) rows for the pipeline report."""
        return [
            (
                "embed",
                self.embed_seconds,
                {
                    "artifacts": self.artifacts,
                    "unique": self.unique_artifacts,
                    "cache_hits": self.cache_hits,
                    "cache_misses": self.cache_misses,
                    "jobs": self.jobs,
                },
            ),
            ("cluster", self.cluster_seconds, {}),
            ("split", self.split_seconds, {}),
        ]


@dataclass
class SimilarityResult:
    """Cluster assignment over the embedded artifacts."""

    groups: List[List[int]]  # member indices per final group (size >= 2)
    labels: np.ndarray  # final group id per artifact (-1 = ungrouped)
    kmeans_k: int
    trace: List[GrowthTrace] = field(default_factory=list)
    timings: Optional[SimilarityTimings] = None

    @property
    def group_count(self) -> int:
        return len(self.groups)


def cluster_artifacts(
    artifacts: Sequence[PackageArtifact],
    config: Optional[SimilarityConfig] = None,
    store=None,
) -> SimilarityResult:
    """Run the full similarity pipeline over a batch of artifacts.

    ``store`` (a :class:`repro.pipeline.store.ArtifactStore`) enables the
    persistent embedding cache (see :func:`fill_embeddings`), keyed by
    the embedder-only fingerprint — so any config change outside
    ``(dim, structural_weight, lexical_weight)`` re-clusters without
    re-embedding.
    """
    config = config if config is not None else SimilarityConfig()
    timings = SimilarityTimings(artifacts=len(artifacts), jobs=config.jobs)
    started = time.perf_counter()
    vectors: Dict[str, np.ndarray] = {}
    shas = fill_embeddings(config, artifacts, vectors, timings, store)
    X = np.array([vectors[sha] for sha in shas], dtype=np.float64).reshape(
        -1, config.dim
    )
    timings.embed_seconds = time.perf_counter() - started
    return cluster_embedded(
        X,
        config,
        timings,
        lambda members: _similarity_components(X, members, config.min_similarity),
    )


def fill_embeddings(
    config: SimilarityConfig,
    artifacts: Sequence[PackageArtifact],
    vectors: MutableMapping[str, np.ndarray],
    timings: SimilarityTimings,
    store=None,
) -> List[str]:
    """Make ``vectors`` (sha256 → vector, owned by the caller) cover
    every artifact; returns each artifact's SHA256, in order, and
    records the unique/hit/miss counts in ``timings``.

    A SHA256 ``vectors`` lacks is looked up in the store's memory tier,
    then its disk tier; the rest are embedded by
    :meth:`AstEmbedder.embed_many` from one artifact each. Vectors the
    memory tier lacked are written back to it, and freshly embedded
    ones to the disk tier too, under the embedder fingerprint.
    """
    embedder = AstEmbedder(
        dim=config.dim,
        structural_weight=config.structural_weight,
        lexical_weight=config.lexical_weight,
    )
    shas = [artifact.sha256() for artifact in artifacts]
    unique: Dict[str, PackageArtifact] = {}
    for sha, artifact in zip(shas, artifacts):
        unique.setdefault(sha, artifact)
    missing = [sha for sha in unique if sha not in vectors]
    if store is not None and missing:
        fingerprint = embedder.fingerprint()
        memory = store.embedding_memory(fingerprint)
        unheld = sorted(sha for sha in missing if sha not in memory)
        if unheld:
            memory.update(store.load_embeddings(fingerprint, unheld))
        vectors.update((sha, memory[sha]) for sha in missing if sha in memory)
    computed = [sha for sha in missing if sha not in vectors]
    timings.unique_artifacts = len(unique)
    timings.cache_hits = len(unique) - len(computed)
    timings.cache_misses = len(computed)
    if computed:
        embedder.embed_many(
            [unique[sha] for sha in computed], jobs=config.jobs, cache=vectors
        )
        if store is not None:
            fresh = {sha: vectors[sha] for sha in computed}
            memory.update(fresh)
            store.save_embeddings(
                fingerprint, fresh, {"embedder": embedder.payload()}
            )
    return shas


def cluster_embedded(
    X: np.ndarray,
    config: SimilarityConfig,
    timings: SimilarityTimings,
    split: Callable[[np.ndarray], List[List[int]]],
) -> SimilarityResult:
    """Steps 3 and 4 over an embedded ``(n, dim)`` matrix.

    Runs :func:`grow_kmeans` with ``config``'s knobs, splits each
    cluster's member rows into cosine components (lists of ints) with
    ``split`` (unless ``min_similarity`` is None), and keeps the parts
    with two or more members as groups: largest first, ties by first
    member. ``labels`` gives each row its group (-1 = ungrouped).
    """
    started = time.perf_counter()
    result, trace = grow_kmeans(
        X,
        start_k=config.start_k,
        max_k=config.max_k,
        seed=config.seed,
        duplicate_eps=config.duplicate_eps,
    )
    timings.cluster_seconds = time.perf_counter() - started

    started = time.perf_counter()
    groups: List[List[int]] = []
    for members in result.clusters():
        if config.min_similarity is None:
            components = [members.tolist()]
        else:
            components = split(members)
        for component in components:
            if len(component) >= 2:
                groups.append(sorted(component))
    groups.sort(key=lambda g: (-len(g), g[0]))
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    for group_id, members in enumerate(groups):
        labels[members] = group_id
    timings.split_seconds = time.perf_counter() - started
    return SimilarityResult(
        groups=groups,
        labels=labels,
        kmeans_k=result.k,
        trace=trace,
        timings=timings,
    )


class IntUnionFind:
    """Union-find over dense int ids, list-backed, with path halving and
    union by size; :func:`link_similar` adds the ids and links them.
    ``size`` holds each root's component size."""

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.size: List[int] = []

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i


def link_similar(
    matrix: np.ndarray,
    threshold: float,
    components: Optional[IntUnionFind] = None,
    start: int = 0,
) -> IntUnionFind:
    """Union the rows of ``matrix`` (unit vectors) whose cosine is at
    least ``threshold``; returns ``components``, grown to one id per row.

    Only pairs with a row at or after ``start`` are compared: rows
    before it count as linked already, so appending rows costs
    O(new × all), not O(all²). The cosine matrix is materialised in
    :data:`SIMILARITY_BLOCK_ROWS` row blocks, so no input can demand an
    O(m²) allocation at once.
    """
    if components is None:
        components = IntUnionFind()
    parent, size, find = components.parent, components.size, components.find
    held, m = len(parent), matrix.shape[0]
    parent.extend(range(held, m))
    size.extend([1] * (m - held))
    for block_start in range(start, m, SIMILARITY_BLOCK_ROWS):
        block = matrix[block_start : block_start + SIMILARITY_BLOCK_ROWS]
        sims = block @ matrix.T
        rows, cols = np.nonzero(sims >= threshold)
        row = root = -1
        for i, j in zip((rows + block_start).tolist(), cols.tolist()):
            # (i, j) and (j, i) are both in the block matrix unless
            # j < start: link each pair once
            if i < j or j < start:
                # pairs come row by row, and ``root`` stays the root of
                # i's component across the row's links (union by size)
                if i != row:
                    row, root = i, find(i)
                other = find(j)
                if other != root:
                    if size[root] < size[other]:
                        root, other = other, root
                    parent[other] = root
                    size[root] += size[other]
    return components


def _similarity_components(
    X: np.ndarray, members: np.ndarray, threshold: float
) -> List[List[int]]:
    """Split one cluster into cosine >= threshold connected components.

    Works on *unique* vectors (duplicated code collapses to one point), so
    even the registering-flood cluster with thousands of identical
    packages costs one row. The incremental stage
    (:mod:`repro.core.delta.similar`) must reproduce this split exactly.
    """
    vectors = X[members]
    unique, inverse = np.unique(vectors.round(9), axis=0, return_inverse=True)
    if unique.shape[0] == 1:
        return [members.tolist()]
    linked = link_similar(unique, threshold)
    components: Dict[int, List[int]] = {}
    for member, position in zip(members.tolist(), inverse.tolist()):
        components.setdefault(linked.find(position), []).append(member)
    return list(components.values())
