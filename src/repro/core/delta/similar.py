"""Incremental similar-edge stage.

A cold :func:`repro.core.similarity.cluster_artifacts` run spends almost
all of its time in two places: embedding every artifact and splitting
each K-Means cluster into cosine-similarity connected components. Both
are *incremental by nature*:

* embeddings are pure functions of the artifact bytes — the stage keeps
  a per-SHA256 vector cache that
  :func:`~repro.core.similarity.fill_embeddings` fills (from the
  memory and disk tiers of the pipeline store the graph records, when
  it has one), so a delta batch embeds only the artifacts nothing has
  embedded before;
* cosine similarity between two vectors does not depend on the K-Means
  clustering at all — the stage maintains *global* connected components
  of the "cosine ≥ threshold" graph over every unique rounded vector it
  has ever seen (append-only union-find over interned vector keys). A
  K-Means cluster's split then falls out almost for free: group the
  cluster's unique vectors by global component; a component whose every
  member sits in this cluster is one split-group verbatim (connectivity
  cannot depend on vectors the cluster does not contain when there are
  no vectors outside it), and only *fractured* components — those the
  clustering divided — need an exact recompute restricted to the
  cluster, which is a small matrix.

K-Means itself is deliberately re-run in full on every application: it
is cheap (well under a second at scale 10), globally unstable under
point insertion (a warm-started variant finds different basins), and the
byte-identity contract against a cold rebuild requires the exact cold
clustering. The expensive stages around it are what the caches remove.
The stage keeps only those caches: the K-Means run, group assembly,
store tiers and cosine kernel are the cold pipeline's own
(:func:`~repro.core.similarity.cluster_embedded`,
:func:`~repro.core.similarity.fill_embeddings`,
:func:`~repro.core.similarity.link_similar`).

Vector keys use the rounded row bytes. ``np.unique`` in the cold path
compares by value, which differs from byte identity only for ``-0.0``
vs ``0.0`` rows; numerically equal vectors have cosine 1.0 to every
common neighbour, so the induced components — the only thing consumed —
are identical either way.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.collection.records import DatasetEntry
from repro.core.similarity import (
    IntUnionFind,
    SimilarityConfig,
    SimilarityResult,
    SimilarityTimings,
    cluster_embedded,
    fill_embeddings,
    link_similar,
)


class IncrementalSimilarStage:
    """Stateful replacement for ``cluster_artifacts`` on the delta path.

    One instance accumulates vector and cosine-component knowledge
    across successive :meth:`recompute` calls; its output is exactly
    what the cold pipeline would produce over the same entries.
    """

    def __init__(self, config: SimilarityConfig):
        self.config = config
        #: sha256 -> unit embedding vector (the per-artifact cache)
        self._vectors: Dict[str, np.ndarray] = {}
        #: sha256 -> row in the stacked vector matrix (gather source)
        self._sha_row: Dict[str, int] = {}
        self._sha_matrix = np.empty((0, config.dim))
        #: sha256 -> interned key id of its rounded vector
        self._sha_key: Dict[str, int] = {}
        #: rounded-row-bytes -> interned key id (its row of _key_matrix)
        self._key_ids: Dict[bytes, int] = {}
        self._key_matrix = np.empty((0, config.dim))
        #: global cosine components over the interned keys
        self._components = IntUnionFind()

    def _gather(self, shas: Sequence[str]) -> np.ndarray:
        """The (n, dim) input as a vectorised row gather over a persistent
        per-sha matrix; rows are the exact cached vectors, so the matrix
        equals the cold path's."""
        new_rows: List[np.ndarray] = []
        for sha in shas:
            if sha not in self._sha_row:
                self._sha_row[sha] = len(self._sha_row)
                new_rows.append(self._vectors[sha])
        if new_rows:
            # stacked onto a float64 matrix, so rows stay float64 whatever
            # dtype a store tier handed back
            self._sha_matrix = np.vstack([self._sha_matrix, *new_rows])
        index = np.fromiter(
            (self._sha_row[sha] for sha in shas), dtype=np.intp, count=len(shas)
        )
        return self._sha_matrix[index]

    def _ids_for(self, shas: Sequence[str]) -> List[int]:
        """Key id per row via the per-SHA cache.

        A vector's rounded key is a pure function of the artifact bytes,
        so only shas never seen before are rounded and interned; keys new
        to the stage are linked into the global components.
        """
        new = [sha for sha in dict.fromkeys(shas) if sha not in self._sha_key]
        if new:
            first_new = self._key_matrix.shape[0]
            new_rows: List[np.ndarray] = []
            rounded = np.vstack([self._vectors[sha] for sha in new]).round(9)
            for sha, row in zip(new, rounded):
                key = row.tobytes()
                if key not in self._key_ids:
                    self._key_ids[key] = first_new + len(new_rows)
                    new_rows.append(row)
                self._sha_key[sha] = self._key_ids[key]
            if new_rows:
                self._key_matrix = np.vstack([self._key_matrix, *new_rows])
                link_similar(
                    self._key_matrix,
                    self.config.min_similarity,
                    self._components,
                    start=first_new,
                )
        return [self._sha_key[sha] for sha in shas]

    def _split_cluster(
        self, members: np.ndarray, ids: Sequence[int]
    ) -> List[List[int]]:
        """Cosine connected components of one cluster, via the cache.

        Mirrors ``_similarity_components``: members sharing one unique
        vector always stay together, and with a single unique vector the
        whole cluster is one component.
        """
        by_key: Dict[int, List[int]] = {}
        for member in members.tolist():
            by_key.setdefault(ids[member], []).append(member)
        if len(by_key) == 1:
            return list(by_key.values())
        blocks: Dict[int, List[int]] = {}
        for key in by_key:
            blocks.setdefault(self._components.find(key), []).append(key)
        components: List[List[int]] = []
        for root, keys in blocks.items():
            if len(keys) == self._components.size[root]:
                # the whole global component lives in this cluster: its
                # connectivity uses no outside vectors, so it is one
                # split-group verbatim
                merged: List[int] = []
                for key in keys:
                    merged.extend(by_key[key])
                components.append(merged)
                continue
            # a fractured component: exact recompute restricted to the
            # cluster's keys
            linked = link_similar(self._key_matrix[keys], self.config.min_similarity)
            grouped: Dict[int, List[int]] = {}
            for position, key in enumerate(keys):
                grouped.setdefault(linked.find(position), []).extend(by_key[key])
            components.extend(grouped.values())
        return components

    def recompute(
        self, entries: Sequence[DatasetEntry], store=None
    ) -> SimilarityResult:
        """Re-run the similarity pipeline over ``entries`` incrementally.

        Byte-identical to ``cluster_artifacts([e.artifact for e in
        entries], config, store)`` — same groups, labels, kmeans_k. The
        embed timing covers stacking and interning never-seen vectors.
        """
        config = self.config
        timings = SimilarityTimings(artifacts=len(entries), jobs=config.jobs)
        started = time.perf_counter()
        shas = fill_embeddings(
            config, [e.artifact for e in entries], self._vectors, timings, store
        )
        X = self._gather(shas)
        ids = self._ids_for(shas) if config.min_similarity is not None else []
        timings.embed_seconds = time.perf_counter() - started
        return cluster_embedded(
            X, config, timings, lambda members: self._split_cluster(members, ids)
        )
