"""MALGRAPH facade: build the full knowledge graph from a dataset.

This is the paper's primary contribution, assembled: nodes from the
collected dataset, all four edge types, Table II statistics and group
extraction, behind one class. The duplicated, dependency and
co-existing lists are views of the dataset, derived when read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.delta.engine import DeltaReport, DeltaState
    from repro.core.delta.events import GraphEvent
    from repro.core.query.indexes import GraphIndexes
    from repro.pipeline.store import ArtifactStore

from repro.collection.records import DatasetEntry, MalwareDataset
from repro.core.edges import (
    SimilarBuildResult,
    add_dataset_nodes,
    build_coexisting_edges,
    build_dependency_edges,
    build_duplicated_edges,
    build_similar_edges,
    coexisting_groups_of,
    dependency_pairs_of,
    duplicated_groups_of,
)
from repro.core.graph import EdgeType, GraphStats, PropertyGraph
from repro.core.groups import GroupKind, PackageGroup, extract_groups
from repro.core.similarity import SimilarityConfig


@dataclass
class MalGraph:
    """The malicious-package knowledge graph."""

    graph: PropertyGraph
    dataset: MalwareDataset
    similar: SimilarBuildResult
    #: kind -> (graph version, groups) as of that version
    _group_cache: Dict[GroupKind, Tuple[int, List[PackageGroup]]] = field(
        default_factory=dict, repr=False
    )
    # guards _group_cache: concurrent first calls (e.g. two HTTP threads
    # warming the intel index) must not both run extract_groups and
    # publish half-built lists
    _group_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: the SimilarityConfig this graph was built with (delta applications
    #: must cluster with the same configuration to stay byte-identical)
    similarity_config: Optional[SimilarityConfig] = None
    #: the ArtifactStore this graph was built or loaded with; its
    #: embedding tiers hold the graph's vectors, so delta applications
    #: read them from there instead of embedding the corpus again
    store: Optional["ArtifactStore"] = field(
        default=None, repr=False, compare=False
    )
    #: advanced once per applied delta batch
    delta_epoch: int = 0
    _delta_state: Optional["DeltaState"] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: MalwareDataset,
        similarity: Optional[SimilarityConfig] = None,
        store=None,
    ) -> "MalGraph":
        """Build nodes and all four edge types from a collected dataset.

        ``store`` (an :class:`repro.pipeline.store.ArtifactStore`) turns
        on the persistent embedding cache for the similar-edge stage;
        the built graph is identical with or without it. The graph
        records the store, so its deltas fill their vectors from the
        same cache; a graph built without one embeds its corpus once,
        on its first delta.
        """
        # A SimilarityConfig() default argument would be instantiated once
        # at import time and shared across every build() call.
        similarity = similarity if similarity is not None else SimilarityConfig()
        graph = PropertyGraph()
        add_dataset_nodes(graph, dataset)
        build_duplicated_edges(graph, dataset)
        build_dependency_edges(graph, dataset)
        similar = build_similar_edges(graph, dataset, similarity, store=store)
        build_coexisting_edges(graph, dataset)
        return cls(
            graph=graph,
            dataset=dataset,
            similar=similar,
            similarity_config=similarity,
            store=store,
        )

    # -- the dataset's relationship lists (derived on every read) --------
    @property
    def duplicated_groups(self) -> List[List[DatasetEntry]]:
        """Signature groups of :attr:`dataset` in first-occurrence order."""
        return duplicated_groups_of(self.dataset)

    @property
    def dependency_edges(self) -> List[Tuple[DatasetEntry, DatasetEntry]]:
        """(dependant, dependency) pairs of :attr:`dataset`."""
        return dependency_pairs_of(self.dataset)

    @property
    def coexisting_groups(self) -> List[List[DatasetEntry]]:
        """Qualifying report groups of :attr:`dataset` in report order."""
        return coexisting_groups_of(self.dataset)

    # ------------------------------------------------------------------
    def apply_delta(
        self, events: Sequence["GraphEvent"]
    ) -> Tuple["MalGraph", "DeltaReport"]:
        """Surgically update this graph, in place, from an ordered event
        batch, and return ``(self, report)``.

        The graph then equals, after canonical serialisation
        (:func:`repro.io.malgraphs.canonical_malgraph_json`), a cold
        ``MalGraph.build`` over the post-events collection. The batch is
        validated before anything changes. Readers that need the graph
        as it was answer from a query-index snapshot read before the
        batch. A graph :meth:`repro.pipeline.PipelineRuntime.malgraph`
        returned is the artifact its store's memory tier holds, so
        evolving it changes what that tier serves.

        The batch clusters with :attr:`similarity_config` and reads
        vectors from :attr:`store`: the store's memory tier, then its
        disk tier, embedding only artifacts it has never seen and
        writing those back to both tiers. The first apply bootstraps
        the delta state that later applies reuse.
        """
        from repro.core.delta.engine import apply_delta as _apply_delta

        return _apply_delta(self, events)

    # ------------------------------------------------------------------
    def groups(self, kind: GroupKind) -> List[PackageGroup]:
        """Connected-subgraph groups of one kind, memoised per graph
        version, as :func:`repro.core.query.indexes.graph_indexes` keys
        its indexes: any change to the graph reads them afresh.

        Double-checked under a lock so concurrent first callers compute
        each kind exactly once.
        """
        version = self.graph.version
        held = self._group_cache.get(kind)
        if held is not None and held[0] == version:
            return held[1]
        with self._group_lock:
            held = self._group_cache.get(kind)
            if held is None or held[0] != version:
                held = (version, extract_groups(self.graph, self.dataset, kind))
                self._group_cache[kind] = held
            return held[1]

    def query_indexes(self) -> "GraphIndexes":
        """The graph's cached query indexes, enriched with this
        MalGraph's dataset ground truth and group memberships."""
        from repro.core.query.indexes import graph_indexes

        return graph_indexes(self.graph, self)

    def table2_stats(self) -> List[GraphStats]:
        """Table II: nodes / edges / degrees per subgraph (DG, DeG, SG, CG)."""
        order = [
            EdgeType.DUPLICATED,
            EdgeType.DEPENDENCY,
            EdgeType.SIMILAR,
            EdgeType.COEXISTING,
        ]
        return [self.graph.stats(edge_type) for edge_type in order]

    @property
    def node_count(self) -> int:
        return self.graph.node_count
