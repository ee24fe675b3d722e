"""MALGRAPH core: graph store, signatures, embeddings, clustering,
groups and the Cypher-like query layer."""

from repro.core.edges import (
    SimilarBuildResult,
    add_dataset_nodes,
    build_coexisting_edges,
    build_dependency_edges,
    build_duplicated_edges,
    build_similar_edges,
    node_id,
)
from repro.core.embedding import (
    AstEmbedder,
    DEFAULT_DIM,
    cosine_similarity,
    resolve_jobs,
)
from repro.core.graph import EdgeType, GraphStats, PropertyGraph
from repro.core.groups import GroupKind, PackageGroup, extract_groups, groups_by_ecosystem
from repro.core.kmeans import GrowthTrace, KMeansResult, grow_kmeans, kmeans
from repro.core.malgraph import MalGraph
from repro.core.query import (
    GraphIndexes,
    QueryEngine,
    QueryError,
    QueryResult,
    QuerySyntaxError,
    build_indexes,
    graph_indexes,
    parse,
    render,
)
from repro.core.signatures import code_sha256, file_sha256, signature_index
from repro.core.similarity import (
    SimilarityConfig,
    SimilarityResult,
    SimilarityTimings,
    cluster_artifacts,
)

__all__ = [
    "AstEmbedder",
    "DEFAULT_DIM",
    "EdgeType",
    "GraphIndexes",
    "GraphStats",
    "GroupKind",
    "GrowthTrace",
    "KMeansResult",
    "MalGraph",
    "PackageGroup",
    "PropertyGraph",
    "QueryEngine",
    "QueryError",
    "QueryResult",
    "QuerySyntaxError",
    "SimilarBuildResult",
    "SimilarityConfig",
    "SimilarityResult",
    "SimilarityTimings",
    "add_dataset_nodes",
    "build_coexisting_edges",
    "build_dependency_edges",
    "build_duplicated_edges",
    "build_indexes",
    "build_similar_edges",
    "cluster_artifacts",
    "code_sha256",
    "cosine_similarity",
    "extract_groups",
    "file_sha256",
    "graph_indexes",
    "grow_kmeans",
    "groups_by_ecosystem",
    "kmeans",
    "node_id",
    "parse",
    "render",
    "resolve_jobs",
    "signature_index",
]
