"""Edge builders: the four relationships of Section III-A.

Each builder consumes the collected :class:`MalwareDataset` and emits
edges into a :class:`PropertyGraph` whose nodes are dataset entries
(one per unique malicious package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.collection.records import DatasetEntry, MalwareDataset
from repro.core.graph import EdgeType, PropertyGraph
from repro.core.similarity import SimilarityConfig, SimilarityResult, cluster_artifacts
from repro.ecosystem.package import PackageId


def node_id(package: PackageId) -> str:
    """Stable node id for a package."""
    return f"{package.ecosystem}:{package.name}@{package.version}"


def node_attrs(entry: DatasetEntry) -> Dict:
    """The paper's seven node attributes for one entry."""
    return dict(
        name=entry.package.name,
        version=entry.package.version,
        ecosystem=entry.package.ecosystem,
        sources=sorted(entry.sources),
        sha256=entry.sha256(),
        path=entry.artifact_origin,
        release_day=entry.release_day,
    )


def add_dataset_nodes(graph: PropertyGraph, dataset: MalwareDataset) -> None:
    """One node per dataset entry, with the paper's seven attributes:
    id, name, version, source, hash, path and ecosystem."""
    for entry in dataset.entries:
        graph.add_node(node_id(entry.package), **node_attrs(entry))


# ---------------------------------------------------------------------------
# Duplicated
# ---------------------------------------------------------------------------

def duplicated_groups_of(dataset: MalwareDataset) -> List[List[DatasetEntry]]:
    """Signature groups (>= 2 sharers) in first-occurrence order.

    Pure — no graph involved; shared by the cold builder below and
    ``MalGraph.duplicated_groups``.
    """
    by_hash: Dict[str, List[DatasetEntry]] = {}
    for entry in dataset.available_entries():
        by_hash.setdefault(entry.sha256(), []).append(entry)
    return [members for members in by_hash.values() if len(members) >= 2]


def build_duplicated_edges(
    graph: PropertyGraph, dataset: MalwareDataset
) -> List[List[DatasetEntry]]:
    """Same signature => same package (Section III-A duplicated edge).

    Entries are keyed by (ecosystem, name, version), so name-level
    duplicates across sources are already merged; what remains is the
    'brock-loader' / 'soltalabs-ramda-extra' case — identical code
    published under different coordinates. Each signature group becomes a
    clique.
    """
    groups = duplicated_groups_of(dataset)
    for members in groups:
        graph.add_clique([node_id(e.package) for e in members], EdgeType.DUPLICATED)
    return groups


# ---------------------------------------------------------------------------
# Dependency
# ---------------------------------------------------------------------------

def dependency_pairs_of(
    dataset: MalwareDataset,
) -> List[Tuple[DatasetEntry, DatasetEntry]]:
    """Directed (dependant, dependency) pairs between dataset packages.

    Pure — the cold builder adds the graph edges on top, and
    ``MalGraph.dependency_edges`` is this list.
    """
    name_index = dataset.name_index()
    pairs: List[Tuple[DatasetEntry, DatasetEntry]] = []
    for entry in dataset.available_entries():
        for dep_name in entry.artifact.metadata.dependencies:
            targets = name_index.get((entry.package.ecosystem, dep_name), ())
            for target in targets:
                if target.package == entry.package:
                    continue
                pairs.append((entry, target))
    return pairs


def build_dependency_edges(
    graph: PropertyGraph, dataset: MalwareDataset
) -> List[Tuple[DatasetEntry, DatasetEntry]]:
    """Malicious package depends on malicious package (Fig. 7).

    Dependencies on packages *not* in the dataset are dependencies on
    legitimate packages and are discarded, per the paper: "We remove
    those dependency libraries from legitimate packages, only considering
    the dependency between malicious packages."
    """
    edges = dependency_pairs_of(dataset)
    for entry, target in edges:
        graph.add_edge(
            node_id(entry.package), node_id(target.package), EdgeType.DEPENDENCY
        )
    return edges


# ---------------------------------------------------------------------------
# Similar
# ---------------------------------------------------------------------------

@dataclass
class SimilarBuildResult:
    """Similarity groups plus the underlying clustering diagnostics."""

    groups: List[List[DatasetEntry]]
    clustering: SimilarityResult
    embedded_entries: List[DatasetEntry]


def similar_groups_of(
    dataset: MalwareDataset,
    cluster: Callable[[List[DatasetEntry]], SimilarityResult],
) -> SimilarBuildResult:
    """Cluster the dataset's embeddable entries and resolve each group
    to its entries.

    Only entries with an artifact holding code can be embedded (the
    paper likewise can only hash/embed the packages it actually holds).
    ``cluster`` maps those entries to their :class:`SimilarityResult`:
    the cold pipeline, or the delta engine's incremental stage.
    """
    entries = [e for e in dataset.available_entries() if e.artifact.code_files()]
    clustering = cluster(entries)
    return SimilarBuildResult(
        groups=[[entries[i] for i in members] for members in clustering.groups],
        clustering=clustering,
        embedded_entries=entries,
    )


def build_similar_edges(
    graph: PropertyGraph,
    dataset: MalwareDataset,
    config: Optional[SimilarityConfig] = None,
    store=None,
) -> SimilarBuildResult:
    """Similar code base => similar edge, via the clustering pipeline.

    ``store`` enables the persistent embedding cache (see
    :func:`repro.core.similarity.cluster_artifacts`).
    """
    similar = similar_groups_of(
        dataset,
        lambda entries: cluster_artifacts(
            [e.artifact for e in entries], config, store=store
        ),
    )
    for group in similar.groups:
        graph.add_clique([node_id(e.package) for e in group], EdgeType.SIMILAR)
    return similar


# ---------------------------------------------------------------------------
# Co-existing
# ---------------------------------------------------------------------------

def coexisting_group_of_report(
    dataset: MalwareDataset, report
) -> Optional[List[DatasetEntry]]:
    """One report's resolved unique members, or None when fewer than 2."""
    members = [dataset.get(p) for p in report.packages]
    members = [m for m in members if m is not None]
    unique = {m.package: m for m in members}
    if len(unique) < 2:
        return None
    return list(unique.values())


def coexisting_groups_of(dataset: MalwareDataset) -> List[List[DatasetEntry]]:
    """Qualifying report groups in report order (pure; what
    ``MalGraph.coexisting_groups`` reads)."""
    groups: List[List[DatasetEntry]] = []
    for report in dataset.reports:
        group = coexisting_group_of_report(dataset, report)
        if group is not None:
            groups.append(group)
    return groups


def build_coexisting_edges(
    graph: PropertyGraph, dataset: MalwareDataset
) -> List[List[DatasetEntry]]:
    """Same security report => co-existing edge (clique per report)."""
    groups = coexisting_groups_of(dataset)
    for group in groups:
        graph.add_clique(
            [node_id(e.package) for e in group], EdgeType.COEXISTING
        )
    return groups
