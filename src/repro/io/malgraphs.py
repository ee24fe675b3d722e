"""Save / load a built MALGRAPH.

The graph itself (nodes, pairwise edges, cliques) serialises through
:meth:`repro.core.graph.PropertyGraph.to_dict`; the similarity result
the :class:`~repro.core.malgraph.MalGraph` facade carries alongside it
is stored as node-id lists and re-linked against the owning dataset's
entries on load. The duplicated, dependency and co-existing lists are
written too, but a loaded graph derives them from its dataset.
Deserialisation therefore needs the *same* collected dataset the graph
was built from — the pipeline cache guarantees that by addressing both
artifacts with one configuration fingerprint.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import json

import numpy as np

from repro.collection.records import DatasetEntry, MalwareDataset
from repro.core.edges import SimilarBuildResult, node_id
from repro.core.graph import PropertyGraph
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig, SimilarityResult
from repro.errors import DatasetError

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.store import ArtifactStore

PathLike = Union[str, Path]

MALGRAPH_FILENAME = "malgraph.json"


def malgraph_to_dict(malgraph: MalGraph) -> dict:
    """Serialise everything :class:`MalGraph` holds except the dataset."""
    clustering = malgraph.similar.clustering
    return {
        "graph": malgraph.graph.to_dict(),
        "similar": {
            "groups": [
                [node_id(e.package) for e in group]
                for group in malgraph.similar.groups
            ],
            "embedded": [
                node_id(e.package) for e in malgraph.similar.embedded_entries
            ],
            "kmeans_k": clustering.kmeans_k,
            "labels": [int(label) for label in clustering.labels],
        },
        "duplicated_groups": [
            [node_id(e.package) for e in group]
            for group in malgraph.duplicated_groups
        ],
        "dependency_edges": [
            [node_id(a.package), node_id(b.package)]
            for a, b in malgraph.dependency_edges
        ],
        "coexisting_groups": [
            [node_id(e.package) for e in group]
            for group in malgraph.coexisting_groups
        ],
    }


def malgraph_from_dict(raw: dict, dataset: MalwareDataset) -> MalGraph:
    """Re-link a serialised MALGRAPH against its dataset's entries.

    Raises :class:`~repro.errors.DatasetError` when a stored node id has
    no matching dataset entry — the sign of a payload/dataset mismatch,
    which cache readers treat as a corrupt entry and rebuild from.
    """
    by_node: Dict[str, DatasetEntry] = {
        node_id(entry.package): entry for entry in dataset.entries
    }

    def entry_of(node: str) -> DatasetEntry:
        try:
            return by_node[node]
        except KeyError:
            raise DatasetError(
                f"serialised MALGRAPH references unknown package node {node!r}"
            ) from None

    def entries_of(nodes: List[str]) -> List[DatasetEntry]:
        return [entry_of(node) for node in nodes]

    similar_raw = raw["similar"]
    embedded = entries_of(similar_raw["embedded"])
    index_of = {node: i for i, node in enumerate(similar_raw["embedded"])}
    clustering = SimilarityResult(
        groups=[
            sorted(index_of[node] for node in group)
            for group in similar_raw["groups"]
        ],
        labels=np.asarray(similar_raw["labels"], dtype=np.int64),
        kmeans_k=similar_raw["kmeans_k"],
    )
    similar = SimilarBuildResult(
        groups=[entries_of(group) for group in similar_raw["groups"]],
        clustering=clustering,
        embedded_entries=embedded,
    )
    return MalGraph(
        graph=PropertyGraph.from_dict(raw["graph"]),
        dataset=dataset,
        similar=similar,
    )


def canonical_malgraph_dict(malgraph: MalGraph) -> dict:
    """:func:`malgraph_to_dict` in canonical form.

    A delta-evolved graph holds the same cliques as a cold rebuild but
    in a different insertion order (surgery replaces cliques at the
    end); clique order is the *only* legitimate divergence, so the
    canonical form sorts each edge type's clique list. Everything else —
    nodes, pairwise edges (already sorted), similarity groups, the
    facade's group lists — is order-deterministic by construction.
    """
    raw = malgraph_to_dict(malgraph)
    raw["graph"]["cliques"] = {
        type_name: sorted(cliques)
        for type_name, cliques in raw["graph"]["cliques"].items()
    }
    return raw


def canonical_malgraph_json(malgraph: MalGraph) -> str:
    """Canonical JSON: the delta engine's byte-identity anchor.

    ``apply_delta(base, events)`` and a cold ``MalGraph.build`` over the
    post-events collection must produce identical strings here.
    """
    return json.dumps(canonical_malgraph_dict(malgraph), sort_keys=True)


def save_malgraph_bundle(malgraph: MalGraph, directory: PathLike) -> Path:
    """Dataset + graph in one directory (a delta-evolved graph's dataset
    has no collection fingerprint of its own, so the pair must travel
    together)."""
    from repro.io.datasets import save_dataset

    directory = Path(directory)
    save_dataset(malgraph.dataset, directory)
    save_malgraph(malgraph, directory)
    return directory


def load_malgraph_bundle(
    directory: PathLike,
    similarity: Optional[SimilarityConfig] = None,
    store: Optional["ArtifactStore"] = None,
) -> MalGraph:
    """Load a bundle written by :func:`save_malgraph_bundle`, recording
    ``similarity`` and ``store`` on it as :func:`load_malgraph` does."""
    from repro.io.datasets import load_dataset

    dataset = load_dataset(directory)
    return load_malgraph(directory, dataset, similarity, store)


def save_malgraph(malgraph: MalGraph, directory: PathLike) -> Path:
    """Write ``malgraph.json`` under ``directory`` (dataset not included)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / MALGRAPH_FILENAME
    target.write_text(json.dumps(malgraph_to_dict(malgraph), sort_keys=True))
    return directory


def load_malgraph(
    directory: PathLike,
    dataset: MalwareDataset,
    similarity: Optional[SimilarityConfig] = None,
    store: Optional["ArtifactStore"] = None,
) -> MalGraph:
    """Load a MALGRAPH written by :func:`save_malgraph`.

    The payload holds no settings, so the loaded graph records the ones
    given: its deltas cluster with ``similarity`` (the graph was built
    with it; None means the stock configuration) and read vectors from
    ``store``'s embedding tiers instead of embedding the corpus again.
    """
    payload = (Path(directory) / MALGRAPH_FILENAME).read_text()
    malgraph = malgraph_from_dict(json.loads(payload), dataset)
    malgraph.similarity_config = similarity
    malgraph.store = store
    return malgraph
