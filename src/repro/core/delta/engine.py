"""``apply_delta``: surgical MALGRAPH updates from event batches.

The correctness anchor of the delta subsystem: for any graph and any
valid event batch,

    ``apply_delta(malgraph, events)``

evolves ``malgraph`` in place until it is byte-identical after
canonical serialisation to a cold ``MalGraph.build`` over
``apply_events_to_dataset(dataset, events)``, ``dataset`` being the one
it held before the batch.

The engine touches only what the batch touches:

* **duplicated** cliques are re-derived per affected SHA256 from a
  maintained sha -> available-packages index;
* **dependency** edges are diffed per affected package against the
  desired set (outgoing resolved via a maintained (ecosystem, name) ->
  packages index, incoming via a maintained reverse-dependents index);
* **similar** cliques come from the :class:`IncrementalSimilarStage`
  (cached embeddings + cached cosine components) and are diffed as
  member sets against the live cliques;
* **co-existing** cliques are re-derived per affected report via a
  maintained package -> mentioning-reports index.

The engine holds no clique handles: it diffs each clique's member set
before the batch against the desired one, and the graph finds the held
clique by its members. Nor does it keep settings: a batch clusters
with the configuration, and reads the store, that the graph records.
It keeps no group structure either. It records, per edge type, the
nodes whose adjacency the batch changed in the graph's
:class:`~repro.core.query.indexes.IndexPatch`, and the query-index
patch re-derives the DG/DeG/SG/CG groups holding them from its own
tables; :meth:`MalGraph.groups` extracts them from the graph when read.
The facade's duplicated / dependency / co-existing lists need no
upkeep either: :class:`MalGraph` derives them from its dataset when
they are read.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.collection.records import (
    CollectedReport,
    DatasetEntry,
    MalwareDataset,
)
from repro.core.delta.events import (
    EventKind,
    GraphEvent,
    apply_events_to_dataset,
    event_batch_hash,
)
from repro.core.delta.similar import IncrementalSimilarStage
from repro.core.edges import (
    coexisting_group_of_report,
    node_attrs,
    node_id,
    similar_groups_of,
)
from repro.core.graph import EdgeType, PropertyGraph
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig
from repro.ecosystem.package import PackageId
from repro.errors import GraphError

DepKey = Tuple[str, str]  # (ecosystem, name)


# ---------------------------------------------------------------------------
# Delta state: the indexes that make surgery O(touched)
# ---------------------------------------------------------------------------

class DeltaState:
    """The reverse indexes graph surgery reads that the graph cannot
    answer itself. Cliques and settings are the graph's own: a clique is
    found by its member set (:meth:`PropertyGraph.remove_clique`), and
    the clustering configuration and store are the ones the
    :class:`MalGraph` records."""

    def __init__(
        self,
        similar_stage: IncrementalSimilarStage,
        by_sha: Dict[str, Set[PackageId]],
        name_index: Dict[DepKey, Set[PackageId]],
        dependents: Dict[DepKey, Set[PackageId]],
        mentions: Dict[PackageId, Dict[str, CollectedReport]],
    ) -> None:
        self.similar_stage = similar_stage
        #: sha256 -> the available packages whose artifact hashes to it
        self.by_sha = by_sha
        #: (ecosystem, name) -> the packages carrying that name
        self.name_index = name_index
        #: (ecosystem, dep-name) -> the available packages declaring it
        self.dependents = dependents
        #: package -> report id -> the reports that name the package
        self.mentions = mentions

    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(cls, malgraph: MalGraph, config: SimilarityConfig) -> "DeltaState":
        """Derive the reverse indexes from a cold-built (or loaded) graph.

        Refuses (:class:`GraphError`) a graph whose co-existing cliques
        are not, as a multiset, its reports' groups: surgery finds a
        report's clique by the group the report resolved to before the
        batch, so a mismatch would surface half-way through a batch.
        """
        graph, dataset = malgraph.graph, malgraph.dataset

        by_sha: Dict[str, Set[PackageId]] = {}
        dependents: Dict[DepKey, Set[PackageId]] = {}
        for entry in dataset.available_entries():
            by_sha.setdefault(entry.sha256(), set()).add(entry.package)
            for key in _dependent_keys(entry):
                dependents.setdefault(key, set()).add(entry.package)
        name_index: Dict[DepKey, Set[PackageId]] = {}
        for pid in dataset.package_keys():
            name_index.setdefault((pid.ecosystem, pid.name), set()).add(pid)

        groups: Counter = Counter()
        mentions: Dict[PackageId, Dict[str, CollectedReport]] = {}
        for report in dataset.reports:
            members = _coexisting(dataset, report)
            if members is not None:
                groups[members] += 1
            for pid in report.packages:
                mentions.setdefault(pid, {})[report.report_id] = report
        if groups != Counter(graph.cliques(EdgeType.COEXISTING)):
            raise GraphError(
                "co-existing cliques do not match the dataset's reports"
            )

        return cls(
            similar_stage=IncrementalSimilarStage(config),
            by_sha=by_sha,
            name_index=name_index,
            dependents=dependents,
            mentions=mentions,
        )


def _dependent_keys(entry: DatasetEntry) -> Set[DepKey]:
    """(ecosystem, dep-name) keys this entry contributes dependents for."""
    if not entry.available:
        return set()
    ecosystem = entry.package.ecosystem
    return {
        (ecosystem, dep) for dep in entry.artifact.metadata.dependencies
    }


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

@dataclass
class DeltaReport:
    """What one ``apply_delta`` batch touched."""

    events: int
    epoch: int
    batch_hash: str
    seconds: float = 0.0
    packages_added: int = 0
    packages_updated: int = 0
    packages_removed: int = 0
    reports_added: int = 0
    cliques_added: Dict[str, int] = field(default_factory=dict)
    cliques_removed: Dict[str, int] = field(default_factory=dict)
    edges_added: int = 0
    edges_removed: int = 0
    nodes_touched: int = 0
    embed_cache_hits: int = 0
    embed_cache_misses: int = 0

    def summary(self) -> str:
        """One line for the ``repro update`` CLI. "embedded M of N" counts
        the batch's unique embeddable artifacts (N) and those no cache
        held (M), so a batch that re-embedded shows it."""
        cliques_added = sum(self.cliques_added.values())
        cliques_removed = sum(self.cliques_removed.values())
        unique = self.embed_cache_hits + self.embed_cache_misses
        return (
            f"epoch {self.epoch}: {self.events} events "
            f"(pkgs +{self.packages_added}/~{self.packages_updated}"
            f"/-{self.packages_removed}, reports +{self.reports_added}) | "
            f"{self.nodes_touched} nodes touched | "
            f"cliques +{cliques_added}/-{cliques_removed}, "
            f"edges +{self.edges_added}/-{self.edges_removed} | "
            f"embedded {self.embed_cache_misses} of {unique} artifacts | "
            f"{self.seconds:.2f}s"
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def apply_delta(
    malgraph: MalGraph, events: Sequence[GraphEvent]
) -> Tuple[MalGraph, DeltaReport]:
    """Apply one ordered event batch to ``malgraph``, in place.

    See :meth:`repro.core.malgraph.MalGraph.apply_delta` for the public
    contract. The batch clusters with ``malgraph.similarity_config``
    (the stock :class:`SimilarityConfig` when the graph records none)
    and reads vectors from ``malgraph.store``.
    """
    started = time.perf_counter()
    events = list(events)
    # validates the whole batch before anything is mutated
    evolved = apply_events_to_dataset(malgraph.dataset, events)

    if malgraph._delta_state is None:
        malgraph._delta_state = DeltaState.bootstrap(
            malgraph, malgraph.similarity_config or SimilarityConfig()
        )
    graph = malgraph.graph
    version_before = graph.version
    state = malgraph._delta_state

    report = DeltaReport(
        events=len(events),
        epoch=malgraph.delta_epoch + 1,
        batch_hash=event_batch_hash(events),
        cliques_added={t.value: 0 for t in EdgeType},
        cliques_removed={t.value: 0 for t in EdgeType},
    )

    # -- net dataset diff (event-derived: O(batch), not O(corpus)) ----------
    base_dataset = malgraph.dataset
    touched_pids: Dict[PackageId, None] = {}  # insertion-ordered
    for event in events:
        if event.kind is not EventKind.REPORT_INGESTED:
            touched_pids.setdefault(event.package_id(), None)
    added: List[DatasetEntry] = []
    removed: List[DatasetEntry] = []
    changed: List[Tuple[DatasetEntry, DatasetEntry]] = []
    for pid in touched_pids:
        old = base_dataset.get(pid)
        new = evolved.get(pid)
        if old is None:
            if new is not None:
                added.append(new)
        elif new is None:
            removed.append(old)
        elif new is not old:
            changed.append((old, new))
    base_report_count = len(base_dataset.reports)
    new_reports = evolved.reports[base_report_count:]
    report.packages_added = len(added)
    report.packages_updated = len(changed)
    report.packages_removed = len(removed)
    report.reports_added = len(new_reports)

    malgraph.dataset = evolved
    removed_ids = {node_id(e.package) for e in removed}
    replaced = [old for old, _ in changed]
    updated = [new for _, new in changed]

    # per type, the nodes whose adjacency this batch changed: the ends of
    # every edge or clique removed or added (the index patch's dirty set)
    touched: Dict[EdgeType, Set[str]] = {t: set() for t in EdgeType}

    # -- nodes --------------------------------------------------------------
    for entry in added + updated:
        graph.add_node(node_id(entry.package), **node_attrs(entry))

    # -- duplicated ---------------------------------------------------------
    # an affected SHA256's clique before the batch is its packages in
    # by_sha, read before the batch updates it
    gone = [(e.sha256(), e.package) for e in removed + replaced if e.available]
    came = [(e.sha256(), e.package) for e in updated + added if e.available]
    held_dup = {sha: _duplicated(state.by_sha.get(sha, ())) for sha, _ in gone + came}
    for sha, pid in gone:
        state.by_sha[sha].discard(pid)
    for sha, pid in came:
        state.by_sha.setdefault(sha, set()).add(pid)
    for sha, held in sorted(held_dup.items()):
        desired = _duplicated(state.by_sha[sha])
        _sync_clique(graph, EdgeType.DUPLICATED, held, desired, touched, report)

    # -- dependency ---------------------------------------------------------
    for entry in removed:
        pid = entry.package
        state.name_index[(pid.ecosystem, pid.name)].discard(pid)
        for key in _dependent_keys(entry):
            state.dependents.get(key, set()).discard(pid)
    for old, new in changed:
        for key in _dependent_keys(old):
            state.dependents.get(key, set()).discard(old.package)
        for key in _dependent_keys(new):
            state.dependents.setdefault(key, set()).add(new.package)
    for entry in added:
        pid = entry.package
        state.name_index.setdefault((pid.ecosystem, pid.name), set()).add(pid)
        for key in _dependent_keys(entry):
            state.dependents.setdefault(key, set()).add(pid)

    for entry in added + updated:
        nid = node_id(entry.package)
        desired = _desired_dependency(entry, state.name_index, state.dependents)
        current = graph.neighbors(nid, EdgeType.DEPENDENCY)
        for other in sorted(current - desired):
            graph.remove_edge(nid, other, EdgeType.DEPENDENCY)
            touched[EdgeType.DEPENDENCY].update((nid, other))
            report.edges_removed += 1
        for other in sorted(desired - current):
            graph.add_edge(nid, other, EdgeType.DEPENDENCY)
            touched[EdgeType.DEPENDENCY].update((nid, other))
            report.edges_added += 1

    # -- similar ------------------------------------------------------------
    similar = similar_groups_of(
        evolved,
        lambda entries: state.similar_stage.recompute(entries, store=malgraph.store),
    )
    report.embed_cache_hits = similar.clustering.timings.cache_hits
    report.embed_cache_misses = similar.clustering.timings.cache_misses
    desired_sim: Set[FrozenSet[str]] = {
        frozenset(node_id(e.package) for e in group) for group in similar.groups
    }
    held_sim = graph.cliques(EdgeType.SIMILAR)
    for members in held_sim:
        if members not in desired_sim:
            _sync_clique(graph, EdgeType.SIMILAR, members, None, touched, report)
    for members in sorted(desired_sim.difference(held_sim), key=sorted):
        _sync_clique(graph, EdgeType.SIMILAR, None, members, touched, report)
    malgraph.similar = similar

    # -- co-existing --------------------------------------------------------
    # a report's clique before the batch is its group in the pre-batch
    # dataset
    affected: Dict[str, CollectedReport] = {}
    for entry in added + removed:
        affected.update(state.mentions.get(entry.package, {}))
    for rid in sorted(affected):
        rep = affected[rid]
        held, desired = _coexisting(base_dataset, rep), _coexisting(evolved, rep)
        _sync_clique(graph, EdgeType.COEXISTING, held, desired, touched, report)
    for rep in new_reports:
        for pid in rep.packages:
            state.mentions.setdefault(pid, {})[rep.report_id] = rep
        desired = _coexisting(evolved, rep)
        _sync_clique(graph, EdgeType.COEXISTING, None, desired, touched, report)

    # -- node removal (every stale clique is already gone) ------------------
    for entry in removed:
        nid = node_id(entry.package)
        dep_neighbors = graph.neighbors(nid, EdgeType.DEPENDENCY)
        if dep_neighbors:
            touched[EdgeType.DEPENDENCY].update(dep_neighbors)
            report.edges_removed += len(dep_neighbors)
        for edge_type in EdgeType:
            touched[edge_type].add(nid)
        graph.remove_node(nid)

    # even a batch with no structural graph change (e.g. a DETECTED event
    # altering only download counts) must invalidate version-keyed caches
    if graph.version == version_before and (
        added or removed or changed or new_reports
    ):
        graph.touch()

    malgraph.delta_epoch += 1

    refreshed = {node_id(e.package) for e in added}
    refreshed |= {node_id(e.package) for _, e in changed}
    report.nodes_touched = len(removed_ids.union(refreshed, *touched.values()))
    _record_patch(
        graph,
        version_before,
        removed_ids,
        refreshed,
        {t: frozenset(nodes) for t, nodes in touched.items()},
    )

    report.seconds = time.perf_counter() - started
    return malgraph, report


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _duplicated(pids) -> Optional[FrozenSet[str]]:
    """The duplicated clique over packages sharing one SHA256, or None
    below two."""
    return frozenset(node_id(pid) for pid in pids) if len(pids) >= 2 else None


def _coexisting(
    dataset: MalwareDataset, report: CollectedReport
) -> Optional[FrozenSet[str]]:
    """The co-existing clique one report resolves to in ``dataset``, or
    None below two members."""
    group = coexisting_group_of_report(dataset, report)
    return None if group is None else frozenset(node_id(m.package) for m in group)


def _desired_dependency(
    entry: DatasetEntry,
    name_index: Dict[DepKey, Set[PackageId]],
    dependents: Dict[DepKey, Set[PackageId]],
) -> Set[str]:
    """The node's desired dependency neighbourhood in the final graph."""
    desired: Set[str] = set()
    ecosystem = entry.package.ecosystem
    if entry.available:
        for dep_name in entry.artifact.metadata.dependencies:
            for pid in name_index.get((ecosystem, dep_name), ()):
                if pid != entry.package:
                    desired.add(node_id(pid))
    for pid in dependents.get((ecosystem, entry.package.name), ()):
        if pid != entry.package:
            desired.add(node_id(pid))
    return desired


def _sync_clique(
    graph: PropertyGraph,
    edge_type: EdgeType,
    held: Optional[FrozenSet[str]],
    desired: Optional[FrozenSet[str]],
    touched: Dict[EdgeType, Set[str]],
    report: DeltaReport,
) -> None:
    """Replace the live clique over ``held`` by one over ``desired``
    (None: no clique)."""
    if held == desired:
        return
    if held is not None:
        graph.remove_clique(edge_type, held)
        touched[edge_type].update(held)
        report.cliques_removed[edge_type.value] += 1
    if desired is not None:
        graph.add_clique(sorted(desired), edge_type)
        touched[edge_type].update(desired)
        report.cliques_added[edge_type.value] += 1


def _record_patch(
    graph: PropertyGraph,
    version_before: int,
    removed_ids: Set[str],
    refreshed: Set[str],
    adjacency_touched: Dict[EdgeType, FrozenSet[str]],
) -> None:
    from repro.core.query.indexes import IndexPatch, record_index_patch

    record_index_patch(
        graph,
        IndexPatch(
            from_version=version_before,
            to_version=graph.version,
            removed_nodes=frozenset(removed_ids),
            refreshed_nodes=frozenset(refreshed),
            adjacency_touched=adjacency_touched,
        ),
    )
