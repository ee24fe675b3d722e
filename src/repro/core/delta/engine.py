"""``apply_delta``: surgical MALGRAPH updates from event batches.

The correctness anchor of the delta subsystem: for any base graph and
any valid event batch,

    ``apply_delta(base, events)``

produces a :class:`~repro.core.malgraph.MalGraph` that is byte-identical
after canonical serialisation to a cold ``MalGraph.build`` over
``apply_events_to_dataset(base.dataset, events)``.

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

The engine keeps no group structure. It records, per edge type, the
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
    """Maintained reverse indexes over one MalGraph's current contents."""

    def __init__(
        self,
        similar_stage: IncrementalSimilarStage,
        by_sha: Dict[str, Set[PackageId]],
        sha_clique: Dict[str, int],
        similar_cliques: Dict[FrozenSet[str], int],
        report_clique: Dict[str, int],
        dependents: Dict[DepKey, Set[PackageId]],
        mentions: Dict[PackageId, Set[str]],
        reports_by_id: Dict[str, CollectedReport],
        name_index: Dict[DepKey, Set[PackageId]],
    ) -> None:
        self.similar_stage = similar_stage
        self.by_sha = by_sha
        self.sha_clique = sha_clique
        self.similar_cliques = similar_cliques
        self.report_clique = report_clique
        self.dependents = dependents
        self.mentions = mentions
        self.reports_by_id = reports_by_id
        #: (ecosystem, name) -> the packages carrying that name
        self.name_index = name_index

    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(cls, malgraph: MalGraph, config: SimilarityConfig) -> "DeltaState":
        """Derive the reverse indexes from a cold-built (or loaded) graph."""
        graph, dataset = malgraph.graph, malgraph.dataset

        by_sha: Dict[str, Set[PackageId]] = {}
        for entry in dataset.available_entries():
            by_sha.setdefault(entry.sha256(), set()).add(entry.package)

        sha_clique: Dict[str, int] = {}
        for index, members in graph.live_cliques(EdgeType.DUPLICATED):
            sha = graph.node(next(iter(members)))["sha256"]
            sha_clique[sha] = index

        similar_cliques: Dict[FrozenSet[str], int] = {
            members: index
            for index, members in graph.live_cliques(EdgeType.SIMILAR)
        }

        # co-existing cliques are matched to reports by member set; two
        # reports with the same member set may hold either clique index
        # (the indices are interchangeable handles)
        pool: Dict[FrozenSet[str], List[int]] = {}
        for index, members in graph.live_cliques(EdgeType.COEXISTING):
            pool.setdefault(members, []).append(index)
        report_clique: Dict[str, int] = {}
        for report in dataset.reports:
            group = coexisting_group_of_report(dataset, report)
            if group is None:
                continue
            members = frozenset(node_id(m.package) for m in group)
            held = pool.get(members)
            if not held:
                raise GraphError(
                    "co-existing cliques do not match the dataset's reports"
                )
            report_clique[report.report_id] = held.pop()

        dependents: Dict[DepKey, Set[PackageId]] = {}
        for entry in dataset.available_entries():
            for key in _dependent_keys(entry):
                dependents.setdefault(key, set()).add(entry.package)
        name_index: Dict[DepKey, Set[PackageId]] = {}
        for pid in dataset.package_keys():
            name_index.setdefault((pid.ecosystem, pid.name), set()).add(pid)

        mentions: Dict[PackageId, Set[str]] = {}
        reports_by_id: Dict[str, CollectedReport] = {}
        for report in dataset.reports:
            reports_by_id[report.report_id] = report
            for pid in report.packages:
                mentions.setdefault(pid, set()).add(report.report_id)

        return cls(
            similar_stage=IncrementalSimilarStage(config),
            by_sha=by_sha,
            sha_clique=sha_clique,
            similar_cliques=similar_cliques,
            report_clique=report_clique,
            dependents=dependents,
            mentions=mentions,
            reports_by_id=reports_by_id,
            name_index=name_index,
        )

    def fork(self) -> "DeltaState":
        """Copy for a forked graph. The similar stage is shared: its
        caches record facts about vectors (embeddings, cosine
        components) that hold on every branch, and it only ever grows."""
        return DeltaState(
            similar_stage=self.similar_stage,
            by_sha={sha: set(pids) for sha, pids in self.by_sha.items()},
            sha_clique=dict(self.sha_clique),
            similar_cliques=dict(self.similar_cliques),
            report_clique=dict(self.report_clique),
            dependents={key: set(pids) for key, pids in self.dependents.items()},
            mentions={pid: set(rids) for pid, rids in self.mentions.items()},
            reports_by_id=dict(self.reports_by_id),
            name_index={key: set(pids) for key, pids in self.name_index.items()},
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

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "epoch": self.epoch,
            "batch_hash": self.batch_hash,
            "seconds": self.seconds,
            "packages_added": self.packages_added,
            "packages_updated": self.packages_updated,
            "packages_removed": self.packages_removed,
            "reports_added": self.reports_added,
            "cliques_added": dict(self.cliques_added),
            "cliques_removed": dict(self.cliques_removed),
            "edges_added": self.edges_added,
            "edges_removed": self.edges_removed,
            "nodes_touched": self.nodes_touched,
            "embed_cache_hits": self.embed_cache_hits,
            "embed_cache_misses": self.embed_cache_misses,
        }

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
    base: MalGraph,
    events: Sequence[GraphEvent],
    store=None,
    in_place: bool = False,
    similarity: Optional[SimilarityConfig] = None,
) -> Tuple[MalGraph, DeltaReport]:
    """Apply one ordered event batch to ``base``.

    See :meth:`repro.core.malgraph.MalGraph.apply_delta` for the public
    contract. ``similarity`` must match the configuration the base was
    built with; it defaults to ``base.similarity_config`` (falling back
    to the stock :class:`SimilarityConfig`). The clustering
    configuration is fixed by the *first* delta application — later
    calls reuse the established incremental stage. ``store`` defaults
    to ``base.store``, the store whose embedding tiers hold the base's
    vectors. The delta state is bootstrapped on ``base`` even when the
    update lands on a fork, so every fork of one base copies a single
    state (and shares its similar stage) instead of bootstrapping again.
    """
    started = time.perf_counter()
    events = list(events)
    # validates the whole batch before anything is mutated
    evolved = apply_events_to_dataset(base.dataset, events)

    config = similarity or base.similarity_config or SimilarityConfig()
    store = store if store is not None else base.store
    if base._delta_state is None:
        # on the base, not the fork: every later fork copies this state
        base._delta_state = DeltaState.bootstrap(base, config)
    target = base if in_place else _fork(base)
    graph = target.graph
    version_before = graph.version
    state = target._delta_state

    report = DeltaReport(
        events=len(events),
        epoch=target.delta_epoch + 1,
        batch_hash=event_batch_hash(events),
        cliques_added={t.value: 0 for t in EdgeType},
        cliques_removed={t.value: 0 for t in EdgeType},
    )

    # -- net dataset diff (event-derived: O(batch), not O(corpus)) ----------
    base_dataset = target.dataset
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

    target.dataset = evolved
    removed_ids = {node_id(e.package) for e in removed}

    # per type, the nodes whose adjacency this batch changed: the ends of
    # every edge or clique removed or added (the index patch's dirty set)
    touched: Dict[EdgeType, Set[str]] = {t: set() for t in EdgeType}

    # -- nodes --------------------------------------------------------------
    for entry in added:
        graph.add_node(node_id(entry.package), **node_attrs(entry))
    for _, entry in changed:
        graph.add_node(node_id(entry.package), **node_attrs(entry))

    # -- duplicated ---------------------------------------------------------
    affected_shas: Set[str] = set()
    for entry in removed:
        if entry.available:
            affected_shas.add(entry.sha256())
            state.by_sha[entry.sha256()].discard(entry.package)
    for old, new in changed:
        if old.available:
            affected_shas.add(old.sha256())
            state.by_sha[old.sha256()].discard(old.package)
        if new.available:
            affected_shas.add(new.sha256())
            state.by_sha.setdefault(new.sha256(), set()).add(new.package)
    for entry in added:
        if entry.available:
            affected_shas.add(entry.sha256())
            state.by_sha.setdefault(entry.sha256(), set()).add(entry.package)

    for sha in sorted(affected_shas):
        pids = state.by_sha.get(sha, set())
        desired = (
            frozenset(node_id(pid) for pid in pids) if len(pids) >= 2 else None
        )
        _sync_clique(
            graph,
            EdgeType.DUPLICATED,
            state.sha_clique,
            sha,
            desired,
            touched,
            report,
        )

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

    for entry in added + [new for _, new in changed]:
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
        evolved, lambda entries: state.similar_stage.recompute(entries, store=store)
    )
    report.embed_cache_hits = similar.clustering.timings.cache_hits
    report.embed_cache_misses = similar.clustering.timings.cache_misses
    desired_sim: Set[FrozenSet[str]] = {
        frozenset(node_id(e.package) for e in group) for group in similar.groups
    }
    for members in [
        held for held in state.similar_cliques if held not in desired_sim
    ]:
        index = state.similar_cliques.pop(members)
        graph.remove_clique_at(EdgeType.SIMILAR, index)
        touched[EdgeType.SIMILAR].update(members)
        report.cliques_removed[EdgeType.SIMILAR.value] += 1
    for members in sorted(
        (m for m in desired_sim if m not in state.similar_cliques), key=sorted
    ):
        index = graph.add_clique(sorted(members), EdgeType.SIMILAR)
        state.similar_cliques[members] = index
        touched[EdgeType.SIMILAR].update(members)
        report.cliques_added[EdgeType.SIMILAR.value] += 1
    target.similar = similar

    # -- co-existing --------------------------------------------------------
    affected_rids: Set[str] = set()
    for entry in added:
        affected_rids |= state.mentions.get(entry.package, set())
    for entry in removed:
        affected_rids |= state.mentions.get(entry.package, set())
    for rid in sorted(affected_rids):
        group = coexisting_group_of_report(evolved, state.reports_by_id[rid])
        desired = (
            frozenset(node_id(m.package) for m in group)
            if group is not None
            else None
        )
        _sync_clique(
            graph,
            EdgeType.COEXISTING,
            state.report_clique,
            rid,
            desired,
            touched,
            report,
        )
    for rep in new_reports:
        state.reports_by_id[rep.report_id] = rep
        for pid in rep.packages:
            state.mentions.setdefault(pid, set()).add(rep.report_id)
        group = coexisting_group_of_report(evolved, rep)
        if group is not None:
            members = frozenset(node_id(m.package) for m in group)
            index = graph.add_clique(sorted(members), EdgeType.COEXISTING)
            state.report_clique[rep.report_id] = index
            touched[EdgeType.COEXISTING].update(members)
            report.cliques_added[EdgeType.COEXISTING.value] += 1

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

    target._group_cache = {}

    # even a batch with no structural graph change (e.g. a DETECTED event
    # altering only download counts) must invalidate version-keyed caches
    if graph.version == version_before and (
        added or removed or changed or new_reports
    ):
        graph.touch()

    target.delta_epoch += 1
    target.last_delta_at = time.time()

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
    return target, report


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _fork(base: MalGraph) -> MalGraph:
    """Cheap fork: graph structurally copied, entry objects shared.

    Sharing entries is safe because every delta mutation replaces entry
    objects wholesale (events carry full replacement payloads) — nothing
    ever mutates a :class:`DatasetEntry` in place.
    """
    dup = MalGraph(
        graph=base.graph.copy(),
        dataset=MalwareDataset(
            entries=list(base.dataset.entries),
            reports=list(base.dataset.reports),
        ),
        similar=base.similar,
        similarity_config=base.similarity_config,
        store=base.store,
        delta_epoch=base.delta_epoch,
        last_delta_at=base.last_delta_at,
    )
    if base._delta_state is not None:
        dup._delta_state = base._delta_state.fork()
    return dup


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
    index_map: Dict,
    key,
    desired: Optional[FrozenSet[str]],
    touched: Dict[EdgeType, Set[str]],
    report: DeltaReport,
) -> None:
    """Make the clique registered under ``key`` match ``desired``."""
    held = index_map.get(key)
    current = graph.clique_at(edge_type, held) if held is not None else None
    if current == desired:
        return
    if held is not None:
        members = graph.remove_clique_at(edge_type, held)
        touched[edge_type].update(members)
        del index_map[key]
        report.cliques_removed[edge_type.value] += 1
    if desired is not None:
        index = graph.add_clique(sorted(desired), edge_type)
        index_map[key] = index
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
