"""Adjacency and attribute indexes over MALGRAPH, built once per graph.

The executor never walks :class:`~repro.core.graph.PropertyGraph`
structures directly: a :class:`GraphIndexes` snapshot materialises

* **per-edge-type adjacency tables** (:class:`EdgeTables`), kept in the
  shape the graph stores each relation: one sorted member tuple per live
  clique slot, each node's clique slots, and each node's sorted pairwise
  neighbours. The duplicated, similar and co-existing relations are
  cliques (Table II counts 5.3M similar edges over 6,320 nodes), so a
  ``k``-member clique costs ``k`` table entries here, not the
  ``k * (k - 1)`` of a neighbour list per member. The snapshot owns its
  tables: nothing aliases the graph's mutable sets or membership lists,
  which the service's refresh mutates in place.
  :meth:`GraphIndexes.neighbors` answers from a node's runs (one run is
  the tuple minus the node; several are merged). The executor's
  traversals and the group re-rank share one breadth-first walk
  (:func:`_layers`) over the runs keyed by clique
  (:meth:`GraphIndexes.runs`), which expands each clique once.
  Dependency additionally gets true directed ``out`` / ``into`` maps
  when built over a :class:`MalGraph` (each linked node's declared
  dependencies say who depends on whom); a type without them is
  symmetric and answers every direction from its tables;
* **node-attribute maps** — every node's merged attributes (the graph's
  seven plus, over a ``MalGraph``, the dataset's ground-truth
  ``campaign`` / ``actor`` / ``family`` / ``archetype`` / ``downloads``
  and the node's ``dg`` / ``deg`` / ``sg`` / ``cg`` group ids);
* **inverted attribute indexes** (:data:`INDEXED_ATTRS`) used by the
  planner to seed traversals from the most selective filter;
* **group-membership maps** — group id ↔ member node ids, with ids
  matching :class:`repro.service.index.IntelIndex` (``SG-0001``, …),
  plus each group's rank key (``group_ranks``), which lets a patch
  re-rank a kind without re-scanning its untouched groups.

Indexes are cached on the graph object behind a lock (the same
double-checked pattern :meth:`MalGraph.groups` uses) and invalidated by
the graph's mutation counter, so callers may simply call
:func:`graph_indexes` on every query.

The delta engine additionally records an :class:`IndexPatch` journal on
the graph, keyed on the same mutation counter: when a cached snapshot is
stale but an unbroken ``from_version -> to_version`` patch chain covers
the gap, :func:`graph_indexes` derives the next snapshot from it
(:func:`apply_index_patches`) instead of rebuilding from scratch. The
derivation is copy-on-write. It is O(touched nodes) for attrs and
attribute buckets, O(touched clique sizes) for the adjacency tables (a
clique slot the chain tombstoned is dropped, one it added is sorted
once), and O(touched groups) to re-rank the DG/DeG/SG/CG groups, which
it walks on the new snapshot's own tables. Group ids are positional, so
every group whose id shifts is rewritten: that part is O(renumbered
groups). The shallow copies of the top-level tables
(``attrs``, ``groups_of`` and the touched types' adjacency tables) stay
O(N), and the directed dependency maps take one pass over the
dependency-linked nodes. Any version gap the journal cannot bridge
(direct graph mutation, journal trimmed) falls back to a full rebuild,
so a stale read is impossible either way.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.graph import EdgeType, PropertyGraph
from repro.core.groups import GroupKind, RankKey, member_key, rank_key

#: attributes with an inverted index (equality filters on these seed
#: the traversal instead of scanning every node)
INDEXED_ATTRS = (
    "id",
    "name",
    "ecosystem",
    "sha256",
    "campaign",
    "actor",
    "family",
    "dg",
    "deg",
    "sg",
    "cg",
)

_EMPTY: Tuple[str, ...] = ()
_ALL_TYPES: Tuple[EdgeType, ...] = tuple(EdgeType)

#: one kind's groups in id order, each as (rank key, sorted members)
RankedGroups = Tuple[Tuple[RankKey, Tuple[str, ...]], ...]
#: one sorted run of a node's neighbourhood, keyed ``(edge type, clique
#: slot)`` when it is a clique (which holds the node itself) and None
#: when it is a pairwise or directed neighbour tuple
Run = Tuple[Optional[Tuple[EdgeType, int]], Tuple[str, ...]]


@dataclass(frozen=True)
class EdgeTables:
    """One edge type's adjacency, in the shape the graph stores it."""

    #: live clique slot (the graph's stable clique index) -> sorted members
    cliques: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: node -> the slots of the live cliques holding it, ascending
    slots_of: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: node -> its sorted pairwise neighbours
    pairwise: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def runs_of(self, node: str) -> List[Tuple[str, ...]]:
        """The node's pairwise tuple and clique tuples (unkeyed)."""
        found = [self.cliques[slot] for slot in self.slots_of.get(node, ())]
        pairwise = self.pairwise.get(node)
        if pairwise:
            found.append(pairwise)
        return found


@dataclass
class GraphIndexes:
    """One graph's materialised query indexes (immutable once built)."""

    nodes: Tuple[str, ...]
    attrs: Dict[str, Dict[str, Any]]
    adjacency: Dict[EdgeType, EdgeTables]
    #: directed neighbour maps of the edge types that have a direction
    #: (dependency over a ``MalGraph``); a type absent here is symmetric
    out: Dict[EdgeType, Dict[str, Tuple[str, ...]]]
    into: Dict[EdgeType, Dict[str, Tuple[str, ...]]]
    by_attr: Dict[str, Dict[Any, Tuple[str, ...]]]
    group_members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    groups_of: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: group kind value (``"DG"`` …) -> its groups in id order with their
    #: rank keys, so a patch re-ranks only the groups a batch touched
    group_ranks: Dict[str, RankedGroups] = field(default_factory=dict)
    version: int = 0
    enriched: bool = False

    # -- lookups ----------------------------------------------------------
    def node_attrs(self, node: str) -> Dict[str, Any]:
        return self.attrs.get(node, {})

    def lookup(self, attr: str, value: Any) -> Tuple[str, ...]:
        """Sorted node ids with ``attr == value`` (indexed attrs only)."""
        return self.by_attr.get(attr, {}).get(value, _EMPTY)

    def runs(
        self,
        node: str,
        types: Sequence[EdgeType] = (),
        direction: str = "any",
    ) -> List[Run]:
        """The sorted runs whose union, minus ``node``, is its
        neighbourhood over the chosen types/direction.

        ``types`` empty means every edge type. A clique run carries its
        key and holds ``node`` itself; once a traversal has expanded a
        clique from one member, every other member is already visited, so
        it may skip that key from then on.
        """
        directed_maps = {"out": self.out, "in": self.into}.get(direction, {})
        found: List[Run] = []
        for edge_type in types or _ALL_TYPES:
            directed = directed_maps.get(edge_type)
            if directed is not None:
                run = directed.get(node)
                if run:
                    found.append((None, run))
                continue
            tables = self.adjacency[edge_type]
            run = tables.pairwise.get(node)
            if run:
                found.append((None, run))
            cliques = tables.cliques
            for slot in tables.slots_of.get(node, ()):
                found.append(((edge_type, slot), cliques[slot]))
        return found

    def neighbors(
        self,
        node: str,
        types: Sequence[EdgeType] = (),
        direction: str = "any",
        limit: Optional[int] = None,
    ) -> List[str]:
        """Sorted distinct neighbours of ``node`` over the chosen
        types/direction, the first ``limit`` of them when given.

        ``types`` empty means every edge type.
        """
        # the runs of runs(), gathered unkeyed: a fixed hop calls this
        # once per bound node, and the keys would only be thrown away
        directed_maps = {"out": self.out, "in": self.into}.get(direction, {})
        found: List[Tuple[str, ...]] = []
        for edge_type in types or _ALL_TYPES:
            directed = directed_maps.get(edge_type)
            if directed is None:
                found += self.adjacency[edge_type].runs_of(node)
            elif node in directed:
                found.append(directed[node])
        return _union(found, node, limit) if found else []

    def candidate_count(self, attr: str, value: Any) -> Optional[int]:
        """Selectivity estimate for ``attr == value``; None if unindexed."""
        index = self.by_attr.get(attr)
        if index is None:
            return None
        return len(index.get(value, _EMPTY))


# ---------------------------------------------------------------------------
# Clique-once walks (the executor's traversals and the group re-rank)
# ---------------------------------------------------------------------------

def _unexpanded(runs: Iterable[Run], expanded: set) -> List[Tuple[str, ...]]:
    """``runs`` minus the cliques already in ``expanded``, which the
    ones returned join: after a clique's first expansion every member is
    visited, so expanding it again would find nothing new."""
    fresh = []
    for key, run in runs:
        if key is not None:
            if key in expanded:
                continue
            expanded.add(key)
        fresh.append(run)
    return fresh


def _layers(
    runs: Callable[[str], Iterable[Run]],
    sources: Iterable[str],
    max_hops: Optional[int],
) -> Iterator[Tuple[int, set]]:
    """Breadth-first from ``sources`` over each node's neighbour
    ``runs`` (:meth:`GraphIndexes.runs`): yields (depth, the nodes first
    reached at that depth) up to ``max_hops`` (None: unbounded).

    Each node is reached at its minimal depth only and each clique is
    expanded once, so the walk is linear in the touched nodes and
    cliques and never enumerates individual paths.
    """
    frontier = set(sources)
    seen = set(frontier)
    expanded: set = set()
    depth = 0
    while frontier and (max_hops is None or depth < max_hops):
        depth += 1
        found: set = set()
        for node in frontier:
            for run in _unexpanded(runs(node), expanded):
                found.update(run)
        found -= seen
        seen |= found
        frontier = found
        yield depth, found


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _union(
    runs: Sequence[Tuple[str, ...]], node: str, limit: Optional[int] = None
) -> List[str]:
    """The sorted distinct union of ``runs`` without ``node``, cut to its
    first ``limit`` entries when given (only those are merged)."""
    if len(runs) == 1:
        merged = list(runs[0] if limit is None else runs[0][: limit + 1])
        at = bisect_left(merged, node)
        if at < len(merged) and merged[at] == node:
            del merged[at]
        return merged if limit is None else merged[:limit]
    if limit is None:
        distinct = set().union(*runs)
        distinct.discard(node)
        return sorted(distinct)
    found: List[str] = []
    last = None
    if limit > 0:
        for other in heapq.merge(*runs):
            if other == last or other == node:
                continue
            last = other
            found.append(other)
            if len(found) == limit:
                break
    return found


def _edge_tables(graph: PropertyGraph, edge_type: EdgeType) -> EdgeTables:
    """One type's tables, copied out of the graph's clique slots and
    pairwise adjacency."""
    cliques = {
        slot: tuple(sorted(members))
        for slot, members in graph.live_cliques(edge_type)
    }
    slots_of: Dict[str, List[int]] = {}
    for slot, members in cliques.items():
        for member in members:
            slots_of.setdefault(member, []).append(slot)
    return EdgeTables(
        cliques=cliques,
        slots_of={node: tuple(slots) for node, slots in slots_of.items()},
        pairwise={
            node: tuple(sorted(others))
            for node, others in graph.pairwise_adjacency(edge_type)
        },
    )


def _directed_dependency(
    linked: EdgeTables,
    attrs: Dict[str, Dict[str, Any]],
    dataset,
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, Tuple[str, ...]]]:
    """(out, into) dependency maps from the undirected ``linked`` tables.

    A linked pair ``u -> v`` iff ``u`` holds an artifact that declares
    ``v``'s name: exactly the pairs the dependency edge builder links
    (both ends always share an ecosystem).
    """
    from repro.ecosystem.package import PackageId

    forward: Dict[str, Tuple[str, ...]] = {}
    backward: Dict[str, List[str]] = {}
    for u in linked.slots_of.keys() | linked.pairwise.keys():
        held = attrs[u]
        entry = dataset.get(
            PackageId(held["ecosystem"], held["name"], held["version"])
        )
        if entry is None or not entry.available:
            continue
        declared = set(entry.artifact.metadata.dependencies)
        targets = tuple(
            v for v in _union(linked.runs_of(u), u) if attrs[v]["name"] in declared
        )
        if targets:
            forward[u] = targets
            for v in targets:
                backward.setdefault(v, []).append(u)
    return forward, {v: tuple(sorted(found)) for v, found in backward.items()}


def build_indexes(
    graph: PropertyGraph, malgraph=None
) -> GraphIndexes:
    """Build a :class:`GraphIndexes` snapshot (no caching; see
    :func:`graph_indexes` for the cached entry point)."""
    attrs: Dict[str, Dict[str, Any]] = {
        node: {"id": node, **graph.node(node)} for node in graph.nodes()
    }

    adjacency = {edge_type: _edge_tables(graph, edge_type) for edge_type in EdgeType}
    out: Dict[EdgeType, Dict[str, Tuple[str, ...]]] = {}
    into: Dict[EdgeType, Dict[str, Tuple[str, ...]]] = {}

    group_members: Dict[str, Tuple[str, ...]] = {}
    groups_of: Dict[str, Tuple[str, ...]] = {}
    group_ranks: Dict[str, RankedGroups] = {}
    if malgraph is not None:
        from repro.core.edges import node_id

        out[EdgeType.DEPENDENCY], into[EdgeType.DEPENDENCY] = _directed_dependency(
            adjacency[EdgeType.DEPENDENCY], attrs, malgraph.dataset
        )

        for entry in malgraph.dataset.entries:
            held = attrs.get(node_id(entry.package))
            if held is not None:
                _enrich_attrs(held, entry)

        group_members, groups_of, group_attrs, group_ranks = _group_maps(malgraph)
        for node, group_ids in group_attrs.items():
            if node in attrs:
                attrs[node].update(group_ids)

    by_attr: Dict[str, Dict[Any, List[str]]] = {}
    for node in sorted(attrs):
        held = attrs[node]
        for attr in INDEXED_ATTRS:
            value = held.get(attr)
            if value is None:
                continue
            by_attr.setdefault(attr, {}).setdefault(value, []).append(node)

    return GraphIndexes(
        nodes=tuple(sorted(attrs)),
        attrs=attrs,
        adjacency=adjacency,
        out=out,
        into=into,
        by_attr={
            attr: {value: tuple(nodes) for value, nodes in buckets.items()}
            for attr, buckets in by_attr.items()
        },
        group_members=group_members,
        groups_of=groups_of,
        group_ranks=group_ranks,
        version=graph.version,
        enriched=malgraph is not None,
    )


# ---------------------------------------------------------------------------
# Incremental patching (fed by the delta engine)
# ---------------------------------------------------------------------------

#: journal length bound; a chain the trimmed journal cannot cover simply
#: falls back to a full rebuild
MAX_INDEX_PATCHES = 64


@dataclass(frozen=True)
class IndexPatch:
    """One delta batch's effect on the query indexes."""

    from_version: int
    to_version: int
    removed_nodes: FrozenSet[str]
    refreshed_nodes: FrozenSet[str]
    adjacency_touched: Dict[EdgeType, FrozenSet[str]]


def record_index_patch(graph: PropertyGraph, patch: IndexPatch) -> None:
    """Append one patch to the graph's journal (no-ops are dropped)."""
    if patch.to_version == patch.from_version:
        return
    journal = getattr(graph, "_index_patch_journal", None)
    if journal is None:
        journal = []
        graph._index_patch_journal = journal  # type: ignore[attr-defined]
    journal.append(patch)
    if len(journal) > MAX_INDEX_PATCHES:
        del journal[: len(journal) - MAX_INDEX_PATCHES]


def _patch_chain(
    graph: PropertyGraph, from_version: int
) -> Optional[List[IndexPatch]]:
    """Contiguous patches covering from_version -> graph.version, or None."""
    journal: List[IndexPatch] = getattr(graph, "_index_patch_journal", None) or []
    chain: List[IndexPatch] = []
    want = from_version
    for patch in journal:
        if patch.from_version == want:
            chain.append(patch)
            want = patch.to_version
    if chain and want == graph.version:
        return chain
    return None


def apply_index_patches(
    held: GraphIndexes,
    graph: PropertyGraph,
    patches: Sequence[IndexPatch],
    malgraph=None,
) -> GraphIndexes:
    """A fresh snapshot equal to ``build_indexes(graph, malgraph)``,
    derived from ``held`` and the patch chain that led from its version
    to the graph's.

    Copy-on-write: untouched attr dicts, adjacency rows, group tuples
    and inverted-index buckets are shared with ``held`` (both snapshots
    are immutable by convention). Per chain the work is

    * O(touched nodes): refreshed attr dicts, the touched nodes' slot
      lists and pairwise tuples, and the inverted-index buckets their
      own attributes left or joined;
    * O(touched clique sizes): a clique slot the chain tombstoned is
      dropped and one it added is sorted once
      (:func:`_patch_edge_tables`); untouched cliques are shared;
    * O(touched groups) to re-derive DG/DeG/SG/CG groups: a kind's
      groups holding a node the chain touched for that kind's edge type
      (or removed, or refreshed) are replaced by those nodes' final
      components, walked on the new snapshot's tables
      (:func:`_rerank_groups`). Re-ranking merges them into the kind's
      held rank list, which compares rank keys and tuple identities
      only; untouched groups' members are never re-scanned;
    * O(renumbered groups): ids are positional (``{kind}-{i:04d}``), so
      every id that now names different members rewrites its members'
      group attributes, ``groups_of`` entries and id bucket;
    * O(N) shallow copies of the top-level tables (``attrs``,
      ``groups_of`` and the touched types' adjacency tables) and, over a
      ``MalGraph``, one pass over the dependency-linked nodes for the
      directed maps (:func:`_directed_dependency`).
    """
    removed_any: set = set()
    refreshed_any: set = set()
    touched: Dict[EdgeType, set] = {t: set() for t in EdgeType}
    for patch in patches:
        removed_any |= patch.removed_nodes
        refreshed_any |= patch.refreshed_nodes
        for edge_type, nodes in patch.adjacency_touched.items():
            touched[edge_type] |= nodes
    # the final graph resolves remove-then-republish across the chain
    final_removed = {n for n in removed_any if not graph.has_node(n)}
    final_refresh = {
        n for n in (refreshed_any | removed_any) if graph.has_node(n)
    }

    attrs = dict(held.attrs)
    for node in final_removed:
        attrs.pop(node, None)
    for node in final_refresh:
        fresh: Dict[str, Any] = {"id": node, **graph.node(node)}
        if malgraph is not None:
            from repro.ecosystem.package import PackageId

            package = PackageId(fresh["ecosystem"], fresh["name"], fresh["version"])
            _enrich_attrs(fresh, malgraph.dataset.get(package))
        attrs[node] = fresh

    adjacency = dict(held.adjacency)
    out: Dict[EdgeType, Dict[str, Tuple[str, ...]]] = {}
    into: Dict[EdgeType, Dict[str, Tuple[str, ...]]] = {}
    for edge_type in EdgeType:
        nodes = touched[edge_type] | final_removed
        if nodes:
            adjacency[edge_type] = _patch_edge_tables(
                held.adjacency[edge_type], graph, edge_type, nodes
            )

    unchanged = not final_removed and all(n in held.attrs for n in final_refresh)
    patched = GraphIndexes(
        nodes=held.nodes if unchanged else tuple(sorted(attrs)),
        attrs=attrs,
        adjacency=adjacency,
        out=out,
        into=into,
        by_attr=_patch_by_attr(held, attrs, final_removed | final_refresh),
        group_members=held.group_members,
        groups_of=held.groups_of,
        group_ranks=held.group_ranks,
        version=graph.version,
        enriched=held.enriched,
    )
    if malgraph is not None:
        out[EdgeType.DEPENDENCY], into[EdgeType.DEPENDENCY] = _directed_dependency(
            adjacency[EdgeType.DEPENDENCY], attrs, malgraph.dataset
        )
        (
            patched.group_members,
            patched.groups_of,
            patched.group_ranks,
        ) = _rerank_groups(
            held, patched, touched, removed_any | refreshed_any, final_refresh
        )
    return patched


def _patch_edge_tables(
    held: EdgeTables, graph: PropertyGraph, edge_type: EdgeType, nodes: set
) -> EdgeTables:
    """``held`` with the rows of ``nodes`` re-read from the graph.

    A clique never changes members, so a node leaves a slot only when the
    slot is tombstoned: a held slot a node no longer holds is dropped,
    and a live slot the snapshot lacks is added as a sorted tuple. The
    delta engine touches every member of a clique it tombstones or adds,
    so ``nodes`` covers every changed slot and the cost is the touched
    cliques' sizes plus the copies of the three tables.
    """
    cliques = dict(held.cliques)
    slots_of = dict(held.slots_of)
    pairwise = dict(held.pairwise)
    incident = graph.incident_groups_fn(edge_type)
    for node in nodes:
        live: List[int] = []
        linked: Tuple[str, ...] = _EMPTY
        if graph.has_node(node):
            for (kind, key), members in incident(node):
                if kind == "p":
                    linked = tuple(sorted(members))
                    continue
                live.append(key)
                if key not in cliques:
                    cliques[key] = tuple(sorted(members))
        for slot in held.slots_of.get(node, ()):
            if slot not in live:
                cliques.pop(slot, None)
        if live:
            slots_of[node] = tuple(sorted(live))
        else:
            slots_of.pop(node, None)
        if linked:
            pairwise[node] = linked
        else:
            pairwise.pop(node, None)
    return EdgeTables(cliques=cliques, slots_of=slots_of, pairwise=pairwise)


#: the per-node group-id attributes of an enriched snapshot
_GROUP_ATTRS = ("dg", "deg", "sg", "cg")
#: the indexed attributes a node carries itself (not its group ids)
_NODE_ATTRS = tuple(a for a in INDEXED_ATTRS if a not in _GROUP_ATTRS)


def _enrich_attrs(held: Dict[str, Any], entry) -> None:
    """Add a dataset entry's ground-truth attributes to a node's attrs."""
    if entry is None:
        return
    held["campaign"] = entry.campaign_id
    held["actor"] = entry.actor
    held["family"] = entry.behavior_key
    held["archetype"] = entry.archetype
    held["downloads"] = entry.downloads


def _group_maps(malgraph):
    """(group_members, groups_of, per-node group attrs, group_ranks) of
    ``malgraph``, from its materialised groups."""
    from repro.core.edges import node_id

    group_members: Dict[str, Tuple[str, ...]] = {}
    fresh_groups_of: Dict[str, List[str]] = {}
    group_attrs: Dict[str, Dict[str, str]] = {}
    group_ranks: Dict[str, RankedGroups] = {}
    for kind in GroupKind:
        key = kind.value.lower()
        ranked = []
        for i, group in enumerate(malgraph.groups(kind)):
            group_id = f"{kind.value}-{i:04d}"
            members = tuple(sorted(node_id(m.package) for m in group.members))
            earliest = node_id(group.members[0].package)
            ranked.append((rank_key(group.size, earliest), members))
            group_members[group_id] = members
            for member in members:
                fresh_groups_of.setdefault(member, []).append(group_id)
                group_attrs.setdefault(member, {})[key] = group_id
        group_ranks[kind.value] = tuple(ranked)
    groups_of = {node: tuple(ids) for node, ids in sorted(fresh_groups_of.items())}
    return group_members, groups_of, group_attrs, group_ranks


def _rank_key(attrs: Dict[str, Dict[str, Any]], members: Tuple[str, ...]) -> RankKey:
    """A group's :func:`~repro.core.groups.rank_key`, read from its
    members' attrs (``str(PackageId)`` is the node id)."""
    earliest = min(
        members, key=lambda node: member_key(attrs[node].get("release_day"), node)
    )
    return rank_key(len(members), earliest)


def _rerank_groups(
    held: GraphIndexes,
    patched: GraphIndexes,
    touched: Dict[EdgeType, set],
    dirty_nodes: set,
    refreshed: set,
):
    """(group_members, groups_of, group_ranks) of the ``patched``
    snapshot, whose tables, ``attrs`` and ``by_attr`` are final.

    A node is dirty for a kind if ``touched`` holds it for the kind's
    edge type or it is in ``dirty_nodes`` (removed or refreshed). Held
    groups holding a dirty node are dropped and the surviving dirty
    nodes' final components, walked on ``patched``'s tables of that
    type with each clique expanded once (:func:`_layers`), take their
    place. A final component with no dirty node has the adjacency it
    had in ``held``, so it is one of the held groups. Only ids whose
    member tuple changed are rewritten; ``patched.attrs`` and
    ``patched.by_attr`` (whose id bucket is the same sorted member
    tuple) are updated in place. Nodes in ``refreshed`` have fresh attr
    dicts and always get their group attrs back.
    """
    attrs, by_attr = patched.attrs, patched.by_attr
    group_members = dict(held.group_members)
    group_ranks = dict(held.group_ranks)
    # node -> {group attr: its new group id, or None if it left one}
    moved: Dict[str, Dict[str, Optional[str]]] = {}
    for kind in GroupKind:
        prefix, key = kind.value, kind.value.lower()
        dirty = touched[kind.edge_type] | dirty_nodes
        if not dirty:
            continue
        ranked = held.group_ranks.get(prefix, ())
        stale: set = set()
        placed: set = set()
        fresh = []
        types = (kind.edge_type,)
        for node in dirty:
            group_id = held.attrs.get(node, {}).get(key)
            if group_id is not None:
                stale.add(int(group_id[len(prefix) + 1 :]))
            if node in placed or node not in attrs:
                continue
            component = {node}
            for _, layer in _layers(lambda at: patched.runs(at, types), (node,), None):
                component |= layer
            if len(component) > 1:
                placed |= component
                members = tuple(sorted(component))
                fresh.append((_rank_key(attrs, members), members))
        if not stale and not fresh:
            continue
        kept = [group for i, group in enumerate(ranked) if i not in stale]
        reranked = sorted(kept + fresh, key=lambda group: group[0])
        buckets = None
        for i in range(max(len(ranked), len(reranked))):
            old = ranked[i][1] if i < len(ranked) else None
            new = reranked[i][1] if i < len(reranked) else None
            if old is new:
                continue
            if old is not None and old == new:
                # re-derived unchanged: share the held tuple
                reranked[i] = (reranked[i][0], old)
                continue
            group_id = f"{prefix}-{i:04d}"
            if buckets is None:
                buckets = dict(by_attr.get(key, {}))
            if new is None:
                del group_members[group_id]
                del buckets[group_id]
            else:
                group_members[group_id] = buckets[group_id] = new
                for node in new:
                    moved.setdefault(node, {})[key] = group_id
            for node in old or ():
                moved.setdefault(node, {}).setdefault(key, None)
        group_ranks[prefix] = tuple(reranked)
        if buckets:
            by_attr[key] = buckets
        elif buckets is not None:
            by_attr.pop(key, None)

    # a held node's group attrs are exactly its held groups_of entry
    groups_of = dict(held.groups_of)
    for node in moved.keys() | refreshed:
        have = attrs.get(node)
        if have is None:
            groups_of.pop(node, None)
            continue
        before = held.attrs.get(node, {})
        change = moved.get(node, {})
        want = {}
        for key in _GROUP_ATTRS:
            group_id = change[key] if key in change else before.get(key)
            if group_id is not None:
                want[key] = group_id
        ids = tuple(want.values())
        same = ids == held.groups_of.get(node, _EMPTY)
        if node in refreshed:
            have.update(want)
        elif not same:
            have = attrs[node] = dict(have)
            for key in _GROUP_ATTRS:
                if key not in want:
                    have.pop(key, None)
            have.update(want)
        if same:
            continue
        if ids:
            groups_of[node] = ids
        else:
            groups_of.pop(node, None)
    return group_members, groups_of, group_ranks


def _patch_by_attr(
    held: GraphIndexes, attrs: Dict[str, Dict[str, Any]], changed: set
) -> Dict[str, Dict[Any, Tuple[str, ...]]]:
    """``held.by_attr`` with only the buckets ``changed`` nodes' own
    attributes left or joined rebuilt (each still a sorted node tuple).

    Group-id buckets are :func:`_rerank_groups`' to patch.
    """
    joined: Dict[str, Dict[Any, List[str]]] = {}
    dirty: Dict[str, set] = {}
    for node in changed:
        before = held.attrs.get(node, {})
        after = attrs.get(node, {})
        for attr in _NODE_ATTRS:
            old, new = before.get(attr), after.get(attr)
            if new is not None:
                joined.setdefault(attr, {}).setdefault(new, []).append(node)
            if old != new:
                values = dirty.setdefault(attr, set())
                values.update(v for v in (old, new) if v is not None)
    by_attr = dict(held.by_attr)
    for attr, values in dirty.items():
        buckets = dict(by_attr.get(attr, {}))
        for value in values:
            members = {n for n in buckets.get(value, ()) if n not in changed}
            members.update(joined.get(attr, {}).get(value, ()))
            if members:
                buckets[value] = tuple(sorted(members))
            else:
                buckets.pop(value, None)
        if buckets:
            by_attr[attr] = buckets
        else:
            by_attr.pop(attr, None)
    return by_attr




# ---------------------------------------------------------------------------
# Per-graph cache
# ---------------------------------------------------------------------------

#: guards creation of the per-graph cache slot itself
_CACHE_SETUP_LOCK = threading.Lock()


def _cache_slot(graph: PropertyGraph) -> Dict:
    """The graph's cache slot ``{"lock": Lock, "plain": ..., "enriched": ...}``."""
    slot = getattr(graph, "_query_index_cache", None)
    if slot is None:
        with _CACHE_SETUP_LOCK:
            slot = getattr(graph, "_query_index_cache", None)
            if slot is None:
                slot = {"lock": threading.Lock()}
                graph._query_index_cache = slot  # type: ignore[attr-defined]
    return slot


def graph_indexes(graph: PropertyGraph, malgraph=None) -> GraphIndexes:
    """The graph's cached :class:`GraphIndexes`, built on first use.

    Double-checked under a per-graph lock (the
    :meth:`MalGraph.groups` memoisation pattern), so concurrent first
    queries — e.g. two HTTP server threads — build the indexes exactly
    once. A mutated graph (version bump) transparently rebuilds.
    """
    key = "enriched" if malgraph is not None else "plain"
    slot = _cache_slot(graph)
    held = slot.get(key)
    if held is not None and held.version == graph.version:
        return held
    with slot["lock"]:
        held = slot.get(key)
        if held is not None and held.version == graph.version:
            return held
        if held is not None:
            chain = _patch_chain(graph, held.version)
            if chain is not None:
                built = apply_index_patches(held, graph, chain, malgraph=malgraph)
                slot[key] = built
                return built
        built = build_indexes(graph, malgraph=malgraph)
        slot[key] = built
        return built
