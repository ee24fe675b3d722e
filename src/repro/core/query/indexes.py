"""Adjacency and attribute indexes over MALGRAPH, built once per graph.

The executor never walks :class:`~repro.core.graph.PropertyGraph`
structures directly: a :class:`GraphIndexes` snapshot materialises

* **per-edge-type neighbour maps** — forward (``out``), reverse
  (``into``) and undirected (``any_dir``) sorted neighbour tuples, with
  cliques expanded.  The symmetric relations (duplicated / similar /
  co-existing) share one map for all three directions; dependency gets
  true directed maps when built over a :class:`MalGraph` (the edge
  builders record who depends on whom);
* **node-attribute maps** — every node's merged attributes (the graph's
  seven plus, over a ``MalGraph``, the dataset's ground-truth
  ``campaign`` / ``actor`` / ``family`` / ``archetype`` / ``downloads``
  and the node's ``dg`` / ``deg`` / ``sg`` / ``cg`` group ids);
* **inverted attribute indexes** (:data:`INDEXED_ATTRS`) used by the
  planner to seed traversals from the most selective filter;
* **group-membership maps** — group id ↔ member node ids, with ids
  matching :class:`repro.service.index.IntelIndex` (``SG-0001``, …).

Indexes are cached on the graph object behind a lock (the same
double-checked pattern :meth:`MalGraph.groups` uses) and invalidated by
the graph's mutation counter, so callers may simply call
:func:`graph_indexes` on every query.

The delta engine additionally records an :class:`IndexPatch` journal on
the graph, keyed on the same mutation counter: when a cached snapshot is
stale but an unbroken ``from_version -> to_version`` patch chain covers
the gap, :func:`graph_indexes` patches the snapshot incrementally —
copy-on-write, refreshing only touched nodes — instead of rebuilding
from scratch. Any version gap the journal cannot bridge (direct graph
mutation, journal trimmed) falls back to a full rebuild, so a stale
read is impossible either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.graph import EdgeType, PropertyGraph

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


@dataclass
class GraphIndexes:
    """One graph's materialised query indexes (immutable once built)."""

    nodes: Tuple[str, ...]
    attrs: Dict[str, Dict[str, Any]]
    out: Dict[EdgeType, Dict[str, Tuple[str, ...]]]
    into: Dict[EdgeType, Dict[str, Tuple[str, ...]]]
    any_dir: Dict[EdgeType, Dict[str, Tuple[str, ...]]]
    by_attr: Dict[str, Dict[Any, Tuple[str, ...]]]
    group_members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    groups_of: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    version: int = 0
    enriched: bool = False

    # -- lookups ----------------------------------------------------------
    def node_attrs(self, node: str) -> Dict[str, Any]:
        return self.attrs.get(node, {})

    def lookup(self, attr: str, value: Any) -> Tuple[str, ...]:
        """Sorted node ids with ``attr == value`` (indexed attrs only)."""
        return self.by_attr.get(attr, {}).get(value, _EMPTY)

    def direction_map(
        self, edge_type: EdgeType, direction: str
    ) -> Dict[str, Tuple[str, ...]]:
        if direction == "out":
            return self.out[edge_type]
        if direction == "in":
            return self.into[edge_type]
        return self.any_dir[edge_type]

    def neighbors(
        self,
        node: str,
        types: Sequence[EdgeType] = (),
        direction: str = "any",
    ) -> List[str]:
        """Sorted neighbours of ``node`` over the chosen types/direction.

        ``types`` empty means every edge type.
        """
        chosen = tuple(types) if types else tuple(EdgeType)
        if len(chosen) == 1:
            return list(self.direction_map(chosen[0], direction).get(node, _EMPTY))
        merged: set = set()
        for edge_type in chosen:
            merged.update(self.direction_map(edge_type, direction).get(node, _EMPTY))
        return sorted(merged)

    def candidate_count(self, attr: str, value: Any) -> Optional[int]:
        """Selectivity estimate for ``attr == value``; None if unindexed."""
        index = self.by_attr.get(attr)
        if index is None:
            return None
        return len(index.get(value, _EMPTY))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _adjacency(graph: PropertyGraph) -> Dict[EdgeType, Dict[str, Tuple[str, ...]]]:
    """Undirected neighbour tuples per edge type, cliques expanded."""
    maps: Dict[EdgeType, Dict[str, Tuple[str, ...]]] = {}
    for edge_type in EdgeType:
        per_node: Dict[str, Tuple[str, ...]] = {}
        for node in graph.touched_nodes(edge_type):
            per_node[node] = tuple(sorted(graph.neighbors(node, edge_type)))
        maps[edge_type] = per_node
    return maps


def _directed_dependency(
    malgraph,
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, Tuple[str, ...]]]:
    """(out, into) dependency maps from the edge builder's directed pairs."""
    from repro.core.edges import node_id

    forward: Dict[str, set] = {}
    backward: Dict[str, set] = {}
    for entry, target in malgraph.dependency_edges:
        u, v = node_id(entry.package), node_id(target.package)
        forward.setdefault(u, set()).add(v)
        backward.setdefault(v, set()).add(u)
    return (
        {node: tuple(sorted(found)) for node, found in forward.items()},
        {node: tuple(sorted(found)) for node, found in backward.items()},
    )


def build_indexes(
    graph: PropertyGraph, malgraph=None
) -> GraphIndexes:
    """Build a :class:`GraphIndexes` snapshot (no caching; see
    :func:`graph_indexes` for the cached entry point)."""
    attrs: Dict[str, Dict[str, Any]] = {
        node: {"id": node, **graph.node(node)} for node in graph.nodes()
    }

    any_dir = _adjacency(graph)
    out = dict(any_dir)
    into = dict(any_dir)

    group_members: Dict[str, Tuple[str, ...]] = {}
    groups_of: Dict[str, Tuple[str, ...]] = {}
    if malgraph is not None:
        from repro.core.edges import node_id

        dep_out, dep_in = _directed_dependency(malgraph)
        out[EdgeType.DEPENDENCY] = dep_out
        into[EdgeType.DEPENDENCY] = dep_in

        for entry in malgraph.dataset.entries:
            held = attrs.get(node_id(entry.package))
            if held is not None:
                _enrich_attrs(held, entry)

        group_members, groups_of, group_attrs = _group_maps(malgraph)
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
        out=out,
        into=into,
        any_dir=any_dir,
        by_attr={
            attr: {value: tuple(nodes) for value, nodes in buckets.items()}
            for attr, buckets in by_attr.items()
        },
        group_members=group_members,
        groups_of=groups_of,
        version=graph.version,
        enriched=malgraph is not None,
    )


# ---------------------------------------------------------------------------
# Incremental patching (fed by the delta engine)
# ---------------------------------------------------------------------------

from typing import FrozenSet  # noqa: E402  (kept near its sole users)

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
    groups_changed: bool


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
    derived from ``held`` by refreshing only what the patches touched.

    Copy-on-write: untouched attr dicts, neighbour tuples, group tuples
    and inverted-index buckets are shared with ``held`` (both snapshots
    are immutable by convention), so a batch allocates in proportion to
    what it changed.
    """
    removed_any: set = set()
    refreshed_any: set = set()
    touched: Dict[EdgeType, set] = {t: set() for t in EdgeType}
    groups_changed = False
    for patch in patches:
        removed_any |= patch.removed_nodes
        refreshed_any |= patch.refreshed_nodes
        for edge_type, nodes in patch.adjacency_touched.items():
            touched[edge_type] |= nodes
        groups_changed = groups_changed or patch.groups_changed
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

    copied = set(final_refresh)

    def mutable(node: str) -> Dict[str, Any]:
        if node not in copied:
            attrs[node] = dict(attrs[node])
            copied.add(node)
        return attrs[node]

    any_dir: Dict[EdgeType, Dict[str, Tuple[str, ...]]] = {}
    for edge_type in EdgeType:
        per_node = dict(held.any_dir[edge_type])
        for node in touched[edge_type] | final_removed:
            if not graph.has_node(node):
                per_node.pop(node, None)
                continue
            found = graph.neighbors(node, edge_type)
            if found:
                per_node[node] = tuple(sorted(found))
            else:
                per_node.pop(node, None)
        any_dir[edge_type] = per_node
    out = dict(any_dir)
    into = dict(any_dir)

    group_members = held.group_members
    groups_of = held.groups_of
    if malgraph is not None:
        dep_out, dep_in = _directed_dependency(malgraph)
        out[EdgeType.DEPENDENCY] = dep_out
        into[EdgeType.DEPENDENCY] = dep_in
        if groups_changed:
            group_members, groups_of, group_attrs = _group_maps(malgraph, held)
            # nodes whose dg/deg/sg/cg attributes may differ: every old
            # and new group member, plus the freshly rebuilt attr dicts
            for node in set(held.groups_of) | set(groups_of) | final_refresh:
                if node not in attrs:
                    continue
                want = group_attrs.get(node, {})
                have = attrs[node]
                if all(have.get(key) == want.get(key) for key in _GROUP_ATTRS):
                    continue
                node_attrs = mutable(node)
                for key in _GROUP_ATTRS:
                    node_attrs.pop(key, None)
                node_attrs.update(want)

    changed_nodes = final_removed | copied
    unchanged = not final_removed and all(n in held.attrs for n in final_refresh)
    return GraphIndexes(
        nodes=held.nodes if unchanged else tuple(sorted(attrs)),
        attrs=attrs,
        out=out,
        into=into,
        any_dir=any_dir,
        by_attr=_patch_by_attr(held, attrs, changed_nodes),
        group_members=group_members,
        groups_of=groups_of,
        version=graph.version,
        enriched=held.enriched,
    )


#: the per-node group-id attributes of an enriched snapshot
_GROUP_ATTRS = ("dg", "deg", "sg", "cg")


def _enrich_attrs(held: Dict[str, Any], entry) -> None:
    """Add a dataset entry's ground-truth attributes to a node's attrs."""
    if entry is None:
        return
    held["campaign"] = entry.campaign_id
    held["actor"] = entry.actor
    held["family"] = entry.behavior_key
    held["archetype"] = entry.archetype
    held["downloads"] = entry.downloads


def _group_maps(malgraph, held: Optional[GraphIndexes] = None):
    """(group_members, groups_of, per-node group attrs) of ``malgraph``.

    Member and group-id tuples equal to ``held``'s are taken from it, so
    unchanged groups stay shared between snapshots.
    """
    from repro.core.edges import node_id
    from repro.core.groups import GroupKind

    group_members: Dict[str, Tuple[str, ...]] = {}
    fresh_groups_of: Dict[str, List[str]] = {}
    group_attrs: Dict[str, Dict[str, str]] = {}
    for kind in GroupKind:
        key = kind.value.lower()
        for i, group in enumerate(malgraph.groups(kind)):
            group_id = f"{kind.value}-{i:04d}"
            members = tuple(sorted(node_id(m.package) for m in group.members))
            if held is not None and held.group_members.get(group_id) == members:
                members = held.group_members[group_id]
            group_members[group_id] = members
            for member in members:
                fresh_groups_of.setdefault(member, []).append(group_id)
                group_attrs.setdefault(member, {})[key] = group_id
    groups_of: Dict[str, Tuple[str, ...]] = {}
    for node, ids in sorted(fresh_groups_of.items()):
        ids = tuple(ids)
        if held is not None and held.groups_of.get(node) == ids:
            ids = held.groups_of[node]
        groups_of[node] = ids
    return group_members, groups_of, group_attrs


def _patch_by_attr(
    held: GraphIndexes, attrs: Dict[str, Dict[str, Any]], changed: set
) -> Dict[str, Dict[Any, Tuple[str, ...]]]:
    """``held.by_attr`` with only the buckets ``changed`` nodes left or
    joined rebuilt (each still a sorted node tuple)."""
    joined: Dict[str, Dict[Any, List[str]]] = {}
    dirty: Dict[str, set] = {}
    for node in changed:
        before = held.attrs.get(node, {})
        after = attrs.get(node, {})
        for attr in INDEXED_ATTRS:
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
