"""Property graph (the paper's Neo4j substitute).

MALGRAPH stores one node per malicious package and typed edges for the
four relationships of Section III. Similar and co-existing relations are
complete subgraphs over large member sets (Table II counts 5.3M similar
edges over 6,320 nodes), so the graph stores *cliques* compactly — a
clique over ``n`` members contributes ``n * (n - 1)`` directed edges to
the counts without materialising them — alongside explicit pairwise
edges. Connected components treat both representations uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import GraphError, NodeNotFoundError


class EdgeType(str, Enum):
    """The four relationships of Section III-A."""

    DUPLICATED = "duplicated"
    DEPENDENCY = "dependency"
    SIMILAR = "similar"
    COEXISTING = "coexisting"


@dataclass
class GraphStats:
    """Table II row: one edge type's subgraph statistics."""

    edge_type: EdgeType
    nodes: int
    directed_edges: int
    avg_out_degree: float
    avg_in_degree: float


class _UnionFind:
    """Weighted quick-union with path compression."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        self._size: Dict[str, int] = {}

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def groups(self) -> List[Set[str]]:
        clusters: Dict[str, Set[str]] = {}
        for item in self._parent:
            clusters.setdefault(self.find(item), set()).add(item)
        return list(clusters.values())


class PropertyGraph:
    """Typed multigraph over string node ids with clique compression."""

    def __init__(self) -> None:
        #: bumped on every mutation; cached views (e.g. the query layer's
        #: adjacency indexes) key their validity on it
        self._version = 0
        self._nodes: Dict[str, Dict] = {}
        self._edges: Dict[EdgeType, Set[Tuple[str, str]]] = {
            t: set() for t in EdgeType
        }
        # adjacency over pairwise edges only (cliques are resolved via
        # membership lists); keeps neighbors()/has_edge() O(degree)
        self._adjacency: Dict[EdgeType, Dict[str, Set[str]]] = {
            t: {} for t in EdgeType
        }
        # clique slots are tombstoned to None on removal so the slots the
        # query-index patch keys cliques by stay stable
        self._cliques: Dict[EdgeType, List[Optional[FrozenSet[str]]]] = {
            t: [] for t in EdgeType
        }
        self._clique_membership: Dict[EdgeType, Dict[str, List[int]]] = {
            t: {} for t in EdgeType
        }

    @property
    def version(self) -> int:
        """Mutation counter (monotonic; bumped by every mutator)."""
        return self._version

    def touch(self) -> int:
        """Bump the mutation counter without a structural change.

        Used when graph-adjacent state the cached views read through the
        graph (e.g. the dataset entries behind the enriched query
        indexes) changes, so a stale index can never be served.
        """
        self._version += 1
        return self._version

    # -- nodes ------------------------------------------------------------
    def add_node(self, node_id: str, **attrs) -> None:
        """Add or update a node; attributes merge."""
        self._version += 1
        self._nodes.setdefault(node_id, {}).update(attrs)

    def remove_node(self, node_id: str) -> None:
        """Remove a node and its incident pairwise edges.

        The node must not belong to any live clique: cliques encode
        group semantics the caller owns (shrinking one implicitly would
        silently change every co-member), so the delta paths replace the
        affected cliques first and only then drop the node.
        """
        self._require(node_id)
        for edge_type in EdgeType:
            if self._clique_membership[edge_type].get(node_id):
                raise GraphError(
                    f"cannot remove {node_id!r}: still a member of "
                    f"{edge_type.value} cliques"
                )
        self._version += 1
        for edge_type in EdgeType:
            for other in list(self._adjacency[edge_type].get(node_id, ())):
                self._remove_pairwise(node_id, other, edge_type)
            self._adjacency[edge_type].pop(node_id, None)
            self._clique_membership[edge_type].pop(node_id, None)
        del self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Dict:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(f"unknown node {node_id!r}") from None

    def nodes(self) -> Iterable[str]:
        return self._nodes.keys()

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def _require(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise NodeNotFoundError(f"unknown node {node_id!r}")

    # -- edges ------------------------------------------------------------
    def add_edge(self, u: str, v: str, edge_type: EdgeType) -> None:
        """Add an undirected pairwise edge of the given type."""
        self._require(u)
        self._require(v)
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        self._version += 1
        key = (u, v) if u <= v else (v, u)
        self._edges[edge_type].add(key)
        self._adjacency[edge_type].setdefault(u, set()).add(v)
        self._adjacency[edge_type].setdefault(v, set()).add(u)

    def _remove_pairwise(self, u: str, v: str, edge_type: EdgeType) -> None:
        """Drop one pairwise edge from the edge set and both adjacencies."""
        key = (u, v) if u <= v else (v, u)
        self._edges[edge_type].discard(key)
        for a, b in ((u, v), (v, u)):
            bucket = self._adjacency[edge_type].get(a)
            if bucket is not None:
                bucket.discard(b)
                if not bucket:
                    del self._adjacency[edge_type][a]

    def remove_edge(self, u: str, v: str, edge_type: EdgeType) -> None:
        """Remove an undirected pairwise edge of the given type."""
        key = (u, v) if u <= v else (v, u)
        if key not in self._edges[edge_type]:
            raise GraphError(
                f"no {edge_type.value} edge between {u!r} and {v!r}"
            )
        self._version += 1
        self._remove_pairwise(u, v, edge_type)

    def add_clique(self, members: Sequence[str], edge_type: EdgeType) -> Optional[int]:
        """Add a complete subgraph over ``members`` (stored compactly).

        Returns the clique's index (stable for the graph's lifetime —
        removals tombstone rather than reindex), or ``None`` when fewer
        than two unique members were given.
        """
        unique = sorted(set(members))
        if len(unique) < 2:
            return None
        for member in unique:
            self._require(member)
        self._version += 1
        index = len(self._cliques[edge_type])
        self._cliques[edge_type].append(frozenset(unique))
        for member in unique:
            self._clique_membership[edge_type].setdefault(member, []).append(index)
        return index

    def remove_clique(self, edge_type: EdgeType, members: Iterable[str]) -> None:
        """Tombstone the live clique over exactly ``members``.

        When several live cliques share the member set, the oldest goes
        (they are interchangeable). Indices of other cliques are
        unchanged (the slot is set to ``None`` rather than compacted),
        so the query-index patch can keep keying cliques by slot.
        """
        members = frozenset(members)
        cliques = self._cliques[edge_type]
        membership = self._clique_membership[edge_type]
        for index in membership.get(next(iter(members), None), ()):
            if cliques[index] == members:
                break
        else:
            raise GraphError(
                f"no live {edge_type.value} clique over {sorted(members)}"
            )
        self._version += 1
        cliques[index] = None
        for member in members:
            held = membership[member]
            held.remove(index)
            if not held:
                del membership[member]

    def cliques(self, edge_type: EdgeType) -> List[FrozenSet[str]]:
        """The live cliques of one edge type (tombstones skipped)."""
        return [c for c in self._cliques[edge_type] if c is not None]

    def live_cliques(self, edge_type: EdgeType) -> List[Tuple[int, FrozenSet[str]]]:
        """(stable index, members) for every live clique of one type."""
        return [
            (index, members)
            for index, members in enumerate(self._cliques[edge_type])
            if members is not None
        ]

    def has_edge(self, u: str, v: str, edge_type: EdgeType) -> bool:
        if v in self._adjacency[edge_type].get(u, ()):
            return True
        for idx in self._clique_membership[edge_type].get(u, ()):
            if v in self._cliques[edge_type][idx]:
                return True
        return False

    def neighbors(self, node_id: str, edge_type: EdgeType) -> Set[str]:
        """All nodes adjacent to ``node_id`` via ``edge_type``."""
        self._require(node_id)
        found: Set[str] = set(self._adjacency[edge_type].get(node_id, ()))
        for idx in self._clique_membership[edge_type].get(node_id, ()):
            found.update(self._cliques[edge_type][idx])
        found.discard(node_id)
        return found

    def pairwise_adjacency(
        self, edge_type: EdgeType
    ) -> Iterable[Tuple[str, Set[str]]]:
        """(node, its pairwise neighbours) for every node with a pairwise
        edge of this type; cliques are not expanded. The sets are the
        graph's own: copy what you keep and mutate nothing."""
        return self._adjacency[edge_type].items()

    def incident_groups_fn(
        self, edge_type: EdgeType
    ) -> Callable[[str], List[Tuple[Tuple[str, object], Iterable[str]]]]:
        """A callable giving a node's adjacency of one type as keyed groups.

        ``incident(node)`` returns ``(key, members)`` pairs: one per live
        clique holding the node (key ``("c", clique_index)``) plus one for
        its pairwise neighbourhood (key ``("p", node)``); ``members`` may
        include the node itself and must not be mutated. The query-index
        patch re-reads the touched nodes' rows through it
        (:func:`repro.core.query.indexes.apply_index_patches`). The
        per-type tables are bound once and the membership check is
        skipped, so pass existing nodes. It reads the graph live.
        """
        adjacency = self._adjacency[edge_type]
        membership = self._clique_membership[edge_type]
        cliques = self._cliques[edge_type]

        def incident(node_id: str):
            out = []
            pairwise = adjacency.get(node_id)
            if pairwise:
                out.append((("p", node_id), pairwise))
            held = membership.get(node_id)
            if held:
                for index in held:
                    out.append((("c", index), cliques[index]))
            return out

        return incident

    def degree(self, node_id: str, edge_type: EdgeType) -> int:
        """Out-degree (= in-degree: relations are symmetric)."""
        return len(self.neighbors(node_id, edge_type))

    # -- counting -----------------------------------------------------------
    def touched_nodes(self, edge_type: EdgeType) -> Set[str]:
        """Nodes with at least one edge of this type."""
        nodes: Set[str] = set()
        for u, v in self._edges[edge_type]:
            nodes.add(u)
            nodes.add(v)
        for clique in self._cliques[edge_type]:
            if clique is not None:
                nodes.update(clique)
        return nodes

    def directed_edge_count(self, edge_type: EdgeType) -> int:
        """Edge count in Table II's convention (ordered pairs).

        Overlaps between cliques and explicit edges are rare by
        construction (each edge type uses one representation), but pairs
        present in both are not double-counted.
        """
        pair_count = 0
        seen_pairs: Set[Tuple[str, str]] = set(self._edges[edge_type])
        pair_count += len(seen_pairs)
        for clique in self._cliques[edge_type]:
            if clique is None:
                continue
            members = sorted(clique)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if (u, v) not in seen_pairs:
                        seen_pairs.add((u, v))
                        pair_count += 1
        return 2 * pair_count

    def directed_edge_count_fast(self, edge_type: EdgeType) -> int:
        """O(#cliques) edge count assuming cliques are disjoint, which
        holds for the clustering-derived edge types (each node belongs to
        exactly one similarity cluster / duplicate set)."""
        total = 2 * len(self._edges[edge_type])
        for clique in self._cliques[edge_type]:
            if clique is None:
                continue
            n = len(clique)
            total += n * (n - 1)
        return total

    def stats(self, edge_type: EdgeType, exact: bool = False) -> GraphStats:
        """Table II row for one edge type."""
        nodes = self.touched_nodes(edge_type)
        edges = (
            self.directed_edge_count(edge_type)
            if exact
            else self.directed_edge_count_fast(edge_type)
        )
        # Relations are symmetric, so each node's out-degree equals its
        # in-degree and the directed-edge total divided by the node count
        # is exactly Table II's "Ave. OutDegree" column.
        avg = edges / len(nodes) if nodes else 0.0
        return GraphStats(
            edge_type=edge_type,
            nodes=len(nodes),
            directed_edges=edges,
            avg_out_degree=avg,
            avg_in_degree=avg,
        )

    # -- components -----------------------------------------------------------
    def connected_components(
        self, edge_types: Optional[Iterable[EdgeType]] = None
    ) -> List[Set[str]]:
        """Connected components over the chosen edge types.

        Only nodes touched by at least one such edge appear (isolated
        nodes form no group, matching the paper's subgraph semantics).
        """
        selected = list(edge_types) if edge_types is not None else list(EdgeType)
        uf = _UnionFind()
        for edge_type in selected:
            for u, v in self._edges[edge_type]:
                uf.union(u, v)
            for clique in self._cliques[edge_type]:
                if clique is None:
                    continue
                members = iter(sorted(clique))
                first = next(members)
                for other in members:
                    uf.union(first, other)
        return sorted(uf.groups(), key=lambda g: (-len(g), min(g)))

    # -- persistence --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "nodes": {node: dict(attrs) for node, attrs in self._nodes.items()},
            "edges": {
                t.value: sorted(list(pair) for pair in pairs)
                for t, pairs in self._edges.items()
            },
            "cliques": {
                t.value: [sorted(c) for c in cliques if c is not None]
                for t, cliques in self._cliques.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PropertyGraph":
        graph = cls()
        for node, attrs in raw.get("nodes", {}).items():
            graph.add_node(node, **attrs)
        for type_name, pairs in raw.get("edges", {}).items():
            edge_type = EdgeType(type_name)
            for u, v in pairs:
                graph.add_edge(u, v, edge_type)
        for type_name, cliques in raw.get("cliques", {}).items():
            edge_type = EdgeType(type_name)
            for members in cliques:
                graph.add_clique(members, edge_type)
        return graph

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, payload: str) -> "PropertyGraph":
        return cls.from_dict(json.loads(payload))