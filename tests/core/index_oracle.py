"""Oracles for the query indexes and the traversals that read them.

``assert_same_indexes`` checks a patched :class:`GraphIndexes` against a
cold build: equal tables, and every node's ``neighbors()`` answers equal
(each single type and all types, each direction, the ``related()``
cap), and equal to the graph's own neighbour sets.

The traversal oracles are the per-node breadth-first searches the
executor ran before it learned to expand each clique once: every
visited node reads its whole merged neighbourhood.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.graph import EdgeType

#: the GraphIndexes fields a patched snapshot must share with a cold build
INDEX_FIELDS = (
    "nodes",
    "attrs",
    "adjacency",
    "out",
    "into",
    "by_attr",
    "group_members",
    "groups_of",
    "version",
    "enriched",
)
#: every ``types`` argument the oracle asks: each single type, then all
TYPE_CHOICES = tuple((t,) for t in EdgeType) + ((),)
DIRECTIONS = ("any", "out", "in")
#: ``related()`` caps checked: none, one, the service's default
RELATED_LIMITS = (0, 1, 25)


def assert_same_indexes(patched, cold, graph=None) -> None:
    """``patched`` answers exactly like ``cold`` (and, given the graph
    both came from, like the graph's own neighbour sets)."""
    for name in INDEX_FIELDS:
        assert getattr(patched, name) == getattr(cold, name), name
    for node in cold.nodes:
        for types in TYPE_CHOICES:
            for direction in DIRECTIONS:
                assert patched.neighbors(node, types, direction) == cold.neighbors(
                    node, types, direction
                ), (node, types, direction)
        union = patched.neighbors(node)
        for limit in RELATED_LIMITS:
            assert patched.neighbors(node, limit=limit) == union[:limit], (node, limit)
        if graph is not None:
            expected = set()
            for edge_type in EdgeType:
                found = graph.neighbors(node, edge_type)
                assert patched.neighbors(node, (edge_type,)) == sorted(found)
                expected |= found
            assert union == sorted(expected), node


def bfs_reachable(
    indexes, start: str, types, direction: str, lo: int, hi: Optional[int]
) -> List[str]:
    """Nodes whose shortest distance from ``start`` is in [lo, hi]."""
    seen = {start}
    frontier = [start]
    out: List[str] = []
    depth = 0
    while frontier and (hi is None or depth < hi):
        depth += 1
        found = set()
        for node in frontier:
            for other in indexes.neighbors(node, types, direction):
                if other not in seen:
                    found.add(other)
        seen.update(found)
        frontier = sorted(found)
        if depth >= lo:
            out.extend(frontier)
    return sorted(out)


def bfs_neighborhood(
    indexes, sources: Sequence[str], k: int, types=()
) -> List[Tuple[str, int]]:
    """Every node within ``k`` hops of ``sources`` with its distance."""
    distance: Dict[str, int] = {source: 0 for source in sources}
    frontier = sorted(distance)
    depth = 0
    while frontier and depth < k:
        depth += 1
        found = set()
        for node in frontier:
            for other in indexes.neighbors(node, types, "any"):
                if other not in distance:
                    distance[other] = depth
                    found.add(other)
        frontier = sorted(found)
    return sorted(distance.items(), key=lambda pair: (pair[1], pair[0]))


def bfs_shortest_path(
    indexes, sources: Sequence[str], targets: Sequence[str], types=()
) -> List[str]:
    """The multi-source BFS path whose ties break toward sorted order."""
    target_set = set(targets)
    parents: Dict[str, Optional[str]] = {}
    queue: deque = deque()
    for source in sorted(set(sources)):
        parents[source] = None
        queue.append(source)
        if source in target_set:
            return [source]
    while queue:
        node = queue.popleft()
        for other in indexes.neighbors(node, types, "any"):
            if other in parents:
                continue
            parents[other] = node
            if other in target_set:
                path = [other]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            queue.append(other)
    return []
