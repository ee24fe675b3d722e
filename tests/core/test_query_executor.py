"""Executor semantics cross-checked against brute-force references.

The references are deliberately naive (dict-of-sets BFS, full
enumeration) and share no code with the executor; graphs are small and
seeded so failures reproduce.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.core.edges import node_id
from repro.core.graph import EdgeType, PropertyGraph
from repro.core.malgraph import MalGraph
from repro.core.query import BoolExpr, QueryEngine, QueryError


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

def ref_reach(adjacency, start, lo, hi):
    """Nodes whose shortest distance from start lies in [lo, hi]."""
    distance = {start: 0}
    frontier = [start]
    depth = 0
    found = set()
    while frontier and (hi is None or depth < hi):
        depth += 1
        nxt = []
        for node in frontier:
            for other in adjacency.get(node, ()):
                if other not in distance:
                    distance[other] = depth
                    nxt.append(other)
        if depth >= lo:
            found.update(nxt)
        frontier = nxt
    return found


def ref_distances(adjacency, sources, k):
    distance = {s: 0 for s in sources}
    frontier = list(sources)
    depth = 0
    while frontier and depth < k:
        depth += 1
        nxt = []
        for node in frontier:
            for other in adjacency.get(node, ()):
                if other not in distance:
                    distance[other] = depth
                    nxt.append(other)
        frontier = nxt
    return distance


@pytest.fixture(scope="module")
def seeded():
    """A random-but-seeded graph plus plain adjacency dicts per type."""
    rng = random.Random(11)
    graph = PropertyGraph()
    n = 30
    for i in range(n):
        graph.add_node(
            f"n{i:02d}",
            name=f"pkg{i:02d}",
            ecosystem=rng.choice(["npm", "pypi", "rubygems"]),
            release_day=rng.randrange(100),
        )
    adjacency = {t: {} for t in EdgeType}

    def connect(u, v, edge_type):
        graph.add_edge(u, v, edge_type)
        adjacency[edge_type].setdefault(u, set()).add(v)
        adjacency[edge_type].setdefault(v, set()).add(u)

    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        connect(f"n{i:02d}", f"n{j:02d}", EdgeType.SIMILAR)
    for _ in range(15):
        i, j = rng.sample(range(n), 2)
        connect(f"n{i:02d}", f"n{j:02d}", EdgeType.COEXISTING)
    clique = [f"n{i:02d}" for i in rng.sample(range(n), 4)]
    graph.add_clique(clique, EdgeType.COEXISTING)
    for u in clique:
        for v in clique:
            if u != v:
                adjacency[EdgeType.COEXISTING].setdefault(u, set()).add(v)
    return graph, adjacency


@pytest.fixture(scope="module")
def engine(seeded):
    graph, _ = seeded
    return QueryEngine.for_graph(graph)


# ---------------------------------------------------------------------------
# Multi-hop semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (2, 3), (1, 3), (2, None)])
def test_variable_hops_match_reference(seeded, engine, lo, hi):
    graph, adjacency = seeded
    hops = f"*{lo}..{hi}" if hi is not None else f"*{lo}.."
    for start in ["n00", "n07", "n13"]:
        rows = engine.run(
            f"MATCH (a {{name: 'pkg{start[1:]}'}})-[similar{hops}]-(b) RETURN b"
        ).rows
        expected = ref_reach(adjacency[EdgeType.SIMILAR], start, lo, hi)
        assert {r[0] for r in rows} == expected


def test_multi_type_hop_matches_reference(seeded, engine):
    graph, adjacency = seeded
    merged = {}
    for t in (EdgeType.SIMILAR, EdgeType.COEXISTING):
        for node, others in adjacency[t].items():
            merged.setdefault(node, set()).update(others)
    rows = engine.run(
        "MATCH (a {name: 'pkg05'})-[similar|coexisting*1..2]-(b) RETURN b"
    ).rows
    assert {r[0] for r in rows} == ref_reach(merged, "n05", 1, 2)


def test_untyped_edge_spans_all_types(seeded, engine):
    graph, adjacency = seeded
    merged = {}
    for per_type in adjacency.values():
        for node, others in per_type.items():
            merged.setdefault(node, set()).update(others)
    rows = engine.run("MATCH (a {name: 'pkg00'})-[]-(b) RETURN b").rows
    assert {r[0] for r in rows} == merged.get("n00", set())


def test_chain_join_matches_enumeration(seeded, engine):
    graph, adjacency = seeded
    rows = engine.run(
        "MATCH (a)-[similar]-(b)-[coexisting]-(c) "
        "WHERE a.ecosystem = 'npm' RETURN a, b, c"
    ).rows
    # bindings need not be distinct across non-adjacent variables, so
    # a == c paths are legitimate rows
    expected = {
        (a, b, c)
        for a in graph.nodes()
        if graph.node(a)["ecosystem"] == "npm"
        for b in adjacency[EdgeType.SIMILAR].get(a, ())
        for c in adjacency[EdgeType.COEXISTING].get(b, ())
    }
    assert set(rows) == expected


def test_indexed_and_naive_agree(seeded, engine):
    queries = [
        "MATCH (a {name: 'pkg03'})-[similar*1..3]-(b) RETURN b",
        "MATCH (a)-[similar]-(b) WHERE a.ecosystem = 'pypi' RETURN a, b",
        "MATCH (a)-[coexisting]-(b)-[similar]-(c) RETURN a.name, c.name",
        "MATCH (a) WHERE a.release_day < 50 RETURN a ORDER BY a.name LIMIT 7",
        "MATCH (a)-[similar|coexisting]-(b) RETURN count(*)",
        # an OR and an OR nested in an AND are checked on complete
        # bindings, not pushed down
        "MATCH (a)-[similar]-(b)-[coexisting]-(c) "
        "WHERE a.ecosystem = 'npm' OR c.release_day < 30 RETURN a, b, c",
        "MATCH (a)-[similar]-(b)-[coexisting]-(c) WHERE b.ecosystem = 'pypi' "
        "AND (a.release_day >= 60 OR c.name = 'pkg07') RETURN a, c",
    ]
    for text in queries:
        indexed = engine.run(text)
        naive = engine.run(text, naive=True)
        assert indexed.rows == naive.rows, text
        assert indexed.columns == naive.columns


def test_pushed_down_where_is_not_rechecked(seeded, engine, monkeypatch):
    """An AND of comparisons prunes while binding and is never evaluated
    again; an OR, and the naive baseline, evaluate the WHERE on every
    candidate binding."""
    graph, adjacency = seeded
    evaluate = BoolExpr.evaluate
    calls = []

    def counted(self, bound):
        calls.append(self)
        return evaluate(self, bound)

    monkeypatch.setattr(BoolExpr, "evaluate", counted)
    chains = sum(
        len(adjacency[EdgeType.COEXISTING].get(b, ()))
        for a in graph.nodes()
        for b in adjacency[EdgeType.SIMILAR].get(a, ())
    )
    pattern = "MATCH (a)-[similar]-(b)-[coexisting]-(c) WHERE "
    conjunction = pattern + "a.ecosystem = 'npm' AND c.release_day < 50 RETURN c"
    assert engine.run(conjunction).rows
    assert calls == []
    engine.run(pattern + "a.ecosystem = 'npm' OR c.release_day < 50 RETURN c")
    assert len(calls) >= chains > 0
    calls.clear()
    engine.run(conjunction, naive=True)
    assert len(calls) >= chains


def test_match_leaves_no_reference_cycle(engine):
    """A finished query's bindings are freed by refcounting, not held
    until a full cyclic collection, which a process holding a large
    graph runs rarely."""
    pattern = "MATCH (a)-[similar]-(b)-[coexisting]-(c) RETURN c"
    engine.run(pattern)  # builds the lazy indexes outside the check
    gc.collect()
    gc.disable()
    try:
        for naive in (False, True):
            assert engine.run(pattern, naive=naive).rows
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Direction (needs the MalGraph's directed dependency maps)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def malgraph(small_dataset) -> MalGraph:
    return MalGraph.build(small_dataset)


def test_directed_hop_follows_dependency_direction(malgraph):
    engine = QueryEngine(malgraph)
    pairs = {
        (node_id(entry.package), node_id(target.package))
        for entry, target in malgraph.dependency_edges
    }
    assert pairs
    u, v = sorted(pairs)[0]
    name = engine.indexes().node_attrs(u)["name"]
    out_rows = engine.run(
        f"MATCH (a {{id: '{u}'}})-[dependency]->(b) RETURN b"
    ).rows
    assert {r[0] for r in out_rows} == {t for s, t in pairs if s == u}
    in_rows = engine.run(
        f"MATCH (a {{id: '{u}'}})<-[dependency]-(b) RETURN b"
    ).rows
    assert {r[0] for r in in_rows} == {s for s, t in pairs if t == u}
    any_rows = engine.run(f"MATCH (a {{id: '{u}'}})-[dependency]-(b) RETURN b").rows
    assert {r[0] for r in any_rows} == {t for s, t in pairs if s == u} | {
        s for s, t in pairs if t == u
    }


def test_reversed_chain_equals_forward_chain(malgraph):
    """(a)-[dep]->(b) enumerates the same pairs as (b)<-[dep]-(a)."""
    engine = QueryEngine(malgraph)
    forward = set(engine.run("MATCH (a)-[dependency]->(b) RETURN a, b").rows)
    backward = {
        (a, b)
        for b, a in engine.run("MATCH (b)<-[dependency]-(a) RETURN b, a").rows
    }
    pairs = {
        (node_id(e.package), node_id(t.package))
        for e, t in malgraph.dependency_edges
    }
    assert forward == pairs
    assert backward == pairs


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

def test_shortest_path_matches_reference(seeded, engine):
    graph, adjacency = seeded
    adj = adjacency[EdgeType.SIMILAR]
    distances = ref_distances(adj, ["n00"], 10**6)
    reachable = sorted(set(distances) - {"n00"})
    assert reachable, "seeded graph should connect n00 to something"
    for target in reachable[:5]:
        path = engine.shortest_path("n00", target, (EdgeType.SIMILAR,))
        assert path[0] == "n00" and path[-1] == target
        assert len(path) - 1 == distances[target]
        for u, v in zip(path, path[1:]):
            assert v in adj[u]


def test_shortest_path_unreachable_is_empty(seeded, engine):
    graph, adjacency = seeded
    distances = ref_distances(adjacency[EdgeType.SIMILAR], ["n00"], 10**6)
    unreachable = sorted(set(f"n{i:02d}" for i in range(30)) - set(distances))
    if not unreachable:
        pytest.skip("every node reachable in this seed")
    assert engine.shortest_path("n00", unreachable[0], (EdgeType.SIMILAR,)) == []


def test_neighborhood_matches_reference(seeded, engine):
    graph, adjacency = seeded
    for k in (0, 1, 2, 3):
        got = dict(engine.neighborhood("n07", k, (EdgeType.SIMILAR,)))
        assert got == ref_distances(adjacency[EdgeType.SIMILAR], ["n07"], k)


def test_call_surface_matches_python_surface(seeded, engine):
    via_call = engine.run("CALL neighborhood('n07', 2, 'similar')")
    assert list(via_call.columns) == ["node", "distance"]
    assert [tuple(r) for r in via_call.rows] == engine.neighborhood(
        "n07", 2, (EdgeType.SIMILAR,)
    )
    path = engine.shortest_path("n00", "n07", (EdgeType.SIMILAR,))
    via_sp = engine.run("CALL shortest_path('n00', 'n07', 'similar')")
    assert [node for _step, node in via_sp.rows] == path


def test_bad_selector_raises(engine):
    with pytest.raises(QueryError, match="unknown node selector"):
        engine.neighborhood("no-such-node", 2)


def test_bad_edge_type_list_raises(engine):
    with pytest.raises(QueryError, match="unknown edge type"):
        engine.run("CALL neighborhood('n00', 1, 'friendship')")
