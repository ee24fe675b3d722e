"""PropertyGraph: nodes, typed edges, clique compression, components,
Table II statistics and JSON persistence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import EdgeType, PropertyGraph
from repro.errors import GraphError, NodeNotFoundError


@pytest.fixture
def graph() -> PropertyGraph:
    g = PropertyGraph()
    for node in "abcdef":
        g.add_node(node, ecosystem="pypi")
    return g


# -- nodes -------------------------------------------------------------------

def test_add_node_and_lookup(graph):
    assert graph.has_node("a")
    assert graph.node("a") == {"ecosystem": "pypi"}
    assert graph.node_count == 6


def test_add_node_merges_attributes(graph):
    graph.add_node("a", name="left-pad")
    assert graph.node("a") == {"ecosystem": "pypi", "name": "left-pad"}


def test_node_lookup_unknown_raises(graph):
    with pytest.raises(NodeNotFoundError):
        graph.node("nope")


def test_nodes_iterates_all(graph):
    assert sorted(graph.nodes()) == list("abcdef")


# -- pairwise edges ------------------------------------------------------------

def test_add_edge_is_undirected(graph):
    graph.add_edge("a", "b", EdgeType.DEPENDENCY)
    assert graph.has_edge("a", "b", EdgeType.DEPENDENCY)
    assert graph.has_edge("b", "a", EdgeType.DEPENDENCY)


def test_edge_types_are_independent(graph):
    graph.add_edge("a", "b", EdgeType.DEPENDENCY)
    assert not graph.has_edge("a", "b", EdgeType.SIMILAR)
    assert not graph.has_edge("a", "b", EdgeType.DUPLICATED)
    assert not graph.has_edge("a", "b", EdgeType.COEXISTING)


def test_edge_requires_known_nodes(graph):
    with pytest.raises(NodeNotFoundError):
        graph.add_edge("a", "zz", EdgeType.SIMILAR)


def test_self_loop_rejected(graph):
    with pytest.raises(GraphError):
        graph.add_edge("a", "a", EdgeType.SIMILAR)


def test_duplicate_edge_is_idempotent(graph):
    graph.add_edge("a", "b", EdgeType.SIMILAR)
    graph.add_edge("b", "a", EdgeType.SIMILAR)
    assert graph.directed_edge_count(EdgeType.SIMILAR) == 2


def test_neighbors_pairwise(graph):
    graph.add_edge("a", "b", EdgeType.DEPENDENCY)
    graph.add_edge("a", "c", EdgeType.DEPENDENCY)
    assert graph.neighbors("a", EdgeType.DEPENDENCY) == {"b", "c"}
    assert graph.neighbors("b", EdgeType.DEPENDENCY) == {"a"}
    assert graph.neighbors("d", EdgeType.DEPENDENCY) == set()


# -- cliques ------------------------------------------------------------------

def test_clique_implies_all_pairs(graph):
    graph.add_clique(["a", "b", "c"], EdgeType.SIMILAR)
    for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
        assert graph.has_edge(u, v, EdgeType.SIMILAR)
        assert graph.has_edge(v, u, EdgeType.SIMILAR)


def test_clique_of_duplicate_members_deduplicates(graph):
    graph.add_clique(["a", "b", "a", "b"], EdgeType.SIMILAR)
    assert graph.directed_edge_count(EdgeType.SIMILAR) == 2


def test_singleton_clique_is_noop(graph):
    graph.add_clique(["a"], EdgeType.SIMILAR)
    graph.add_clique([], EdgeType.SIMILAR)
    assert graph.directed_edge_count(EdgeType.SIMILAR) == 0
    assert graph.touched_nodes(EdgeType.SIMILAR) == set()


def test_clique_requires_known_nodes(graph):
    with pytest.raises(NodeNotFoundError):
        graph.add_clique(["a", "zz"], EdgeType.SIMILAR)


def test_neighbors_via_clique_exclude_self(graph):
    graph.add_clique(["a", "b", "c"], EdgeType.COEXISTING)
    assert graph.neighbors("a", EdgeType.COEXISTING) == {"b", "c"}


def test_degree_counts_unique_neighbors(graph):
    graph.add_clique(["a", "b", "c"], EdgeType.SIMILAR)
    graph.add_edge("a", "b", EdgeType.SIMILAR)  # same pair, two forms
    assert graph.degree("a", EdgeType.SIMILAR) == 2


# -- counting ------------------------------------------------------------------

def test_directed_edge_count_matches_clique_formula(graph):
    graph.add_clique(["a", "b", "c", "d"], EdgeType.SIMILAR)
    # n*(n-1) ordered pairs
    assert graph.directed_edge_count(EdgeType.SIMILAR) == 12
    assert graph.directed_edge_count_fast(EdgeType.SIMILAR) == 12


def test_exact_count_handles_clique_edge_overlap(graph):
    graph.add_clique(["a", "b", "c"], EdgeType.SIMILAR)
    graph.add_edge("a", "b", EdgeType.SIMILAR)
    assert graph.directed_edge_count(EdgeType.SIMILAR) == 6  # not 8


def test_fast_count_assumes_disjoint_cliques(graph):
    graph.add_clique(["a", "b"], EdgeType.SIMILAR)
    graph.add_clique(["c", "d"], EdgeType.SIMILAR)
    assert graph.directed_edge_count_fast(EdgeType.SIMILAR) == 4
    assert graph.directed_edge_count(EdgeType.SIMILAR) == 4


def test_stats_symmetry_and_average_degree(graph):
    graph.add_clique(["a", "b", "c"], EdgeType.SIMILAR)
    stats = graph.stats(EdgeType.SIMILAR)
    assert stats.nodes == 3
    assert stats.directed_edges == 6
    assert stats.avg_out_degree == stats.avg_in_degree == pytest.approx(2.0)


def test_stats_empty_type(graph):
    stats = graph.stats(EdgeType.DEPENDENCY)
    assert stats.nodes == 0
    assert stats.directed_edges == 0
    assert stats.avg_out_degree == 0.0


# -- components -----------------------------------------------------------------

def test_components_single_type(graph):
    graph.add_edge("a", "b", EdgeType.DEPENDENCY)
    graph.add_clique(["c", "d", "e"], EdgeType.DEPENDENCY)
    components = graph.connected_components([EdgeType.DEPENDENCY])
    assert components == [{"c", "d", "e"}, {"a", "b"}]


def test_components_exclude_isolated_nodes(graph):
    graph.add_edge("a", "b", EdgeType.SIMILAR)
    components = graph.connected_components([EdgeType.SIMILAR])
    assert {"f"} not in components
    assert sum(len(c) for c in components) == 2


def test_components_union_across_types(graph):
    graph.add_edge("a", "b", EdgeType.DEPENDENCY)
    graph.add_edge("b", "c", EdgeType.SIMILAR)
    merged = graph.connected_components([EdgeType.DEPENDENCY, EdgeType.SIMILAR])
    assert merged == [{"a", "b", "c"}]
    only_dep = graph.connected_components([EdgeType.DEPENDENCY])
    assert only_dep == [{"a", "b"}]


def test_components_sorted_large_first(graph):
    graph.add_clique(["a", "b", "c"], EdgeType.SIMILAR)
    graph.add_edge("d", "e", EdgeType.SIMILAR)
    sizes = [len(c) for c in graph.connected_components([EdgeType.SIMILAR])]
    assert sizes == [3, 2]


# -- persistence ------------------------------------------------------------------

def test_roundtrip_preserves_everything(graph):
    graph.add_node("a", name="x", release_day=12)
    graph.add_edge("a", "b", EdgeType.DEPENDENCY)
    graph.add_clique(["c", "d", "e"], EdgeType.SIMILAR)
    clone = PropertyGraph.loads(graph.dumps())
    assert clone.node("a") == graph.node("a")
    assert clone.has_edge("a", "b", EdgeType.DEPENDENCY)
    assert clone.has_edge("c", "e", EdgeType.SIMILAR)
    assert clone.dumps() == graph.dumps()


def test_roundtrip_empty_graph():
    graph = PropertyGraph()
    assert PropertyGraph.loads(graph.dumps()).node_count == 0


# -- property-based: components are a partition refined by edges ----------------

node_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=2),
    min_size=2,
    max_size=12,
    unique=True,
)
edge_picks = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20)


@given(node_names, edge_picks)
@settings(max_examples=80, deadline=None)
def test_components_partition_touched_nodes(names, picks):
    graph = PropertyGraph()
    for name in names:
        graph.add_node(name)
    touched = set()
    for i, j in picks:
        u, v = names[i % len(names)], names[j % len(names)]
        if u == v:
            continue
        graph.add_edge(u, v, EdgeType.SIMILAR)
        touched.update((u, v))
    components = graph.connected_components([EdgeType.SIMILAR])
    flattened = [n for c in components for n in c]
    assert len(flattened) == len(set(flattened)), "components are disjoint"
    assert set(flattened) == touched, "every touched node is in exactly one"


@given(node_names, edge_picks)
@settings(max_examples=80, deadline=None)
def test_endpoints_share_a_component(names, picks):
    graph = PropertyGraph()
    for name in names:
        graph.add_node(name)
    edges = []
    for i, j in picks:
        u, v = names[i % len(names)], names[j % len(names)]
        if u != v:
            graph.add_edge(u, v, EdgeType.COEXISTING)
            edges.append((u, v))
    components = graph.connected_components([EdgeType.COEXISTING])
    locate = {n: idx for idx, c in enumerate(components) for n in c}
    for u, v in edges:
        assert locate[u] == locate[v]


@given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=5), max_size=6))
@settings(max_examples=60, deadline=None)
def test_clique_counts_match_pairwise_equivalent(cliques):
    """Compressed cliques count exactly like the expanded pairwise graph."""
    compact, expanded = PropertyGraph(), PropertyGraph()
    for g in (compact, expanded):
        for n in range(10):
            g.add_node(str(n))
    for members in cliques:
        compact.add_clique([str(m) for m in members], EdgeType.SIMILAR)
        unique = sorted({str(m) for m in members})
        for i, u in enumerate(unique):
            for v in unique[i + 1:]:
                expanded.add_edge(u, v, EdgeType.SIMILAR)
    assert compact.directed_edge_count(EdgeType.SIMILAR) == (
        expanded.directed_edge_count(EdgeType.SIMILAR)
    )
    assert compact.connected_components([EdgeType.SIMILAR]) == (
        expanded.connected_components([EdgeType.SIMILAR])
    )


# ---------------------------------------------------------------------------
# Mutation-counter coverage (the query-index cache keys on graph.version)
# ---------------------------------------------------------------------------

def test_every_mutator_bumps_the_version():
    """Audit: each public mutator must advance ``version`` exactly when it
    changes structure, so cached indexes can never serve stale reads."""
    g = PropertyGraph()

    def bumps(action):
        before = g.version
        result = action()
        assert g.version > before, action
        return result

    bumps(lambda: g.add_node("a"))
    bumps(lambda: g.add_node("b"))
    bumps(lambda: g.add_node("c"))
    bumps(lambda: g.add_edge("a", "b", EdgeType.DEPENDENCY))
    index = bumps(lambda: g.add_clique(["a", "b", "c"], EdgeType.SIMILAR))
    bumps(lambda: g.remove_clique(EdgeType.SIMILAR, ["a", "b", "c"]))
    bumps(lambda: g.remove_edge("a", "b", EdgeType.DEPENDENCY))
    bumps(lambda: g.remove_node("c"))
    bumps(g.touch)

    # idempotent re-adds still count as mutations only when they change
    # something; reads never do
    before = g.version
    g.neighbors("a", EdgeType.SIMILAR)
    g.has_edge("a", "b", EdgeType.DEPENDENCY)
    g.connected_components()
    g.stats(EdgeType.SIMILAR)
    assert g.version == before


def test_clique_indices_are_stable_across_removals():
    g = PropertyGraph()
    for n in ("a", "b", "c"):
        g.add_node(n)
    first = g.add_clique(["a", "b"], EdgeType.SIMILAR)
    second = g.add_clique(["b", "c"], EdgeType.SIMILAR)
    g.remove_clique(EdgeType.SIMILAR, ["a", "b"])
    # the surviving clique keeps its index; the freed slot is not reused
    third = g.add_clique(["a", "c"], EdgeType.SIMILAR)
    assert dict(g.live_cliques(EdgeType.SIMILAR))[second] == frozenset({"b", "c"})
    assert third not in (first, second)
    assert g.add_clique(["a"], EdgeType.SIMILAR) is None  # degenerate


def test_clique_accessors_expose_tombstones():
    g = PropertyGraph()
    for n in ("a", "b", "c", "d"):
        g.add_node(n)
    g.add_clique(["a", "b"], EdgeType.COEXISTING)
    second = g.add_clique(["c", "d"], EdgeType.COEXISTING)
    g.remove_clique(EdgeType.COEXISTING, ["a", "b"])
    # both accessors skip the tombstoned slot
    assert g.cliques(EdgeType.COEXISTING) == [frozenset({"c", "d"})]
    assert g.live_cliques(EdgeType.COEXISTING) == [
        (second, frozenset({"c", "d"}))
    ]


def test_remove_clique_refuses_a_member_set_with_no_live_clique():
    g = PropertyGraph()
    for n in ("a", "b", "c"):
        g.add_node(n)
    g.add_clique(["a", "b", "c"], EdgeType.SIMILAR)
    g.add_clique(["a", "b"], EdgeType.COEXISTING)
    g.remove_clique(EdgeType.COEXISTING, ["a", "b"])
    before = g.version
    for edge_type, members in (
        (EdgeType.SIMILAR, ["a", "b"]),  # a subset of a live clique
        (EdgeType.SIMILAR, ["a", "b", "c", "d"]),  # a superset
        (EdgeType.DUPLICATED, ["a", "b", "c"]),  # live under another type
        (EdgeType.COEXISTING, ["a", "b"]),  # tombstoned
        (EdgeType.SIMILAR, []),
    ):
        with pytest.raises(GraphError):
            g.remove_clique(edge_type, members)
    assert g.version == before
    assert g.cliques(EdgeType.SIMILAR) == [frozenset({"a", "b", "c"})]


def test_remove_clique_takes_one_of_several_equal_cliques():
    """Two reports over one package set hold two equal co-existing
    cliques; removing the set once leaves exactly one of them."""
    g = PropertyGraph()
    for n in ("a", "b"):
        g.add_node(n)
    g.add_clique(["a", "b"], EdgeType.COEXISTING)
    g.add_clique(["a", "b"], EdgeType.COEXISTING)
    g.remove_clique(EdgeType.COEXISTING, {"b", "a"})
    assert g.cliques(EdgeType.COEXISTING) == [frozenset({"a", "b"})]
    assert g.neighbors("a", EdgeType.COEXISTING) == {"b"}
    g.remove_clique(EdgeType.COEXISTING, ["a", "b"])
    assert g.neighbors("a", EdgeType.COEXISTING) == set()
    with pytest.raises(GraphError):
        g.remove_clique(EdgeType.COEXISTING, ["a", "b"])
