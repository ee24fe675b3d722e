"""Query evaluation vs a naive reference implementation (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import EdgeType, PropertyGraph
from repro.core.query import QueryEngine

_ECOSYSTEMS = ["npm", "pypi", "rubygems"]


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    graph = PropertyGraph()
    attrs = {}
    for idx in range(n):
        node = f"n{idx}"
        eco = draw(st.sampled_from(_ECOSYSTEMS))
        day = draw(st.integers(0, 100))
        graph.add_node(node, ecosystem=eco, release_day=day, name=f"pkg{idx}")
        attrs[node] = {"ecosystem": eco, "release_day": day, "name": f"pkg{idx}"}
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    edges = set()
    for i, j in pairs:
        if i != j:
            graph.add_edge(f"n{i}", f"n{j}", EdgeType.SIMILAR)
            edges.add(frozenset((f"n{i}", f"n{j}")))
    return graph, attrs, edges


@given(graphs(), st.sampled_from(_ECOSYSTEMS))
@settings(max_examples=80, deadline=None)
def test_node_filter_matches_reference(data, eco):
    graph, attrs, _edges = data
    rows = QueryEngine.for_graph(graph).run(
        f"MATCH (a) WHERE a.ecosystem = '{eco}' RETURN a"
    ).rows
    expected = {node for node, a in attrs.items() if a["ecosystem"] == eco}
    assert {r[0] for r in rows} == expected


@given(graphs(), st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_numeric_filter_matches_reference(data, threshold):
    graph, attrs, _edges = data
    rows = QueryEngine.for_graph(graph).run(
        f"MATCH (a) WHERE a.release_day <= {threshold} RETURN a"
    ).rows
    expected = {n for n, a in attrs.items() if a["release_day"] <= threshold}
    assert {r[0] for r in rows} == expected


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_edge_expansion_matches_reference(data):
    graph, _attrs, edges = data
    rows = QueryEngine.for_graph(graph).run("MATCH (a)-[similar]-(b) RETURN a, b").rows
    seen = {frozenset(row) for row in rows}
    assert seen == edges
    # every undirected edge appears exactly twice (both orientations)
    assert len(rows) == 2 * len(edges)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_count_matches_row_count(data):
    graph, attrs, _edges = data
    (count,) = QueryEngine.for_graph(graph).run("MATCH (a) RETURN count(*)").rows[0]
    assert count == len(attrs)


@given(graphs(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_limit_truncates(data, limit):
    graph, attrs, _edges = data
    rows = QueryEngine.for_graph(graph).run(
        f"MATCH (a) RETURN a ORDER BY a.release_day LIMIT {limit}"
    ).rows
    assert len(rows) == min(limit, len(attrs))


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_order_by_sorts(data):
    graph, attrs, _edges = data
    rows = QueryEngine.for_graph(graph).run(
        "MATCH (a) RETURN a.release_day ORDER BY a.release_day"
    ).rows
    days = [r[0] for r in rows]
    assert days == sorted(days)
