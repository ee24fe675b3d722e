"""MALGRAPH operation micro-benchmarks (not a paper table).

Times the graph operations every analysis leans on — Table II statistics
via the clique-compressed fast path vs the exact pair-expansion path,
connected-component extraction, and a representative query — on the
full-scale graph. The compressed path must count the multi-million-edge
similar subgraph without materialising it.
"""

from __future__ import annotations

import pytest

from repro.core.graph import EdgeType
from repro.core.query import QueryEngine


@pytest.fixture(scope="session")
def graph(artifacts):
    return artifacts.malgraph.graph


def test_stats_fast_path(benchmark, graph):
    stats = benchmark(graph.stats, EdgeType.SIMILAR)
    assert stats.directed_edges > 0


def test_stats_exact_path(benchmark, graph):
    exact = benchmark(graph.stats, EdgeType.SIMILAR, True)
    fast = graph.stats(EdgeType.SIMILAR)
    assert exact.directed_edges == fast.directed_edges, (
        "similarity cliques are disjoint, so fast == exact"
    )


def test_connected_components(benchmark, graph):
    components = benchmark(graph.connected_components, [EdgeType.SIMILAR])
    assert components
    assert all(len(c) >= 2 for c in components)


def test_query_node_scan(benchmark, graph):
    result = benchmark(
        QueryEngine.for_graph(graph).run,
        "MATCH (a) WHERE a.ecosystem = 'npm' RETURN count(*)",
    )
    assert result.rows[0][0] > 0


def test_query_edge_expansion(benchmark, graph):
    result = benchmark(
        QueryEngine.for_graph(graph).run,
        "MATCH (a)-[dependency]-(b) RETURN a.name, b.name",
    )
    assert isinstance(result.rows, tuple)


def test_serialisation_roundtrip(benchmark, graph):
    from repro.core.graph import PropertyGraph

    payload = graph.dumps()

    def roundtrip():
        return PropertyGraph.loads(payload)

    clone = benchmark(roundtrip)
    assert clone.node_count == graph.node_count
