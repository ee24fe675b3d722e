"""The Cypher-like query layer."""

from __future__ import annotations

import pytest

from repro.core.graph import EdgeType, PropertyGraph
from repro.core.query import QueryEngine, QueryError, parse


@pytest.fixture
def graph() -> PropertyGraph:
    g = PropertyGraph()
    g.add_node("npm:a@1", name="a", ecosystem="npm", release_day=10)
    g.add_node("npm:b@1", name="b", ecosystem="npm", release_day=20)
    g.add_node("pypi:c@1", name="c", ecosystem="pypi", release_day=30)
    g.add_node("pypi:cloud-kit@1", name="cloud-kit", ecosystem="pypi", release_day=5)
    g.add_edge("npm:a@1", "npm:b@1", EdgeType.DEPENDENCY)
    g.add_clique(["npm:a@1", "pypi:c@1", "pypi:cloud-kit@1"], EdgeType.SIMILAR)
    return g


@pytest.fixture
def engine(graph) -> QueryEngine:
    return QueryEngine.for_graph(graph)


# -- parsing ------------------------------------------------------------------

def test_parse_single_node_query():
    q = parse("MATCH (a) RETURN a")
    assert q.variables == ["a"]
    assert q.edges == ()
    assert q.returns[0].label == "a"


def test_parse_edge_query_case_insensitive_type():
    q = parse("MATCH (x)-[SIMILAR]-(y) RETURN x.name, y.name")
    assert q.edges[0].types == (EdgeType.SIMILAR,)
    assert [r.label for r in q.returns] == ["x.name", "y.name"]


def test_parse_full_clause_set():
    q = parse(
        "MATCH (a) WHERE a.release_day >= 10 AND a.ecosystem = 'npm' "
        "RETURN a.name ORDER BY a.release_day DESC LIMIT 3"
    )
    assert q.where is not None
    assert q.order_desc
    assert q.limit == 3


@pytest.mark.parametrize(
    "bad",
    [
        "RETURN a",  # no MATCH
        "MATCH (a)",  # no RETURN
        "MATCH (a)-[bogus]-(b) RETURN a",  # unknown edge type
        "MATCH (a)-[similar]-(a) RETURN a",  # repeated variable
        "MATCH (a)-[:bogus]-(b) RETURN a",  # retired `[:type]` spelling
        "MATCH (a)-[:similar]-(a) RETURN a",  # retired `[:type]` spelling
        "MATCH (a) RETURN b",  # unbound variable
        "MATCH (a) WHERE b.x = 1 RETURN a",  # unbound in WHERE
        "MATCH (a) RETURN a LIMIT 2.5",  # fractional limit
        "MATCH (a) RETURN a extra",  # trailing tokens
        "MATCH (a) WHERE a.name ~ 'x' RETURN a",  # bad operator
    ],
)
def test_parse_errors(bad):
    with pytest.raises(QueryError):
        parse(bad)


# -- evaluation ------------------------------------------------------------------

def test_node_query_with_filter(engine):
    rows = engine.run(
        "MATCH (a) WHERE a.ecosystem = 'npm' RETURN a.name ORDER BY a.name"
    ).rows
    assert rows == (("a",), ("b",))


def test_node_query_returns_id_for_bare_var(engine):
    rows = engine.run("MATCH (a) WHERE a.name = 'c' RETURN a").rows
    assert rows == (("pypi:c@1",),)


def test_numeric_comparisons(engine):
    rows = engine.run(
        "MATCH (a) WHERE a.release_day > 15 RETURN a.name ORDER BY a.name"
    ).rows
    assert rows == (("b",), ("c",))


def test_contains_operator(engine):
    rows = engine.run("MATCH (a) WHERE a.name CONTAINS 'cloud' RETURN a.name").rows
    assert rows == (("cloud-kit",),)


def test_or_combination(engine):
    rows = engine.run(
        "MATCH (a) WHERE a.name = 'a' OR a.release_day = 30 "
        "RETURN a.name ORDER BY a.name",
    ).rows
    assert rows == (("a",), ("c",))


def test_and_binds_tighter_than_or(engine):
    # (npm AND day>15) OR name='c'  -> b and c
    rows = engine.run(
        "MATCH (a) WHERE a.ecosystem = 'npm' AND a.release_day > 15 "
        "OR a.name = 'c' RETURN a.name ORDER BY a.name",
    ).rows
    assert rows == (("b",), ("c",))


def test_edge_query_is_symmetric(engine):
    rows = engine.run("MATCH (x)-[dependency]-(y) RETURN x.name, y.name").rows
    assert set(rows) == {("a", "b"), ("b", "a")}


def test_edge_query_over_clique(engine):
    rows = engine.run(
        "MATCH (x)-[similar]-(y) WHERE x.name = 'a' RETURN y.name ORDER BY y.name",
    ).rows
    assert rows == (("c",), ("cloud-kit",))


def test_edge_query_cross_variable_filter(engine):
    rows = engine.run(
        "MATCH (x)-[similar]-(y) WHERE x.ecosystem = 'npm' "
        "AND y.ecosystem = 'pypi' RETURN y.name ORDER BY y.name",
    ).rows
    assert rows == (("c",), ("cloud-kit",))


def test_count_star(engine):
    assert engine.run("MATCH (a) RETURN COUNT(*)").rows == ((4,),)
    assert engine.run(
        "MATCH (x)-[similar]-(y) RETURN count(*)"
    ).rows == ((6,),)  # 3-clique = 6 ordered pairs


def test_count_cannot_mix(engine):
    with pytest.raises(QueryError):
        engine.run("MATCH (a) RETURN count(*), a.name").rows


def test_order_by_desc_and_limit(engine):
    rows = engine.run(
        "MATCH (a) RETURN a.name ORDER BY a.release_day DESC LIMIT 2"
    ).rows
    assert rows == (("c",), ("b",))


def test_not_prefix_negates(engine):
    rows = engine.run(
        "MATCH (a) WHERE NOT a.ecosystem = 'npm' RETURN a.name ORDER BY a.name",
    ).rows
    assert rows == (("c",), ("cloud-kit",))


def test_is_null_and_is_not_null(graph, engine):
    graph.add_node("partial", name="partial")  # no ecosystem attribute
    null_rows = engine.run(
        "MATCH (a) WHERE a.ecosystem IS NULL RETURN a.name"
    ).rows
    assert null_rows == (("partial",),)
    not_null = engine.run(
        "MATCH (a) WHERE a.ecosystem IS NOT NULL RETURN count(*)"
    ).rows
    assert not_null == ((4,),)


def test_not_is_not_null_double_negation(graph, engine):
    graph.add_node("bare", name="bare")
    rows = engine.run(
        "MATCH (a) WHERE NOT a.ecosystem IS NOT NULL RETURN a.name"
    ).rows
    assert rows == (("bare",),)


def test_not_on_missing_attribute_is_true(engine):
    rows = engine.run(
        "MATCH (a) WHERE NOT a.ghost = 1 RETURN count(*)"
    ).rows
    assert rows == ((4,),)


def test_missing_attribute_is_null(engine):
    rows = engine.run("MATCH (a) WHERE a.name = 'a' RETURN a.nonexistent").rows
    assert rows == ((None,),)
    # and comparisons against missing attributes are false
    assert engine.run("MATCH (a) WHERE a.ghost = 1 RETURN a").rows == ()


def test_string_escape_in_literal(graph, engine):
    graph.add_node("q", name="it's")
    rows = engine.run(r"MATCH (a) WHERE a.name = 'it\'s' RETURN a").rows
    assert rows == (("q",),)


def test_order_by_equal_keys_with_unorderable_rows(graph, engine):
    """Equal sort keys must not fall through to comparing row tuples
    (None vs str is unorderable)."""
    graph.add_node("same1", ecosystem="npm", release_day=99)  # no name attr
    graph.add_node("same2", ecosystem="npm", release_day=99, name="zz")
    rows = engine.run(
        "MATCH (a) WHERE a.release_day = 99 RETURN a.name ORDER BY a.release_day",
    ).rows
    assert set(rows) == {(None,), ("zz",)}


def test_order_by_none_keys_sort_last(graph, engine):
    graph.add_node("undated", name="undated")  # no release_day
    rows = engine.run("MATCH (a) RETURN a.name ORDER BY a.release_day").rows
    assert rows[-1] == ("undated",)


def test_session_table_render(engine):
    out = engine.run(
        "MATCH (a) WHERE a.ecosystem = 'npm' RETURN a.name"
    ).render_table()
    assert "a.name" in out
    assert "a" in out and "b" in out


def test_query_on_world_graph(paper):
    engine = QueryEngine(paper.malgraph)
    (count,) = engine.run("MATCH (n) RETURN count(*)").rows[0]
    assert count == paper.malgraph.node_count
    rows = engine.run(
        "MATCH (a)-[dependency]-(b) RETURN a.name, b.name LIMIT 5"
    ).rows
    assert len(rows) <= 5
