"""Golden tests for every grammar production of the query language,
plus error-position (offset + caret) checks on malformed patterns."""

from __future__ import annotations

import pytest

from repro.core.graph import EdgeType
from repro.core.query import (
    BoolExpr,
    CallQuery,
    Comparison,
    EdgePattern,
    MatchQuery,
    NodePattern,
    QueryError,
    QuerySyntaxError,
    ReturnItem,
    parse,
    render,
)


# ---------------------------------------------------------------------------
# Node patterns
# ---------------------------------------------------------------------------

def test_single_node():
    q = parse("MATCH (a) RETURN a")
    assert q == MatchQuery(
        nodes=(NodePattern("a"),),
        edges=(),
        returns=(ReturnItem("a", None),),
    )


def test_node_with_inline_props():
    q = parse("MATCH (a {name: 'left-pad', ecosystem: 'npm'}) RETURN a")
    assert q.nodes[0] == NodePattern(
        "a", props=(("name", "left-pad"), ("ecosystem", "npm"))
    )


def test_node_with_numeric_prop():
    q = parse("MATCH (a {release_day: 7}) RETURN a")
    assert q.nodes[0].props == (("release_day", 7),)


# ---------------------------------------------------------------------------
# Edge patterns: types, direction, hops
# ---------------------------------------------------------------------------

def test_undirected_typed_edge():
    q = parse("MATCH (a)-[similar]-(b) RETURN a, b")
    assert q.edges == (EdgePattern(types=(EdgeType.SIMILAR,)),)


def test_legacy_colon_edge_spelling():
    """The retired ``[:type]`` spelling is a syntax error, not an alias."""
    with pytest.raises(QuerySyntaxError):
        parse("MATCH (a)-[:similar]-(b) RETURN a")


def test_untyped_edge_matches_any_type():
    q = parse("MATCH (a)-[]-(b) RETURN a")
    assert q.edges[0].types == ()


def test_outgoing_edge():
    q = parse("MATCH (a)-[dependency]->(b) RETURN a")
    assert q.edges[0].direction == "out"


def test_incoming_edge():
    q = parse("MATCH (a)<-[dependency]-(b) RETURN a")
    assert q.edges[0].direction == "in"


def test_multi_type_edge():
    q = parse("MATCH (a)-[similar|coexisting]-(b) RETURN a")
    assert q.edges[0].types == (EdgeType.SIMILAR, EdgeType.COEXISTING)


def test_chain_of_three_nodes():
    q = parse("MATCH (a)-[similar]-(b)-[dependency]->(c) RETURN a, b, c")
    assert q.variables == ["a", "b", "c"]
    assert len(q.edges) == 2
    assert q.edges[1].direction == "out"


@pytest.mark.parametrize(
    "hops, expected",
    [
        ("*", (1, None)),
        ("*2", (2, 2)),
        ("*1..3", (1, 3)),
        ("*..3", (1, 3)),
        ("*2..", (2, None)),
    ],
)
def test_hop_ranges(hops, expected):
    q = parse(f"MATCH (a)-[similar{hops}]-(b) RETURN b")
    assert (q.edges[0].min_hops, q.edges[0].max_hops) == expected


def test_plain_edge_is_single_hop():
    q = parse("MATCH (a)-[similar]-(b) RETURN a")
    assert not q.edges[0].is_variable
    assert (q.edges[0].min_hops, q.edges[0].max_hops) == (1, 1)


# ---------------------------------------------------------------------------
# WHERE
# ---------------------------------------------------------------------------

def test_where_every_operator():
    q = parse(
        "MATCH (a) WHERE a.x = 1 AND a.x != 2 AND a.x < 3 AND a.x <= 4 "
        "AND a.x > 5 AND a.x >= 6 AND a.name CONTAINS 'pad' RETURN a"
    )
    ops = [c.op for c in q.where.parts]
    assert ops == ["=", "!=", "<", "<=", ">", ">=", "contains"]


def test_where_is_null_and_not_null():
    q = parse("MATCH (a) WHERE a.campaign IS NULL AND a.actor IS NOT NULL RETURN a")
    first, second = q.where.parts
    assert (first.op, first.negated) == ("is-null", False)
    assert (second.op, second.negated) == ("is-null", True)


def test_where_not_prefix():
    q = parse("MATCH (a) WHERE NOT a.ecosystem = 'npm' RETURN a")
    assert q.where.parts[0].negated


def test_where_and_binds_tighter_than_or():
    q = parse("MATCH (a) WHERE a.x = 1 OR a.x = 2 AND a.x = 3 RETURN a")
    assert q.where.op == "or"
    # each OR arm is an AND group; the second one holds both conjuncts
    assert [len(part.parts) for part in q.where.parts] == [1, 2]
    assert all(part.op == "and" for part in q.where.parts)


def test_where_parentheses_override_precedence():
    q = parse("MATCH (a) WHERE (a.x = 1 OR a.x = 2) AND a.x = 3 RETURN a")
    assert q.where.op == "and"
    assert isinstance(q.where.parts[0], BoolExpr)
    assert q.where.parts[0].op == "or"


def test_where_string_escapes():
    q = parse(r"MATCH (a) WHERE a.name = 'it\'s' RETURN a")
    assert q.where.parts[0].literal == "it's"


def test_where_numeric_literals():
    q = parse("MATCH (a) WHERE a.x = -3 AND a.y = 2.5 RETURN a")
    assert q.where.parts[0].literal == -3
    assert q.where.parts[1].literal == 2.5


# ---------------------------------------------------------------------------
# RETURN / ORDER BY / LIMIT
# ---------------------------------------------------------------------------

def test_return_variable_attr_and_count():
    q = parse("MATCH (a) RETURN a, a.name")
    assert q.returns == (ReturnItem("a", None), ReturnItem("a", "name"))
    counted = parse("MATCH (a) RETURN count(*)")
    assert counted.returns[0].is_count


def test_order_by_asc_desc():
    assert not parse("MATCH (a) RETURN a ORDER BY a.name ASC").order_desc
    assert parse("MATCH (a) RETURN a ORDER BY a.name DESC").order_desc


def test_limit():
    assert parse("MATCH (a) RETURN a LIMIT 5").limit == 5


# ---------------------------------------------------------------------------
# CALL
# ---------------------------------------------------------------------------

def test_call_shortest_path():
    q = parse("CALL shortest_path('npm:a@1', 'npm:b@1', 'dependency')")
    assert q == CallQuery(
        procedure="shortest_path", args=("npm:a@1", "npm:b@1", "dependency")
    )


def test_call_neighborhood_with_limit():
    q = parse("CALL neighborhood('npm:a@1', 2) LIMIT 10")
    assert q == CallQuery(procedure="neighborhood", args=("npm:a@1", 2), limit=10)


def test_call_unknown_procedure():
    with pytest.raises(QuerySyntaxError, match="unknown procedure"):
        parse("CALL teleport('a')")


# ---------------------------------------------------------------------------
# Errors: position, caret, semantics
# ---------------------------------------------------------------------------

def test_syntax_error_carries_offset_and_caret():
    text = "MATCH (a) RETURN a WHERE"
    with pytest.raises(QuerySyntaxError) as failure:
        parse(text)
    error = failure.value
    assert error.offset == text.index("WHERE")
    caret_line = str(error).splitlines()[-1]
    assert caret_line.index("^") - 2 == error.offset  # "  " indent


def test_unexpected_character_offset():
    text = "MATCH (a) RETURN a; DROP"
    with pytest.raises(QuerySyntaxError) as failure:
        parse(text)
    assert failure.value.offset == text.index(";")


def test_unexpected_end_of_query_points_past_text():
    text = "MATCH (a) RETURN"
    with pytest.raises(QuerySyntaxError) as failure:
        parse(text)
    assert failure.value.offset == len(text)


def test_bad_edge_type_offset():
    text = "MATCH (a)-[friendship]-(b) RETURN a"
    with pytest.raises(QuerySyntaxError) as failure:
        parse(text)
    assert failure.value.offset == text.index("friendship")


def test_empty_hop_range_is_rejected():
    with pytest.raises(QuerySyntaxError, match="empty"):
        parse("MATCH (a)-[similar*3..2]-(b) RETURN a")


def test_zero_hop_count_is_rejected():
    with pytest.raises(QuerySyntaxError, match=">= 1"):
        parse("MATCH (a)-[similar*0..2]-(b) RETURN a")


def test_both_ways_edge_is_rejected():
    with pytest.raises(QuerySyntaxError, match="both ways"):
        parse("MATCH (a)<-[dependency]->(b) RETURN a")


def test_duplicate_pattern_variable_is_rejected():
    with pytest.raises(QueryError, match="bound twice"):
        parse("MATCH (a)-[similar]-(a) RETURN a")


def test_unbound_variable_is_rejected():
    with pytest.raises(QueryError, match="unbound"):
        parse("MATCH (a) RETURN b")


def test_count_mixed_with_projection_is_rejected():
    with pytest.raises(QueryError, match="COUNT"):
        parse("MATCH (a) RETURN count(*), a")


def test_fractional_limit_is_rejected():
    with pytest.raises(QuerySyntaxError, match="integer"):
        parse("MATCH (a) RETURN a LIMIT 2.5")


def test_keyword_variable_name_is_rejected():
    with pytest.raises(QuerySyntaxError, match="bad variable name"):
        parse("MATCH (match) RETURN match")


# ---------------------------------------------------------------------------
# Render round-trips (spot checks; the property test sweeps the space)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "MATCH (a) RETURN a",
        "MATCH (a {name: 'x'})-[similar*1..3]->(b) RETURN b.name",
        "MATCH (a)<-[dependency|coexisting]-(b) WHERE a.x = 1 OR "
        "(a.y = 2 AND b.z CONTAINS 'q') RETURN a, b ORDER BY a.x DESC LIMIT 3",
        "CALL neighborhood('npm:a@1', 2, 'similar') LIMIT 5",
    ],
)
def test_parse_render_fixpoint(text):
    q = parse(text)
    assert parse(render(q)) == q
