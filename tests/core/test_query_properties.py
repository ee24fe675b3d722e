"""Query evaluation vs a naive reference implementation (hypothesis)."""

from __future__ import annotations

import itertools
import operator

from hypothesis import given, settings, strategies as st

from repro.core.graph import EdgeType, PropertyGraph
from repro.core.query import QueryEngine, build_indexes

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


# ---------------------------------------------------------------------------
# Multi-hop chains with WHERE: indexed == naive == brute force
# ---------------------------------------------------------------------------

_CHAIN_TYPES = (EdgeType.SIMILAR, EdgeType.COEXISTING, EdgeType.DEPENDENCY)


@st.composite
def typed_graphs(draw):
    """A pinned engine over similar, coexisting and directed dependency
    edges, the node attrs, and reference adjacency sets keyed by
    (edge type, direction)."""
    n = draw(st.integers(2, 7))
    nodes = [f"n{idx}" for idx in range(n)]
    graph = PropertyGraph()
    attrs = {}
    for idx, node in enumerate(nodes):
        attrs[node] = {
            "ecosystem": draw(st.sampled_from(_ECOSYSTEMS)),
            "release_day": draw(st.integers(0, 100)),
            "name": f"pkg{idx}",
        }
        graph.add_node(node, **attrs[node])
    pairs = st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        max_size=12,
    )
    adjacency = {
        (edge_type, direction): {node: set() for node in nodes}
        for edge_type in _CHAIN_TYPES
        for direction in ("out", "in", "any")
    }
    for edge_type in _CHAIN_TYPES:
        for u, v in draw(pairs):
            graph.add_edge(u, v, edge_type)
            # u -> v: a dependency is directed, the other types symmetric
            adjacency[edge_type, "out"][u].add(v)
            adjacency[edge_type, "in"][v].add(u)
            adjacency[edge_type, "any"][u].add(v)
            adjacency[edge_type, "any"][v].add(u)
            if edge_type is not EdgeType.DEPENDENCY:
                adjacency[edge_type, "out"][v].add(u)
                adjacency[edge_type, "in"][u].add(v)
    indexes = build_indexes(graph)
    for direction, held in (("out", indexes.out), ("in", indexes.into)):
        held[EdgeType.DEPENDENCY] = {
            node: tuple(sorted(others))
            for node, others in adjacency[EdgeType.DEPENDENCY, direction].items()
            if others
        }
    return QueryEngine.pinned(indexes), attrs, adjacency


_OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, ">=": operator.ge}


def _comparisons(var):
    """``(var, attr, op, literal)`` for one comparison on ``var``."""
    return st.one_of(
        st.tuples(
            st.just("ecosystem"),
            st.sampled_from(["=", "!="]),
            st.sampled_from(_ECOSYSTEMS),
        ),
        st.tuples(st.just("name"), st.just("="), st.integers(0, 6).map("pkg{}".format)),
        st.tuples(
            st.just("release_day"), st.sampled_from(["<", ">="]), st.integers(0, 100)
        ),
    ).map(lambda comparison: (var, *comparison))


def _render(comparison):
    var, attr, op, literal = comparison
    shown = f"'{literal}'" if isinstance(literal, str) else literal
    return f"{var}.{attr} {op} {shown}"


def _compare(comparison, bound):
    var, attr, op, literal = comparison
    return _OPERATORS[op](bound[var][attr], literal)


@st.composite
def chain_queries(draw):
    """A 2-3 node chain whose WHERE is an AND of comparisons, an OR
    across two variables, or that OR nested in an AND; returns the query
    text and what the brute-force reference needs."""
    variables = ("a", "b", "c")[: draw(st.integers(2, 3))]
    props = dict.fromkeys(variables)
    pinned = draw(st.sampled_from((None,) + variables))
    if pinned is not None:
        props[pinned] = draw(st.sampled_from(_ECOSYSTEMS))
    hops = []
    for _ in variables[1:]:
        types = tuple(draw(st.lists(st.sampled_from(_CHAIN_TYPES), unique=True)))
        direction = draw(st.sampled_from(["any", "out", "in"]))
        span = draw(
            st.one_of(
                st.just(None),
                st.tuples(st.integers(1, 2), st.sampled_from([1, 2, 3, None])).filter(
                    lambda pair: pair[1] is None or pair[1] >= pair[0]
                ),
            )
        )
        hops.append((types, direction, span))

    def on_any_variable():
        return draw(_comparisons(draw(st.sampled_from(variables))))

    shape = draw(st.sampled_from(["and", "or", "nested"]))
    either = []
    if shape == "and":
        # single-variable comparisons on any variable: an indexed
        # equality may seed the plan at the middle or right variable
        conjuncts = [on_any_variable() for _ in range(draw(st.integers(1, 3)))]
    else:
        left, right = draw(st.permutations(variables))[:2]
        either = [draw(_comparisons(left)), draw(_comparisons(right))]
        conjuncts = [on_any_variable()] if shape == "nested" else []
    parts = [_render(comparison) for comparison in conjuncts]
    if either:
        alternatives = " OR ".join(_render(comparison) for comparison in either)
        parts.append(f"({alternatives})" if conjuncts else alternatives)

    pattern = []
    for idx, var in enumerate(variables):
        if idx:
            types, direction, span = hops[idx - 1]
            inner = "|".join(t.value for t in types)
            if span is not None:
                lo, hi = span
                inner += f"*{lo}..{'' if hi is None else hi}"
            head = "<-" if direction == "in" else "-"
            tail = "->" if direction == "out" else "-"
            pattern.append(f"{head}[{inner}]{tail}")
        prop = props[var]
        pattern.append(f"({var} {{ecosystem: '{prop}'}})" if prop else f"({var})")
    text = (
        f"MATCH {''.join(pattern)} WHERE {' AND '.join(parts)} "
        f"RETURN {', '.join(variables)}"
    )
    return text, variables, props, hops, (conjuncts, either)


def _distances(adjacency, types, direction, start):
    """Shortest hop counts from ``start`` (BFS over the chosen maps)."""
    distance = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for edge_type in types or _CHAIN_TYPES:
                for other in adjacency[edge_type, direction][node]:
                    if other not in distance:
                        distance[other] = distance[node] + 1
                        nxt.append(other)
        frontier = nxt
    return distance


def _hop_holds(adjacency, hop, u, v):
    types, direction, span = hop
    if span is None:
        return any(v in adjacency[t, direction][u] for t in types or _CHAIN_TYPES)
    lo, hi = span
    found = _distances(adjacency, types, direction, u).get(v)
    return found is not None and found >= lo and (hi is None or found <= hi)


def _reference_rows(attrs, adjacency, variables, props, hops, where):
    """Every node tuple that satisfies the chain, in canonical order."""
    conjuncts, either = where
    rows = []
    for combo in itertools.product(sorted(attrs), repeat=len(variables)):
        if any(
            props[var] and attrs[node]["ecosystem"] != props[var]
            for var, node in zip(variables, combo)
        ):
            continue
        if not all(
            _hop_holds(adjacency, hop, combo[idx], combo[idx + 1])
            for idx, hop in enumerate(hops)
        ):
            continue
        bound = {var: attrs[node] for var, node in zip(variables, combo)}
        if all(_compare(c, bound) for c in conjuncts) and (
            not either or any(_compare(c, bound) for c in either)
        ):
            rows.append(combo)
    return sorted(rows)


@given(typed_graphs(), chain_queries())
@settings(max_examples=150, deadline=None)
def test_multi_hop_where_matches_reference(data, query):
    engine, attrs, adjacency = data
    text, *spec = query
    expected = _reference_rows(attrs, adjacency, *spec)
    assert list(engine.run(text).rows) == expected, text
    assert list(engine.run(text, naive=True).rows) == expected, text


# ---------------------------------------------------------------------------
# Clique-once traversals == per-node BFS over neighbors()
# ---------------------------------------------------------------------------

#: every *lo..hi range the traversal test asks (None: unbounded)
_RANGES = ((1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (3, 4), (1, None), (2, None))


@st.composite
def clique_graphs(draw):
    """Indexes over overlapping cliques (some tombstoned) and pairwise
    edges of every type, with directed dependency maps, and its nodes."""
    n = draw(st.integers(2, 9))
    nodes = [f"n{idx}" for idx in range(n)]
    graph = PropertyGraph()
    for node in nodes:
        graph.add_node(node, name=f"pkg{node[1:]}")
    members = st.lists(st.sampled_from(nodes), min_size=2, max_size=n, unique=True)
    pairs = st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        max_size=8,
    )
    out, into = {}, {}
    for edge_type in EdgeType:
        cliques = draw(st.lists(members, max_size=4))
        for clique in cliques:
            graph.add_clique(clique, edge_type)
        if cliques and draw(st.booleans()):
            graph.remove_clique(edge_type, draw(st.sampled_from(cliques)))
        for u, v in draw(pairs):
            graph.add_edge(u, v, edge_type)
            if edge_type is EdgeType.DEPENDENCY:
                out.setdefault(u, set()).add(v)
                into.setdefault(v, set()).add(u)
    indexes = build_indexes(graph)
    for held, found in ((indexes.out, out), (indexes.into, into)):
        held[EdgeType.DEPENDENCY] = {
            node: tuple(sorted(others)) for node, others in found.items()
        }
    return indexes, nodes


@given(clique_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_clique_once_traversals_match_per_node_bfs(data, draw):
    from repro.core.query import neighborhood, shortest_path

    from tests.core.index_oracle import (
        bfs_neighborhood,
        bfs_reachable,
        bfs_shortest_path,
    )

    indexes, nodes = data
    engine = QueryEngine.pinned(indexes)
    types = tuple(
        draw.draw(st.lists(st.sampled_from(list(EdgeType)), unique=True, max_size=3))
    )
    inner = "|".join(t.value for t in types)
    start = draw.draw(st.sampled_from(nodes))
    flipped = {"any": "any", "out": "in", "in": "out"}
    for direction, head, tail in (("any", "-", "-"), ("out", "-", "->"), ("in", "<-", "-")):
        for lo, hi in _RANGES:
            hop = f"{head}[{inner}*{lo}..{'' if hi is None else hi}]{tail}"
            # seeded left: the hop runs forward; seeded right: backward
            rows = engine.run(f"MATCH (a){hop}(b) WHERE a.id = '{start}' RETURN b").rows
            assert [b for (b,) in rows] == bfs_reachable(
                indexes, start, types, direction, lo, hi
            ), (hop, start)
            rows = engine.run(f"MATCH (a){hop}(b) WHERE b.id = '{start}' RETURN a").rows
            assert [a for (a,) in rows] == bfs_reachable(
                indexes, start, types, flipped[direction], lo, hi
            ), (hop, start)

    node_sets = st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    sources, targets = draw.draw(node_sets), draw.draw(node_sets)
    for k in range(5):
        assert neighborhood(indexes, sources, k, types) == bfs_neighborhood(
            indexes, sources, k, types
        )
    assert shortest_path(indexes, sources, targets, types) == bfs_shortest_path(
        indexes, sources, targets, types
    )
    typed = f", '{inner}'" if inner else ""
    rows = engine.run(f"CALL neighborhood('{start}', 2{typed})").rows
    assert list(rows) == bfs_neighborhood(indexes, [start], 2, types)
    rows = engine.run(f"CALL shortest_path('{start}', '{targets[0]}'{typed})").rows
    assert [node for _, node in rows] == bfs_shortest_path(
        indexes, [start], [targets[0]], types
    )
