"""``repro.query`` — a relationship-first graph query engine over MALGRAPH.

The paper explores MALGRAPH with Neo4j/Cypher; this package is the
offline equivalent: a compact Cypher-flavoured language with typed,
directed, variable-length edge hops::

    MATCH (a {name: 'left-pad'})-[similar*1..3]->(b)
    WHERE b.ecosystem = 'npm' AND b.campaign IS NOT NULL
    RETURN b.name, b.campaign ORDER BY b.name LIMIT 10

    CALL shortest_path('actor:wolf-spider', 'npm:evil@1.0.0', 'dependency')

Layers (each its own module):

* :mod:`~repro.core.query.lexer` / :mod:`~repro.core.query.parser` /
  :mod:`~repro.core.query.ast` — hand-rolled tokenizer and
  recursive-descent parser producing frozen, renderable AST nodes with
  caret-precise :class:`QuerySyntaxError` positions;
* :mod:`~repro.core.query.indexes` — per-graph adjacency + attribute
  indexes, built once and cached behind the graph's mutation counter;
* :mod:`~repro.core.query.executor` — selectivity planner, indexed
  chain/BFS executor, naive-scan baseline, and the built-in procedures
  ``shortest_path`` / ``neighborhood``;
* :mod:`~repro.core.query.engine` — :class:`QueryEngine`, the shared
  entry point for the Python API, ``repro query`` and ``/v1/query``.

"""

from __future__ import annotations

from repro.core.query.ast import (
    BoolExpr,
    CallQuery,
    Comparison,
    EdgePattern,
    MatchQuery,
    NodePattern,
    QueryAst,
    QueryError,
    QuerySyntaxError,
    ReturnItem,
    render,
)
from repro.core.query.engine import QueryEngine, QueryResult
from repro.core.query.executor import (
    Plan,
    execute,
    neighborhood,
    plan_match,
    shortest_path,
)
from repro.core.query.indexes import (
    INDEXED_ATTRS,
    GraphIndexes,
    build_indexes,
    graph_indexes,
)
from repro.core.query.lexer import Token, tokenize
from repro.core.query.parser import PROCEDURES, parse

__all__ = [
    "BoolExpr",
    "CallQuery",
    "Comparison",
    "EdgePattern",
    "GraphIndexes",
    "INDEXED_ATTRS",
    "MatchQuery",
    "NodePattern",
    "PROCEDURES",
    "Plan",
    "QueryAst",
    "QueryEngine",
    "QueryError",
    "QueryResult",
    "QuerySyntaxError",
    "ReturnItem",
    "Token",
    "build_indexes",
    "execute",
    "graph_indexes",
    "neighborhood",
    "parse",
    "plan_match",
    "render",
    "shortest_path",
    "tokenize",
]

