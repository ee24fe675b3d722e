"""``QueryEngine`` — the one entry point every surface shares.

The CLI (``repro query``), the enrichment server (``POST /v1/query``)
and Python callers all run queries through this class, so one parse /
plan / execute path produces byte-identical rows everywhere. Built over
a :class:`~repro.core.malgraph.MalGraph` the engine sees the enriched
indexes (directed dependencies, ground-truth attributes, group ids);
:meth:`QueryEngine.for_graph` queries a hand-built graph, and
:meth:`QueryEngine.pinned` answers from one fixed index snapshot (what
each enrichment-service generation serves).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.graph import EdgeType, PropertyGraph
from repro.core.query import executor as _executor
from repro.core.query.ast import QueryAst, QueryError
from repro.core.query.indexes import GraphIndexes, graph_indexes
from repro.core.query.parser import parse


@dataclass(frozen=True)
class QueryResult:
    """Columns + rows + execution stats for one query."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple, ...] = ()
    elapsed_ms: float = 0.0
    plan: str = ""

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (the ``/v1/query`` response body); the row
        tuples go out as they are, since ``json`` encodes them as arrays."""
        return {
            "columns": list(self.columns),
            "rows": self.rows,
            "row_count": self.row_count,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "plan": self.plan,
        }

    def render_table(self, title: str = "") -> str:
        from repro.analysis.render import render_table

        return render_table(
            list(self.columns),
            [[str(cell) for cell in row] for row in self.rows],
            title=title,
        )


class QueryEngine:
    """Parse, plan and execute MALGRAPH queries.

    ``naive=True`` on :meth:`run` bypasses index seeding (full-scan
    baseline) — row sets are guaranteed identical, which the benchmark's
    correctness gate asserts.
    """

    def __init__(self, malgraph=None, graph: Optional[PropertyGraph] = None):
        if malgraph is None and graph is None:
            raise QueryError("QueryEngine needs a MalGraph or a PropertyGraph")
        self.malgraph = malgraph
        self.graph = graph if graph is not None else malgraph.graph
        self._pinned: Optional[GraphIndexes] = None

    @classmethod
    def for_graph(cls, graph: PropertyGraph) -> "QueryEngine":
        """An engine over a bare graph (no dataset enrichment)."""
        return cls(malgraph=None, graph=graph)

    @classmethod
    def pinned(cls, indexes: GraphIndexes) -> "QueryEngine":
        """An engine answering every query from ``indexes`` alone.

        Nothing it runs touches a live graph, so later mutations of the
        graph the snapshot came from cannot change (or break) its rows.
        """
        engine = cls.__new__(cls)
        engine.malgraph = engine.graph = None
        engine._pinned = indexes
        return engine

    def indexes(self) -> GraphIndexes:
        """The indexes this engine queries: its pinned snapshot, else the
        graph's cached (version-checked) ones."""
        if self._pinned is not None:
            return self._pinned
        return graph_indexes(self.graph, self.malgraph)

    # -- queries ----------------------------------------------------------
    def run(self, query_text: str, naive: bool = False) -> QueryResult:
        """Parse and execute; raises :class:`QueryError` on bad input."""
        query = parse(query_text)
        return self.run_ast(query, naive=naive)

    def run_ast(self, query: QueryAst, naive: bool = False) -> QueryResult:
        indexes = self.indexes()
        started = time.perf_counter()
        columns, rows, plan = _executor.execute(query, indexes, naive=naive)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return QueryResult(
            columns=tuple(columns),
            rows=tuple(rows),
            elapsed_ms=elapsed_ms,
            plan=plan.describe(query) if plan is not None else query.procedure,
        )

    def explain(self, query_text: str) -> str:
        """The plan the executor would use, without running it."""
        query = parse(query_text)
        if not hasattr(query, "nodes"):
            return f"procedure {query.procedure}"
        return _executor.plan_match(query, self.indexes()).describe(query)

    # -- procedures (direct Python API) -----------------------------------
    def shortest_path(
        self,
        source: str,
        target: str,
        edge_types: Sequence[EdgeType] = (),
    ) -> List[str]:
        """Shortest path between two node selectors (see
        :func:`~repro.core.query.executor.resolve_selector`); ``[]`` when
        unreachable."""
        indexes = self.indexes()
        return _executor.shortest_path(
            indexes,
            _executor.resolve_selector(indexes, source),
            _executor.resolve_selector(indexes, target),
            tuple(edge_types),
        )

    def neighborhood(
        self,
        source: str,
        k: int,
        edge_types: Sequence[EdgeType] = (),
    ) -> List[Tuple[str, int]]:
        """(node, distance) pairs within ``k`` hops of ``source``."""
        indexes = self.indexes()
        return _executor.neighborhood(
            indexes,
            _executor.resolve_selector(indexes, source),
            k,
            tuple(edge_types),
        )
