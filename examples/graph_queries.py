#!/usr/bin/env python
"""Explore MALGRAPH with the Cypher-like query language.

The paper stores MALGRAPH in Neo4j and explores it interactively; this
example runs the same kind of queries against the in-memory property
graph: who depends on whom, which NPM packages share a code base, and
how large the co-reporting cliques are.

Run::

    python examples/graph_queries.py
"""

from __future__ import annotations

from repro.core.query import QueryEngine
from repro.paper import PaperArtifacts
from repro.world import WorldConfig

QUERIES = [
    (
        "Malicious dependency pairs (Fig. 7 attacks)",
        "MATCH (front)-[dependency]-(lib) "
        "RETURN front.name, lib.name ORDER BY front.name LIMIT 8",
    ),
    (
        "NPM packages similar to a 'cloud-*' package",
        "MATCH (a)-[similar]-(b) "
        "WHERE a.name CONTAINS 'cloud' AND a.ecosystem = 'npm' "
        "RETURN a.name, b.name LIMIT 8",
    ),
    (
        "Recent releases reported by multiple relationships",
        "MATCH (a)-[coexisting]-(b) WHERE a.release_day > 1800 "
        "RETURN a.name, b.name LIMIT 8",
    ),
    (
        "How many duplicated-code pairs exist?",
        "MATCH (a)-[duplicated]-(b) RETURN count(*)",
    ),
    (
        "PyPI nodes collected with an artifact in hand",
        "MATCH (a) WHERE a.ecosystem = 'pypi' AND a.sha256 != '' "
        "RETURN count(*)",
    ),
    (
        "Two-hop pivot: similar code that also co-exists in a report",
        "MATCH (a)-[similar]-(b)-[coexisting]-(c) "
        "WHERE a.ecosystem = 'npm' "
        "RETURN a.name, b.name, c.name LIMIT 8",
    ),
    (
        "Three-hop similarity neighbourhood of one package",
        "MATCH (a)-[similar*1..3]-(b) "
        "WHERE a.ecosystem = 'npm' RETURN b.name LIMIT 8",
    ),
]


def main() -> None:
    print("Building a reduced-scale world and its MALGRAPH ...")
    artifacts = PaperArtifacts(WorldConfig(seed=7, scale=0.4))
    engine = QueryEngine(artifacts.malgraph)
    print(f"  graph has {artifacts.malgraph.node_count} nodes\n")
    for title, query in QUERIES:
        print(f"== {title}")
        print(f"   {query}")
        print(f"   plan: {engine.explain(query)}")
        result = engine.run(query)
        print(result.render_table())
        print(f"   ({result.row_count} rows in {result.elapsed_ms:.2f} ms)")
        print()

    # the procedure surface: pick any co-reporting group and walk out
    indexes = engine.indexes()
    reports = sorted(g for g in indexes.group_members if g.startswith("CG-"))
    if reports:
        print(f"== Two-hop neighbourhood of report group {reports[0]}")
        print(f"   CALL neighborhood('cg:{reports[0]}', 2)")
        print(engine.run(f"CALL neighborhood('cg:{reports[0]}', 2)").render_table())


if __name__ == "__main__":
    main()
