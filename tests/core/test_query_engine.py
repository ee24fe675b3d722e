"""QueryEngine end-to-end: the ROADMAP exemplar queries, CLI parity,
and the MalGraph.groups() memoisation under concurrency."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.query import QueryEngine


@pytest.fixture(scope="module")
def malgraph(small_dataset) -> MalGraph:
    return MalGraph.build(small_dataset)


@pytest.fixture(scope="module")
def engine(malgraph) -> QueryEngine:
    return QueryEngine(malgraph)


# ---------------------------------------------------------------------------
# The three ROADMAP exemplar queries
# ---------------------------------------------------------------------------

def test_similar_to_x_coexisting_with_campaign(engine):
    """'packages similar to X that co-exist with anything in campaign C'."""
    indexes = engine.indexes()
    # find a (name, campaign) pair the small world actually connects
    from repro.core.graph import EdgeType

    pick = None
    for node in indexes.nodes:
        for b in indexes.neighbors(node, (EdgeType.SIMILAR,)):
            for c in indexes.neighbors(b, (EdgeType.COEXISTING,)):
                campaign = indexes.node_attrs(c).get("campaign")
                if campaign:
                    pick = (indexes.node_attrs(node)["name"], campaign, b)
                    break
            if pick:
                break
        if pick:
            break
    assert pick, "small world should contain a similar→coexisting→campaign path"
    name, campaign, witness = pick
    rows = engine.run(
        f"MATCH (a {{name: '{name}'}})-[similar]-(b)-[coexisting]-(c) "
        f"WHERE c.campaign = '{campaign}' RETURN b"
    ).rows
    found = {r[0] for r in rows}
    assert witness in found
    # verify every row against raw adjacency
    for b in found:
        assert any(
            indexes.node_attrs(c).get("campaign") == campaign
            for c in indexes.neighbors(b, (EdgeType.COEXISTING,))
        )


def test_shortest_dependency_path_actor_to_package(engine):
    """'shortest dependency path actor→package' via the actor selector."""
    indexes = engine.indexes()
    actors = indexes.by_attr.get("actor", {})
    assert actors, "small world should attribute packages to actors"
    # pick an actor whose packages reach something beyond themselves
    actor, sources, target = None, set(), None
    for candidate in sorted(actors):
        held = set(actors[candidate])
        for source in sorted(held):
            for node, _distance in engine.neighborhood(source, 3):
                if node not in held:
                    actor, sources, target = candidate, held, node
                    break
            if target:
                break
        if target:
            break
    assert target, "some actor should reach a foreign package within 3 hops"
    path = engine.shortest_path(f"actor:{actor}", target)
    assert path, "selector-resolved path should exist"
    assert path[0] in sources
    assert path[-1] == target


def test_k_hop_neighborhood_for_a_report(engine):
    """'k-hop neighbourhood for a report' — a co-existing (CG) group."""
    indexes = engine.indexes()
    cg_ids = [g for g in indexes.group_members if g.startswith("CG-")]
    assert cg_ids, "small world should have co-existing report groups"
    group_id = sorted(cg_ids)[0]
    got = engine.neighborhood(f"cg:{group_id}", 2)
    members = set(indexes.group_members[group_id])
    at_zero = {node for node, distance in got if distance == 0}
    assert at_zero == members
    assert all(0 <= distance <= 2 for _node, distance in got)


# ---------------------------------------------------------------------------
# Surface parity: Python API vs CLI (the HTTP surface is covered in
# tests/service/test_query_endpoint.py against the same fixtures)
# ---------------------------------------------------------------------------

def test_cli_json_matches_python_api(engine, monkeypatch, capsys):
    from repro import cli

    query = "MATCH (a)-[similar]-(b) RETURN a.name, b.name ORDER BY a.name LIMIT 5"
    expected = engine.run(query)

    class _Artifacts:
        malgraph = engine.malgraph

    monkeypatch.setattr(cli, "_artifacts", lambda args: _Artifacts())
    code = cli.main(["query", query, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == list(expected.columns)
    assert [tuple(row) for row in payload["rows"]] == list(expected.rows)
    assert payload["row_count"] == expected.row_count


def test_cli_table_output_and_error_exit(engine, monkeypatch, capsys):
    from repro import cli

    class _Artifacts:
        malgraph = engine.malgraph

    monkeypatch.setattr(cli, "_artifacts", lambda args: _Artifacts())
    assert cli.main(["query", "MATCH (a) RETURN count(*)"]) == 0
    out = capsys.readouterr().out
    assert "count(*)" in out and "rows," in out
    assert cli.main(["query", "MATCH oops"]) == 2
    assert "query error" in capsys.readouterr().err


def test_explain_names_the_seed_index(engine):
    indexes = engine.indexes()
    name = indexes.node_attrs(indexes.nodes[0])["name"]
    text = engine.explain(f"MATCH (a {{name: '{name}'}})-[similar]-(b) RETURN b")
    assert "name=" in text
    assert engine.explain("MATCH (a) RETURN a").startswith("scan all nodes")


# ---------------------------------------------------------------------------
# MalGraph.groups() memoisation race (satellite fix)
# ---------------------------------------------------------------------------

def test_groups_memoisation_is_single_flight(malgraph, monkeypatch):
    import repro.core.malgraph as malgraph_module

    fresh = MalGraph(
        graph=malgraph.graph,
        dataset=malgraph.dataset,
        similar=malgraph.similar,
    )
    calls = []
    real_extract = malgraph_module.extract_groups

    def counting_extract(graph, dataset, kind):
        calls.append(kind)
        return real_extract(graph, dataset, kind)

    monkeypatch.setattr(malgraph_module, "extract_groups", counting_extract)

    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append(fresh.groups(GroupKind.CG))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert calls == [GroupKind.CG]  # extracted exactly once
    assert all(r is results[0] for r in results)
