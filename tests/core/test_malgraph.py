"""MalGraph facade: the assembled knowledge graph, on both hand-built
datasets and the simulated world."""

from __future__ import annotations

import pytest

from repro.core.graph import EdgeType
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig

from tests.core.helpers import dataset, entry, report


@pytest.fixture(scope="module")
def mini_malgraph():
    shared_code = "def payload():\n    return 'steal'\n"
    lib = entry("lib", code="def hide():\n    return 0\n", campaign_id="dep")
    front = entry(
        "front", code="import lib\n", dependencies=("lib",), campaign_id="dep"
    )
    twin_a = entry("twin-a", code=shared_code, campaign_id="flood")
    twin_b = entry("twin-b", code=shared_code, campaign_id="flood")
    ds = dataset(
        [lib, front, twin_a, twin_b],
        [report("r1", [lib.package, front.package])],
    )
    return MalGraph.build(ds, SimilarityConfig(seed=0))


def test_build_adds_every_entry_as_node(mini_malgraph):
    assert mini_malgraph.node_count == 4


def test_build_populates_all_edge_kinds(mini_malgraph):
    assert len(mini_malgraph.duplicated_groups) == 1
    assert len(mini_malgraph.dependency_edges) == 1
    assert len(mini_malgraph.similar.groups) >= 1
    assert len(mini_malgraph.coexisting_groups) == 1


def test_groups_memoised(mini_malgraph):
    first = mini_malgraph.groups(GroupKind.DG)
    assert mini_malgraph.groups(GroupKind.DG) is first


def test_groups_are_read_afresh_after_a_graph_change():
    """The group memo is keyed on the graph version, as the query
    indexes are, so a change made on the graph directly shows."""
    ds = dataset(
        [
            entry("one", code="def one():\n    return 1\n"),
            entry("two", code="def two():\n    return 2\n"),
        ]
    )
    malgraph = MalGraph.build(ds)
    assert malgraph.groups(GroupKind.DG) == []
    malgraph.graph.add_clique(["pypi:one@1.0", "pypi:two@1.0"], EdgeType.DUPLICATED)
    (group,) = malgraph.groups(GroupKind.DG)
    assert {e.package.name for e in group.members} == {"one", "two"}
    assert malgraph.groups(GroupKind.DG) == [group]


def test_duplicated_group_members(mini_malgraph):
    groups = mini_malgraph.groups(GroupKind.DG)
    assert len(groups) == 1
    assert {e.package.name for e in groups[0].members} == {"twin-a", "twin-b"}


def test_dependency_group_members(mini_malgraph):
    groups = mini_malgraph.groups(GroupKind.DEG)
    assert len(groups) == 1
    assert {e.package.name for e in groups[0].members} == {"lib", "front"}


def test_table2_stats_order_and_symmetry(mini_malgraph):
    stats = mini_malgraph.table2_stats()
    assert [s.edge_type for s in stats] == [
        EdgeType.DUPLICATED,
        EdgeType.DEPENDENCY,
        EdgeType.SIMILAR,
        EdgeType.COEXISTING,
    ]
    for s in stats:
        assert s.avg_out_degree == s.avg_in_degree


# -- against the simulated world -------------------------------------------------

@pytest.fixture(scope="module")
def world_malgraph(request):
    small_dataset = request.getfixturevalue("small_dataset")
    return MalGraph.build(small_dataset)


def test_world_graph_covers_dataset(world_malgraph):
    assert world_malgraph.node_count == len(world_malgraph.dataset)


def test_world_sg_groups_recover_campaigns(world_malgraph):
    """Similarity groups should be nearly pure w.r.t. ground truth."""
    groups = world_malgraph.groups(GroupKind.SG)
    assert groups, "the world contains similarity structure"
    sized = [g for g in groups if g.size >= 3]
    mean_purity = sum(g.purity for g in sized) / len(sized)
    assert mean_purity > 0.9


def test_world_deg_groups_are_small(world_malgraph):
    """Dependency groups are rare and tiny (Table VII: avg size ~2)."""
    groups = world_malgraph.groups(GroupKind.DEG)
    for group in groups:
        assert group.size <= 8


def test_world_dg_members_share_signature(world_malgraph):
    for group in world_malgraph.groups(GroupKind.DG):
        available = [e for e in group.members if e.available]
        signatures = {e.sha256() for e in available}
        # a DG component may chain via transitive duplicates, but with
        # signature-keyed cliques every component is one signature
        assert len(signatures) == 1


def test_world_cg_members_share_reports(world_malgraph):
    report_index = {}
    for rep in world_malgraph.dataset.reports:
        for package in rep.packages:
            report_index.setdefault(package, set()).add(rep.report_id)
    for group in world_malgraph.groups(GroupKind.CG)[:20]:
        # connectivity: each member shares a report with some other member
        for member in group.members:
            mine = report_index.get(member.package, set())
            others = set()
            for other in group.members:
                if other is not member:
                    others |= report_index.get(other.package, set())
            assert mine & others or not mine


def test_world_graph_stats_shape(world_malgraph):
    """Table II shape: SG is the densest subgraph, DeG nearly empty."""
    stats = {s.edge_type: s for s in world_malgraph.table2_stats()}
    assert stats[EdgeType.SIMILAR].directed_edges > (
        stats[EdgeType.DEPENDENCY].directed_edges
    )
    assert stats[EdgeType.DEPENDENCY].avg_out_degree < 3
