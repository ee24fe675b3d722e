"""GraphIndexes construction, enrichment, and the per-graph cache."""

from __future__ import annotations

import threading

import pytest

from repro.core.edges import node_id
from repro.core.graph import EdgeType, PropertyGraph
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.query import build_indexes, graph_indexes
from repro.ecosystem.package import PackageId

from tests.core.index_oracle import assert_same_indexes


@pytest.fixture()
def graph() -> PropertyGraph:
    g = PropertyGraph()
    for i in range(6):
        g.add_node(f"n{i}", name=f"pkg{i}", ecosystem="npm" if i % 2 else "pypi")
    g.add_edge("n0", "n1", EdgeType.SIMILAR)
    g.add_edge("n1", "n2", EdgeType.SIMILAR)
    g.add_clique(["n2", "n3", "n4"], EdgeType.COEXISTING)
    g.add_edge("n4", "n5", EdgeType.DEPENDENCY)
    return g


@pytest.fixture(scope="module")
def malgraph(small_dataset) -> MalGraph:
    return MalGraph.build(small_dataset)


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------

def test_adjacency_matches_graph_neighbors(graph):
    indexes = build_indexes(graph)
    for edge_type in EdgeType:
        for node in graph.touched_nodes(edge_type):
            assert set(indexes.neighbors(node, (edge_type,))) == graph.neighbors(
                node, edge_type
            )


def test_cliques_are_expanded(graph):
    indexes = build_indexes(graph)
    assert indexes.neighbors("n3", (EdgeType.COEXISTING,)) == ["n2", "n4"]


def test_neighbors_merge_multiple_types_sorted(graph):
    indexes = build_indexes(graph)
    merged = indexes.neighbors(
        "n4", (EdgeType.COEXISTING, EdgeType.DEPENDENCY)
    )
    assert merged == ["n2", "n3", "n5"]


def test_symmetric_types_ignore_direction(graph):
    indexes = build_indexes(graph)
    for direction in ("any", "out", "in"):
        assert indexes.neighbors("n1", (EdgeType.SIMILAR,), direction) == [
            "n0",
            "n2",
        ]


def test_each_clique_is_stored_once(graph):
    indexes = build_indexes(graph)
    tables = indexes.adjacency[EdgeType.COEXISTING]
    assert tables.cliques == {0: ("n2", "n3", "n4")}
    assert tables.slots_of == {"n2": (0,), "n3": (0,), "n4": (0,)}
    assert tables.pairwise == {}
    assert indexes.adjacency[EdgeType.SIMILAR].pairwise == {
        "n0": ("n1",),
        "n1": ("n0", "n2"),
        "n2": ("n1",),
    }
    # the clique run carries its key and the node itself
    assert indexes.runs("n3", (EdgeType.COEXISTING,)) == [
        ((EdgeType.COEXISTING, 0), ("n2", "n3", "n4"))
    ]


def test_snapshot_owns_its_tables(graph):
    """The graph mutates in place under a served snapshot: no table may
    alias the graph's sets or membership lists."""
    indexes = build_indexes(graph)
    before = {node: indexes.neighbors(node) for node in indexes.nodes}
    graph.add_edge("n0", "n5", EdgeType.SIMILAR)
    graph.add_edge("n3", "n5", EdgeType.COEXISTING)
    graph.remove_edge("n4", "n5", EdgeType.DEPENDENCY)
    graph.remove_clique(EdgeType.COEXISTING, ["n2", "n3", "n4"])
    graph.add_clique(["n0", "n3"], EdgeType.COEXISTING)
    assert {node: indexes.neighbors(node) for node in indexes.nodes} == before


def test_related_merges_overlapping_cliques_and_pairwise_edges():
    """alpha sits in a duplicated clique (twin shares its code), two
    co-existing cliques (two reports) and pairwise dependency edges."""
    from repro.service.index import IntelIndex

    from tests.core.helpers import dataset, entry, report

    code = "def payload():\n    return 'alpha'\n"
    alpha, twin = entry("alpha", code=code), entry("twin", code=code)
    others = [
        entry(name, code=f"def f():\n    return {name!r}\n", dependencies=deps)
        for name, deps in (
            ("beta", ()), ("gamma", ()), ("delta", ()),
            ("echo", ("alpha",)), ("foxtrot", ("alpha",)), ("golf", ()),
        )
    ]
    beta, gamma, delta = (e.package for e in others[:3])
    ds = dataset(
        [alpha, twin, *others],
        [
            report("r-0", [alpha.package, beta, gamma]),
            report("r-1", [alpha.package, delta]),
        ],
    )
    malgraph = MalGraph.build(ds)
    index = IntelIndex.build(malgraph)
    node = node_id(alpha.package)
    coexisting = index.indexes.adjacency[EdgeType.COEXISTING]
    assert len(coexisting.slots_of[node]) == 2
    assert index.indexes.adjacency[EdgeType.DUPLICATED].slots_of[node]
    assert len(index.indexes.adjacency[EdgeType.DEPENDENCY].pairwise[node]) == 2

    union = sorted(
        set().union(*(malgraph.graph.neighbors(node, t) for t in EdgeType))
    )
    assert len(union) >= 6
    for limit in (1, len(union) - 1, len(union), len(union) + 5, 25):
        assert index.related(alpha.package, limit=limit) == union[:limit], limit
    assert index.related(alpha.package, limit=0) == []
    assert index.related(entry("nobody").package) == []


# ---------------------------------------------------------------------------
# Attribute indexes
# ---------------------------------------------------------------------------

def test_by_attr_buckets(graph):
    indexes = build_indexes(graph)
    assert indexes.lookup("name", "pkg3") == ("n3",)
    assert indexes.lookup("ecosystem", "npm") == ("n1", "n3", "n5")
    assert indexes.lookup("name", "nope") == ()
    assert indexes.candidate_count("ecosystem", "pypi") == 3
    assert indexes.candidate_count("release_day", 1) is None  # unindexed


def test_node_attrs_include_id(graph):
    indexes = build_indexes(graph)
    assert indexes.node_attrs("n0")["id"] == "n0"
    assert indexes.node_attrs("n0")["name"] == "pkg0"
    assert indexes.node_attrs("ghost") == {}


# ---------------------------------------------------------------------------
# MalGraph enrichment
# ---------------------------------------------------------------------------

def test_directed_dependency_maps(malgraph):
    indexes = malgraph.query_indexes()
    assert malgraph.dependency_edges, "small world should have dependencies"
    entry, target = malgraph.dependency_edges[0]
    u, v = node_id(entry.package), node_id(target.package)
    assert v in indexes.neighbors(u, (EdgeType.DEPENDENCY,), "out")
    assert u in indexes.neighbors(v, (EdgeType.DEPENDENCY,), "in")
    # the undirected view still sees the pair both ways
    assert v in indexes.neighbors(u, (EdgeType.DEPENDENCY,), "any")
    assert u in indexes.neighbors(v, (EdgeType.DEPENDENCY,), "any")
    _assert_dependency_direction(malgraph)


def _assert_dependency_direction(malgraph):
    """The DEPENDENCY ``out``/``into`` maps against a reference built
    from the dataset's own dependency pairs."""
    from repro.core.edges import dependency_pairs_of

    out, into = {}, {}
    for entry, target in dependency_pairs_of(malgraph.dataset):
        u, v = node_id(entry.package), node_id(target.package)
        out.setdefault(u, set()).add(v)
        into.setdefault(v, set()).add(u)
    indexes = malgraph.query_indexes()
    assert indexes.out[EdgeType.DEPENDENCY] == {
        node: tuple(sorted(found)) for node, found in out.items()
    }
    assert indexes.into[EdgeType.DEPENDENCY] == {
        node: tuple(sorted(found)) for node, found in into.items()
    }


def test_directed_dependency_maps_follow_a_delta_chain(monkeypatch):
    """Cold and after every batch: a mutual pair that becomes one-way
    (the undirected link stays, one direction goes), a depended-on name
    with several versions, an artifact-less dependant that a detection
    gives its artifact, and a removed dependant."""
    from repro.core.delta import GraphEvent

    from tests.core.helpers import dataset, entry

    def pkg(name, version="1.0", **kwargs):
        code = f"def f():\n    return {name!r}, {version!r}\n"
        return entry(name, version=version, code=code, **kwargs)

    ds = dataset([
        pkg("ma", dependencies=("mb",)),
        pkg("mb", dependencies=("ma",)),
        pkg("lib"),
        pkg("lib", version="2.0"),
        pkg("user", dependencies=("lib",)),
        entry("late", code=None),
    ])
    malgraph = MalGraph.build(ds)
    _assert_dependency_direction(malgraph)
    batches = [
        [
            GraphEvent.package_detected(pkg("late", dependencies=("lib", "ma"))),
            GraphEvent.package_added(pkg("lib", version="3.0")),
        ],
        [GraphEvent.package_removed(PackageId("pypi", "user", "1.0"))],
        [
            GraphEvent.package_detected(pkg("mb")),
            GraphEvent.package_removed(PackageId("pypi", "lib", "1.0")),
        ],
    ]
    for events in batches:
        malgraph.apply_delta(events)
        # each check reads the snapshot the batch's patch derived
        _no_full_derivation(monkeypatch)
        _assert_dependency_direction(malgraph)
        monkeypatch.undo()
    indexes = malgraph.query_indexes()
    # mb no longer declares ma: the link stays, only ma -> mb remains
    assert indexes.neighbors("pypi:mb@1.0", (EdgeType.DEPENDENCY,)) == [
        "pypi:ma@1.0"
    ]
    assert indexes.neighbors("pypi:mb@1.0", (EdgeType.DEPENDENCY,), "out") == []
    assert indexes.neighbors("pypi:late@1.0", (EdgeType.DEPENDENCY,), "out") == [
        "pypi:lib@2.0",
        "pypi:lib@3.0",
        "pypi:ma@1.0",
    ]


def test_dataset_attrs_are_indexed(malgraph):
    indexes = malgraph.query_indexes()
    entry = next(e for e in malgraph.dataset.entries if e.campaign_id)
    node = node_id(entry.package)
    held = indexes.node_attrs(node)
    assert held["campaign"] == entry.campaign_id
    assert held["actor"] == entry.actor
    assert held["family"] == entry.behavior_key
    assert node in indexes.lookup("campaign", entry.campaign_id)


def test_group_ids_match_intel_index_convention(malgraph):
    indexes = malgraph.query_indexes()
    for kind in GroupKind:
        groups = malgraph.groups(kind)
        for i, group in enumerate(groups):
            group_id = f"{kind.value}-{i:04d}"
            members = indexes.group_members[group_id]
            assert members == tuple(
                sorted(node_id(m.package) for m in group.members)
            )
            for member in members:
                assert group_id in indexes.groups_of[member]
                assert (
                    indexes.node_attrs(member)[kind.value.lower()] == group_id
                )


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------

def test_cache_returns_same_object(graph):
    assert graph_indexes(graph) is graph_indexes(graph)


def test_mutation_invalidates_cache(graph):
    before = graph_indexes(graph)
    graph.add_node("n6", name="pkg6")
    after = graph_indexes(graph)
    assert after is not before
    assert "n6" in after.nodes
    assert after.version > before.version


def test_plain_and_enriched_are_cached_separately(malgraph):
    plain = graph_indexes(malgraph.graph)
    enriched = graph_indexes(malgraph.graph, malgraph)
    assert plain is not enriched
    assert not plain.enriched and enriched.enriched
    # both stay cached side by side
    assert graph_indexes(malgraph.graph) is plain
    assert malgraph.query_indexes() is enriched


def test_concurrent_first_build_happens_once(graph, monkeypatch):
    from repro.core.query import indexes as indexes_module

    calls = []
    real_build = indexes_module.build_indexes

    def counting_build(*args, **kwargs):
        calls.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(indexes_module, "build_indexes", counting_build)

    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append(graph_indexes(graph))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


# ---------------------------------------------------------------------------
# Delta patching: apply_delta journals patches instead of forcing rebuilds
# ---------------------------------------------------------------------------

_SHARED = "def payload():\n    return 'twin'\n"
_PAIR = "def pair():\n    return 'pair'\n"
_FRONT = "def front():\n    return 'front'\n"


def _delta_world():
    """alpha+twin and bravo+zulu are DG pairs (ranked by their earliest
    members, alpha and bravo), beta depends on alpha and one report names
    alpha and beta."""
    from repro.core.malgraph import MalGraph as _MalGraph

    from tests.core.helpers import dataset, entry, report

    alpha = entry("alpha", code=_SHARED)
    twin = entry("twin", code=_SHARED)
    beta = entry("beta", code="def b():\n    return 2\n", dependencies=("alpha",))
    pair = [entry(name, code=_PAIR) for name in ("bravo", "zulu")]
    ds = dataset(
        [alpha, twin, beta, *pair], [report("r-0", [alpha.package, beta.package])]
    )
    return _MalGraph.build(ds), alpha, twin, beta


def _no_full_derivation(monkeypatch):
    """Make a full index build or group materialisation fail the test."""
    from repro.core.query import indexes as indexes_module

    def failing_build(*args, **kwargs):
        raise AssertionError("patch chain should have avoided build_indexes")

    def failing_groups(self, kind):
        raise AssertionError("patch chain should not re-derive every group")

    monkeypatch.setattr(indexes_module, "build_indexes", failing_build)
    monkeypatch.setattr(MalGraph, "groups", failing_groups)


def _dg_id(indexes, name):
    return indexes.node_attrs(f"pypi:{name}@1.0").get("dg")


def test_apply_delta_patches_cached_indexes_without_rebuild(monkeypatch):
    from repro.core.delta import GraphEvent

    from tests.core.helpers import entry

    malgraph, alpha, twin, beta = _delta_world()
    plain_before = graph_indexes(malgraph.graph)
    enriched_before = malgraph.query_indexes()

    # a new DG pair ranking ahead of both held pairs renumbers the
    # untouched bravo+zulu pair
    events = [
        GraphEvent.package_added(entry("late", code=_SHARED, downloads=4)),
        GraphEvent.package_removed(twin.package),
        GraphEvent.package_added(entry("aaa-one", code=_FRONT)),
        GraphEvent.package_added(entry("aaa-two", code=_FRONT)),
    ]
    malgraph.apply_delta(events)

    # the refresh must go through the patch chain, not a full rebuild
    _no_full_derivation(monkeypatch)
    plain_after = graph_indexes(malgraph.graph)
    enriched_after = malgraph.query_indexes()
    monkeypatch.undo()

    assert plain_after is not plain_before
    assert enriched_after is not enriched_before
    assert _dg_id(enriched_after, "aaa-one") == "DG-0000"
    assert _dg_id(enriched_before, "bravo") == "DG-0001"
    assert _dg_id(enriched_after, "bravo") == "DG-0002"
    assert_same_indexes(plain_after, build_indexes(malgraph.graph), malgraph.graph)
    assert_same_indexes(
        enriched_after, build_indexes(malgraph.graph, malgraph), malgraph.graph
    )


def _chain_batches(alpha, twin, beta):
    """Three batches: a new front-ranked DG pair while beta leaves; alpha
    redated, which moves alpha+twin behind bravo+zulu without changing
    either pair's members; twin removed and beta republished."""
    import dataclasses

    from repro.core.delta import GraphEvent

    from tests.core.helpers import entry

    return [
        [
            GraphEvent.package_added(entry("aaa-one", code=_FRONT)),
            GraphEvent.package_added(entry("aaa-two", code=_FRONT)),
            GraphEvent.package_removed(beta.package),
        ],
        [GraphEvent.package_detected(dataclasses.replace(alpha, release_day=20))],
        [
            GraphEvent.package_removed(twin.package),
            GraphEvent.package_added(beta),
        ],
    ]


@pytest.mark.parametrize("batches", [2, 3])
def test_patch_chain_matches_a_cold_build(monkeypatch, batches):
    """Several batches applied before one read are patched as one chain."""
    malgraph, alpha, twin, beta = _delta_world()
    before = malgraph.query_indexes()
    for events in _chain_batches(alpha, twin, beta)[:batches]:
        malgraph.apply_delta(events)

    _no_full_derivation(monkeypatch)
    after = malgraph.query_indexes()
    monkeypatch.undo()

    assert after is not before
    assert_same_indexes(
        after, build_indexes(malgraph.graph, malgraph), malgraph.graph
    )


def test_patch_splits_and_bridges_groups_like_a_cold_build(monkeypatch):
    """One batch removes the hub of a dependency group, which splits it
    in two, and publishes a package that bridges one half to another
    group; the patch re-derives both from its own tables."""
    from repro.core.delta import GraphEvent
    from repro.core.malgraph import MalGraph as _MalGraph

    from tests.core.helpers import dataset, entry

    hub = entry("hub", dependencies=("a", "c"))
    malgraph = _MalGraph.build(
        dataset(
            [
                hub,
                entry("a"),
                entry("b", dependencies=("a",)),
                entry("c"),
                entry("d", dependencies=("c",)),
                entry("far"),
                entry("near", dependencies=("far",)),
            ]
        )
    )
    before = malgraph.query_indexes()
    deg = {g: m for g, m in before.group_members.items() if g.startswith("DeG")}
    assert [len(m) for m in deg.values()] == [5, 2]
    malgraph.apply_delta(
        [
            GraphEvent.package_removed(hub.package),
            GraphEvent.package_added(entry("e", dependencies=("d", "far"))),
        ]
    )

    _no_full_derivation(monkeypatch)
    after = malgraph.query_indexes()
    monkeypatch.undo()

    deg = {g: m for g, m in after.group_members.items() if g.startswith("DeG")}
    assert deg == {
        "DeG-0000": tuple(f"pypi:{n}@1.0" for n in ("c", "d", "e", "far", "near")),
        "DeG-0001": ("pypi:a@1.0", "pypi:b@1.0"),
    }
    assert_same_indexes(
        after, build_indexes(malgraph.graph, malgraph), malgraph.graph
    )


def test_groups_and_patched_ids_share_one_rank_rule(monkeypatch):
    """Equal-sized groups rank by their earliest member, an undated
    member sorting after every dated one, in ``MalGraph.groups`` and in
    the ids a patch re-derives alike."""
    import dataclasses

    from repro.core.delta import GraphEvent
    from repro.core.malgraph import MalGraph as _MalGraph

    from tests.core.helpers import dataset, entry, report

    undated = entry("a", code="A = 1\n", release_day=None)
    late = entry("z", code="Z = 1\n", release_day=300)
    early = [entry(n, code=f"{n} = 1\n", release_day=d) for n, d in (("m", 200), ("n", 250))]
    malgraph = _MalGraph.build(
        dataset(
            [undated, late, *early],
            [
                report("r-1", [undated.package, late.package]),
                report("r-2", [e.package for e in early]),
            ],
        )
    )
    cg = [[m.package.name for m in g.members] for g in malgraph.groups(GroupKind.CG)]
    assert cg == [["m", "n"], ["z", "a"]]
    malgraph.query_indexes()
    malgraph.apply_delta(
        [GraphEvent.package_detected(dataclasses.replace(undated, downloads=7))]
    )

    _no_full_derivation(monkeypatch)
    after = malgraph.query_indexes()
    monkeypatch.undo()

    assert after.group_members["CG-0001"] == ("pypi:a@1.0", "pypi:z@1.0")
    assert_same_indexes(
        after, build_indexes(malgraph.graph, malgraph), malgraph.graph
    )


def test_group_walk_expands_each_clique_once():
    """The walk shared by the traversals and the group re-rank scans a
    clique once, not once per member (what keeps giant cliques
    O(members))."""
    from repro.core.query.indexes import _layers

    class CountingRun:
        def __init__(self, members):
            self.members = members
            self.scans = 0

        def __iter__(self):
            self.scans += 1
            return iter(self.members)

    clique = CountingRun(("a", "b", "c", "d"))
    pairwise = {"d": ("e",), "e": ("d",)}

    def runs(node):
        found = [((EdgeType.SIMILAR, 0), clique)] if node in clique.members else []
        if node in pairwise:
            found.append((None, pairwise[node]))
        return found

    layers = list(_layers(runs, ("a",), None))
    assert layers == [(1, {"b", "c", "d"}), (2, {"e"}), (3, set())]
    assert clique.scans == 1


def test_stale_index_reads_after_apply_delta_are_impossible():
    """Regression: every surgical path must leave the cached indexes
    either patched or invalidated — a read can never see pre-delta data."""
    from repro.core.delta import GraphEvent

    from tests.core.helpers import entry

    malgraph, alpha, twin, beta = _delta_world()
    indexes = malgraph.query_indexes()
    twin_node = node_id(twin.package)
    assert twin_node in indexes.nodes

    events = [
        GraphEvent.package_removed(twin.package),
        GraphEvent.package_detected(
            entry("beta", code="def b():\n    return 2\n",
                  dependencies=("alpha",), downloads=77)
        ),
    ]
    malgraph.apply_delta(events)

    refreshed = malgraph.query_indexes()
    assert refreshed is not indexes
    assert twin_node not in refreshed.nodes
    assert refreshed.node_attrs(node_id(beta.package))["downloads"] == 77
    # a detect-only follow-up (no structural change) must still invalidate
    events = [
        GraphEvent.package_detected(
            entry("beta", code="def b():\n    return 2\n",
                  dependencies=("alpha",), downloads=78)
        )
    ]
    malgraph.apply_delta(events)
    again = malgraph.query_indexes()
    assert again is not refreshed
    assert again.node_attrs(node_id(beta.package))["downloads"] == 78


def test_direct_mutation_falls_back_to_full_rebuild():
    """A mutation outside the delta engine breaks the patch chain; the
    cache must rebuild rather than mis-apply patches."""
    malgraph, alpha, twin, beta = _delta_world()
    before = graph_indexes(malgraph.graph)
    malgraph.graph.add_node("rogue", name="rogue-pkg")
    after = graph_indexes(malgraph.graph)
    assert after is not before
    assert "rogue" in after.nodes
    assert_same_indexes(after, build_indexes(malgraph.graph), malgraph.graph)
