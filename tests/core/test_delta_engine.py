"""The delta engine's correctness anchor: byte-identity with cold rebuilds.

``apply_delta(base, events)`` followed by canonical serialisation must
equal a cold ``MalGraph.build`` over the post-events collection — for
every event kind, for chained batches, and for randomized
publish/detect/remove interleavings (including remove-then-republish).
A batch evolves the graph it is given, and must also leave query
indexes, patched from the snapshot read before it, equal to a cold
index build.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import GraphEvent, apply_events_to_dataset
from repro.core.delta.engine import DeltaState
from repro.core.graph import EdgeType
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.query import build_indexes
from repro.core.query import indexes as indexes_module
from repro.errors import DatasetError, GraphError
from repro.io.malgraphs import canonical_malgraph_json

from tests.core.helpers import dataset, entry, report
from tests.core.index_oracle import assert_same_indexes

SHARED = "def payload():\n    return 'twin'\n"
VARIANTS = [
    SHARED,
    "def beta():\n    return 2\n",
    "def gamma(x):\n    return x * 3\n",
]


def _base():
    """Duplicated pair + dependency + a report: every edge type live."""
    alpha = entry("alpha", code=SHARED)
    twin = entry("twin", code=SHARED)
    beta = entry("beta", code=VARIANTS[1], dependencies=("alpha",))
    return dataset(
        [alpha, twin, beta],
        [report("r-0", [alpha.package, beta.package])],
    )


def _assert_matches_cold(evolved_graph, base_dataset, events):
    cold = MalGraph.build(apply_events_to_dataset(base_dataset, events))
    assert canonical_malgraph_json(evolved_graph) == canonical_malgraph_json(cold)
    for kind in GroupKind:
        held = [
            sorted(str(m.package) for m in g.members)
            for g in evolved_graph.groups(kind)
        ]
        expected = [
            sorted(str(m.package) for m in g.members) for g in cold.groups(kind)
        ]
        assert held == expected, kind


def test_every_event_kind_matches_cold_rebuild():
    base_ds = _base()
    base = MalGraph.build(base_ds)
    late = entry("late", code=SHARED, dependencies=("beta",))
    events = [
        GraphEvent.package_added(late),
        GraphEvent.package_detected(entry("beta", code=VARIANTS[1],
                                          dependencies=("alpha",), downloads=9)),
        GraphEvent.package_removed(entry("twin").package),
        GraphEvent.report_ingested(report("r-1", [late.package, entry("alpha").package])),
    ]
    evolved, delta = base.apply_delta(events)
    _assert_matches_cold(evolved, base_ds, events)
    assert delta.events == 4
    assert delta.epoch == 1 and evolved.delta_epoch == 1
    assert delta.packages_added == 1
    assert delta.packages_updated == 1
    assert delta.packages_removed == 1
    assert delta.reports_added == 1
    # three embeddable entries, two payloads; the graph has no store and
    # no earlier delta, so both are embedded
    assert (delta.embed_cache_hits, delta.embed_cache_misses) == (0, 2)
    assert "| embedded 2 of 2 artifacts |" in delta.summary()


def test_apply_delta_evolves_the_graph_it_is_given():
    base_ds = _base()
    graph = MalGraph.build(base_ds)
    events = [GraphEvent.package_removed(entry("twin").package)]
    evolved, delta = graph.apply_delta(events)
    assert evolved is graph
    assert graph.delta_epoch == delta.epoch == 1
    _assert_matches_cold(graph, base_ds, events)


def test_successive_applies_bootstrap_once(monkeypatch):
    """Successive applies on one store-less graph bootstrap the delta
    state once, so only the first apply embeds the corpus."""
    bootstraps = []
    bootstrap = DeltaState.bootstrap.__func__

    def counting(cls, malgraph, config):
        bootstraps.append(malgraph)
        return bootstrap(cls, malgraph, config)

    monkeypatch.setattr(DeltaState, "bootstrap", classmethod(counting))
    base_ds = _base()
    graph = MalGraph.build(base_ds)
    batches = [
        [GraphEvent.package_removed(entry("twin").package)],
        [GraphEvent.package_detected(entry("beta", code=VARIANTS[1],
                                           dependencies=("alpha",), downloads=9))],
        [GraphEvent.package_added(entry("late", code=SHARED))],
    ]
    applied, misses = [], []
    for events in batches:
        _, delta = graph.apply_delta(events)
        applied += events
        _assert_matches_cold(graph, base_ds, applied)
        misses.append(delta.embed_cache_misses)
    assert len(bootstraps) == 1 and bootstraps[0] is graph
    # two payloads in the corpus, and no batch brings a new one
    assert misses == [2, 0, 0]
    assert graph.delta_epoch == 3


def test_chained_batches_match_cold_rebuild():
    base_ds = _base()
    graph = MalGraph.build(base_ds)
    first = [
        GraphEvent.package_added(entry("late", code=SHARED)),
        GraphEvent.package_removed(entry("twin").package),
    ]
    graph, _ = graph.apply_delta(first)
    alpha_pid = entry("alpha").package
    second = [
        GraphEvent.package_removed(alpha_pid),
        GraphEvent.package_added(entry("alpha", code=VARIANTS[2], downloads=3)),
        GraphEvent.report_ingested(report("r-2", [alpha_pid, entry("late").package])),
    ]
    graph, delta = graph.apply_delta(second)
    assert delta.epoch == 2
    _assert_matches_cold(graph, base_ds, first + second)


def test_invalid_batch_leaves_base_unchanged():
    base = MalGraph.build(_base())
    before = canonical_malgraph_json(base)
    with pytest.raises(DatasetError):
        base.apply_delta([GraphEvent.package_added(entry("alpha", code=SHARED))])
    assert canonical_malgraph_json(base) == before
    assert base.delta_epoch == 0


@pytest.mark.parametrize("snapshot", [False, True])
def test_a_graph_whose_coexisting_cliques_miss_a_report_is_refused(snapshot):
    """Surgery finds a report's clique by the group the report resolved
    to before the batch, so the first apply refuses a graph whose
    co-existing cliques do not match its reports, before any change;
    query indexes read before the refusal stay the current ones."""
    base = MalGraph.build(_base())
    base.graph.remove_clique(
        EdgeType.COEXISTING, ["pypi:alpha@1.0", "pypi:beta@1.0"]
    )
    held = base.query_indexes() if snapshot else None
    before = canonical_malgraph_json(base)
    version = base.graph.version
    with pytest.raises(GraphError, match="co-existing cliques"):
        base.apply_delta([GraphEvent.package_removed(entry("alpha").package)])
    assert canonical_malgraph_json(base) == before
    assert base.graph.version == version
    assert base.delta_epoch == 0 and base._delta_state is None
    if snapshot:
        assert base.query_indexes() is held


def test_two_reports_on_one_group_grow_one_clique():
    """Both reports resolve to {a, b}; the second also names c, which a
    batch publishes. Exactly one of the two equal cliques grows."""
    a, b, c = entry("a", code=SHARED), entry("b", code=VARIANTS[1]), entry("c")
    base_ds = dataset(
        [a, b],
        [
            report("r-1", [a.package, b.package]),
            report("r-2", [a.package, b.package, c.package]),
        ],
    )
    base = MalGraph.build(base_ds)
    events = [GraphEvent.package_added(c)]
    evolved, delta = base.apply_delta(events)
    assert sorted(map(sorted, evolved.graph.cliques(EdgeType.COEXISTING))) == [
        ["pypi:a@1.0", "pypi:b@1.0"],
        ["pypi:a@1.0", "pypi:b@1.0", "pypi:c@1.0"],
    ]
    assert delta.cliques_removed["coexisting"] == 1
    assert delta.cliques_added["coexisting"] == 1
    _assert_matches_cold(evolved, base_ds, events)


# ---------------------------------------------------------------------------
# Randomized interleavings
# ---------------------------------------------------------------------------

_NAMES = [f"pkg{i}" for i in range(5)]

_op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 4), st.integers(0, 2),
              st.integers(0, 1)),
    st.tuples(st.just("detect"), st.integers(0, 4), st.integers(1, 99)),
    st.tuples(st.just("remove"), st.integers(0, 4)),
    st.tuples(st.just("report"), st.integers(0, 4), st.integers(0, 4)),
)


def _resolve(ops, base_ds, first_report_id=100):
    """Turn abstract ops into a valid event batch against ``base_ds``."""
    live = {e.package.name: e for e in base_ds.entries}
    next_report = first_report_id
    events = []
    for op in ops:
        if op[0] == "add":
            _, idx, code_idx, dep = op
            name = _NAMES[idx]
            if name in live:
                continue
            deps = ()
            if dep and live:
                deps = (sorted(live)[0],)
            held = entry(name, code=VARIANTS[code_idx], dependencies=deps)
            live[name] = held
            events.append(GraphEvent.package_added(held))
        elif op[0] == "detect":
            _, idx, downloads = op
            name = _NAMES[idx]
            if name not in live:
                continue
            prev = live[name]
            held = entry(
                name,
                code=(prev.artifact.files[sorted(prev.artifact.files)[0]]
                      if prev.artifact else None),
                dependencies=(
                    prev.artifact.metadata.dependencies if prev.artifact else ()
                ),
                downloads=downloads,
            )
            live[name] = held
            events.append(GraphEvent.package_detected(held))
        elif op[0] == "remove":
            _, idx = op
            name = _NAMES[idx]
            if name not in live:
                continue
            events.append(GraphEvent.package_removed(live.pop(name).package))
        else:
            _, a, b = op
            names = sorted(live)
            if not names:
                continue
            pids = sorted({live[names[a % len(names)]].package,
                           live[names[b % len(names)]].package})
            events.append(
                GraphEvent.report_ingested(report(f"r-{next_report}", list(pids)))
            )
            next_report += 1
    return events


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=8))
def test_random_event_sequences_match_cold_rebuild(ops):
    base_ds = dataset(
        [
            entry("pkg0", code=SHARED),
            entry("pkg1", code=SHARED),
            entry("pkg2", code=VARIANTS[1], dependencies=("pkg0",)),
        ],
        [report("r-0", [entry("pkg0").package, entry("pkg2").package])],
    )
    events = _resolve(ops, base_ds)
    if not events:
        return
    base = MalGraph.build(base_ds)
    evolved, _ = base.apply_delta(events)
    _assert_matches_cold(evolved, base_ds, events)


@settings(max_examples=8, deadline=None)
@given(
    ops_a=st.lists(_op, min_size=1, max_size=5),
    ops_b=st.lists(_op, min_size=1, max_size=5),
)
def test_random_chained_batches_match_cold_rebuild(ops_a, ops_b):
    base_ds = dataset(
        [entry("pkg0", code=SHARED), entry("pkg1", code=VARIANTS[2])],
        [],
    )
    first = _resolve(ops_a, base_ds)
    if not first:
        return
    graph = MalGraph.build(base_ds)
    graph, _ = graph.apply_delta(first)
    mid = apply_events_to_dataset(base_ds, first)
    second = _resolve(ops_b, mid, first_report_id=200)
    if second:
        graph, _ = graph.apply_delta(second)
    _assert_matches_cold(graph, base_ds, first + second)


def _patched_indexes(graph: MalGraph):
    """``graph.query_indexes()``, which must be patched from the snapshot
    read before the batch, not built from scratch."""

    def refuse(*args, **kwargs):
        raise AssertionError("the snapshot should have been patched")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indexes_module, "build_indexes", refuse)
        return graph.query_indexes()


@settings(max_examples=8, deadline=None)
@given(
    ops_a=st.lists(_op, min_size=1, max_size=5),
    ops_b=st.lists(_op, min_size=1, max_size=5),
)
def test_random_in_place_batches_patch_indexes_like_a_cold_build(ops_a, ops_b):
    """The path a service refresh takes: each batch patches the held
    query indexes, groups included, and the patch must answer like a
    cold index build over the evolved graph."""
    base_ds = dataset(
        [entry("pkg0", code=SHARED), entry("pkg1", code=VARIANTS[2])],
        [],
    )
    graph = MalGraph.build(base_ds)
    current, applied = base_ds, []
    for ops, first_report_id in ((ops_a, 100), (ops_b, 200)):
        events = _resolve(ops, current, first_report_id=first_report_id)
        if not events:
            continue
        graph.query_indexes()  # the snapshot the batch's patch starts from
        same, _ = graph.apply_delta(events)
        assert same is graph
        current = apply_events_to_dataset(current, events)
        applied += events
        assert_same_indexes(
            _patched_indexes(graph), build_indexes(graph.graph, graph), graph.graph
        )
    _assert_matches_cold(graph, base_ds, applied)
