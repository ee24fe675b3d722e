"""Incremental refresh: every batch runs through the delta engine and
lands in the live index as MALGRAPH's exact groups and neighbours."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.collection.merge import diff_datasets
from repro.collection.records import MalwareDataset
from repro.core.edges import node_id
from repro.core.graph import EdgeType
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.query import QueryEngine, build_indexes
from repro.service.cache import build_service
from repro.service.enrich import (
    VERDICT_MALICIOUS,
    EnrichmentEngine,
    Indicator,
)
from repro.service.feed import feed_item
from repro.core.delta.events import GraphEvent, apply_events_to_dataset
from repro.service.index import CAMPAIGN_KINDS, FAMILY_KINDS, IntelIndex
from repro.service.refresh import refresh_from_events, refresh_index

from tests.core.helpers import dataset, entry, report
from tests.core.index_oracle import assert_same_indexes
from tests.pipeline.test_delta_stage import (
    known_batch,
    loaded_graph,
    open_runtime,
    unique_embeddable,
)


def _service(ds):
    """(service, graph) over ``ds``; refreshes evolve the graph."""
    malgraph = MalGraph.build(ds)
    return build_service(malgraph), malgraph


def _member_names(index: IntelIndex, group_id: str):
    return {
        index.indexes.node_attrs(node)["name"]
        for node in index.indexes.group_members[group_id]
    }


def test_added_packages_resolve_after_refresh():
    service, malgraph = _service(dataset([entry("old-pkg")]))
    old = service.index.dataset
    fresh = entry("new-pkg", code="def other():\n    return 1\n")
    merged, delta = refresh_index(
        service.index, dataset([fresh]), service=service, malgraph=malgraph
    )
    assert diff_datasets(old, merged).added == [fresh.package]
    assert delta.packages_added == 1
    assert service.index.dataset is merged
    result = service.engine.lookup(name="new-pkg", version="1.0")
    assert result.verdict == VERDICT_MALICIOUS
    by_sha = service.engine.lookup(sha256=fresh.sha256())
    assert by_sha.matches == ["pypi:new-pkg@1.0"]


def test_refresh_links_signature_duplicates_into_family():
    shared = "def payload():\n    return 'dup'\n"
    service, malgraph = _service(dataset([entry("seed-pkg", code=shared)]))
    twin = entry("late-twin", code=shared)
    refresh_index(service.index, dataset([twin]), service=service, malgraph=malgraph)
    families = service.index.families_of(twin.package)
    assert families
    assert families[0].startswith(f"{GroupKind.DG.value}-")
    assert _member_names(service.index, families[0]) == {"seed-pkg", "late-twin"}
    # and the family is reachable from the enrichment result
    assert service.engine.lookup(name="late-twin").families == families


def test_refresh_extends_existing_duplicated_group():
    shared = "def payload():\n    return 'trip'\n"
    service, malgraph = _service(
        dataset([entry("twin-a", code=shared), entry("twin-b", code=shared)])
    )
    existing = service.index.families_of(
        service.index.lookup_name("twin-a")[0].package
    )
    assert existing, "seed world should already hold a DG family"
    third = entry("twin-c", code=shared)
    refresh_index(service.index, dataset([third]), service=service, malgraph=malgraph)
    assert set(service.index.families_of(third.package)) & set(existing)


def test_refresh_registers_new_reports_as_campaigns():
    a, b = entry("pkg-a"), entry("pkg-b", code="def b():\n    return 2\n")
    service, malgraph = _service(dataset([a, b]))
    old = service.index.dataset
    covering = report("r-new", [a.package, b.package])
    covering.actor_alias = "ShadyActor"
    merged, delta = refresh_index(
        service.index, dataset([], [covering]), service=service, malgraph=malgraph
    )
    assert diff_datasets(old, merged).new_reports == ["r-new"]
    assert delta.reports_added == 1
    result = service.engine.lookup(name="pkg-a")
    assert result.actors == ["ShadyActor"]
    # the report is a co-existing group of MALGRAPH's own extraction
    assert result.campaigns == ["CG-0000"]
    assert _member_names(service.index, "CG-0000") == {"pkg-a", "pkg-b"}


def test_refresh_invalidates_wrapped_service():
    ds = dataset([entry("old-pkg")])
    malgraph = MalGraph.build(ds)
    service = build_service(malgraph)
    fresh = entry("fresh-pkg", code="def f():\n    return 3\n")
    # a stale negative sits in the cache before the refresh
    assert service.enrich(Indicator(name="fresh-pkg")).verdict != VERDICT_MALICIOUS
    refresh_index(service.index, dataset([fresh]), service=service, malgraph=malgraph)
    assert len(service.cache) == 0
    assert service.enrich(Indicator(name="fresh-pkg")).verdict == VERDICT_MALICIOUS


def test_refresh_merges_claims_for_known_packages():
    held = entry("known-pkg", sources=("snyk",))
    service, malgraph = _service(dataset([held]))
    old = service.index.dataset
    again = entry("known-pkg", sources=("phylum",))
    merged, delta = refresh_index(
        service.index, dataset([again]), service=service, malgraph=malgraph
    )
    assert delta.packages_added == 0
    assert delta.packages_updated == 1
    assert diff_datasets(old, merged).new_sources == {held.package: {"phylum"}}
    keys = {row["key"] for row in service.engine.lookup(name="known-pkg").sources}
    assert keys == {"snyk", "phylum"}


def test_refresh_bumps_epoch_and_timestamp():
    service, malgraph = _service(dataset([entry("old-pkg")]))
    assert service.index.epoch == 0
    assert service.index.last_delta_at is None
    fresh = entry("new-pkg", code="def other():\n    return 1\n")
    refresh_index(service.index, dataset([fresh]), service=service, malgraph=malgraph)
    assert service.index.epoch == 1
    assert service.index.last_delta_at is not None
    stats = service.index.stats()
    assert stats["epoch"] == 1
    assert stats["last_delta_at"] == service.index.last_delta_at
    refresh_index(
        service.index,
        dataset([entry("third-pkg", code="x = 3\n")]),
        service=service,
        malgraph=malgraph,
    )
    assert service.index.epoch == 2


def test_refresh_from_events_adds_and_removes_packages():
    held = entry("old-pkg")
    service, malgraph = _service(dataset([held]))
    fresh = entry("new-pkg", code="def other():\n    return 1\n")
    events = [
        GraphEvent.package_added(fresh),
        GraphEvent.package_removed(held.package),
    ]
    served, delta = refresh_from_events(
        service.index, events, service=service, malgraph=malgraph
    )
    assert delta.packages_added == 1
    assert delta.packages_removed == 1
    assert service.index.dataset is served
    assert served.get(fresh.package) is not None and served.get(held.package) is None
    engine = service.engine
    assert engine.lookup(name="new-pkg").verdict == VERDICT_MALICIOUS
    assert engine.lookup(name="old-pkg").verdict != VERDICT_MALICIOUS
    assert engine.lookup(sha256=held.sha256()).verdict != VERDICT_MALICIOUS
    assert service.index.epoch == 1


def test_refresh_from_events_with_malgraph_mirrors_exact_groups():
    shared = "def payload():\n    return 'dup'\n"
    ds = dataset([entry("seed-pkg", code=shared)])
    malgraph = MalGraph.build(ds)
    service = build_service(malgraph)
    twin = entry("late-twin", code=shared)
    events = [GraphEvent.package_added(twin)]
    served, delta = refresh_from_events(
        service.index, events, service=service, malgraph=malgraph
    )
    assert len(service.cache) == 0
    assert service.index.stats()["groups"] == sum(
        len(malgraph.groups(kind)) for kind in GroupKind
    ) > 0
    assert served is malgraph.dataset  # index serves the evolved graph's dataset
    # group ids come from the exact extraction, not refresh-scoped ids
    families = service.index.families_of(twin.package)
    assert families and not any("-r" in g for g in families)
    assert _member_names(service.index, families[0]) == {"seed-pkg", "late-twin"}
    assert service.index.epoch == 1
    assert service.enrich(Indicator(name="late-twin")).verdict == VERDICT_MALICIOUS


# -- snapshot publication ---------------------------------------------------


def test_refresh_publishes_a_new_snapshot_and_leaves_the_old_intact():
    malgraph = MalGraph.build(dataset([entry("old-pkg")]))
    service = build_service(malgraph)
    before = service.snapshot
    fresh = entry("fresh-pkg", code="def f():\n    return 3\n")
    refresh_index(service.index, dataset([fresh]), service=service, malgraph=malgraph)
    after = service.snapshot
    assert after is not before
    assert after.generation == before.generation + 1
    assert after.index is not before.index
    # the retired snapshot still answers exactly as it did pre-refresh:
    # a straggler mid-request never observes a half-applied delta
    assert before.index.package_count == 1
    assert before.index.lookup_name("fresh-pkg") == []
    assert after.index.package_count == 2


def _refuse_list_derivations(monkeypatch):
    """Make every module's binding of MALGRAPH's three list derivations
    raise, so a caller that derives a list fails the test."""
    import sys

    from repro.core import edges

    def refuse(*args, **kwargs):
        raise AssertionError("the refresh path derived a MALGRAPH list")

    for name in (
        "duplicated_groups_of",
        "dependency_pairs_of",
        "coexisting_groups_of",
    ):
        original = getattr(edges, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(name) is original:
                monkeypatch.setattr(module, name, refuse)


def _list_world():
    """Every list non-empty: a DG pair, a dependency and a report."""
    shared = "def payload():\n    return 'pair'\n"
    alpha = entry("list-alpha", code=shared)
    twin = entry("list-twin", code=shared)
    beta = entry("list-beta", code="def b():\n    return 2\n",
                 dependencies=("list-alpha",))
    ds = dataset([alpha, twin, beta], [report("r-0", [alpha.package, beta.package])])
    late = entry("list-late", code=shared, dependencies=("list-beta",))
    events = [
        GraphEvent.package_added(late),
        GraphEvent.package_removed(twin.package),
        GraphEvent.report_ingested(report("r-1", [late.package, beta.package])),
    ]
    return ds, events, late


def test_refresh_derives_none_of_the_relationship_lists(monkeypatch):
    ds, events, late = _list_world()
    service, malgraph = _service(ds)
    before = service.generation
    _refuse_list_derivations(monkeypatch)
    served, delta = refresh_from_events(
        service.index, events, service=service, malgraph=malgraph
    )
    assert service.generation == before + 1
    assert delta.packages_added == 1 and delta.packages_removed == 1
    assert served.get(late.package) is not None
    assert service.enrich(Indicator(name="list-late")).verdict == VERDICT_MALICIOUS
    assert service.index.families_of(late.package)


def test_delta_evolved_bundle_round_trips_exactly(tmp_path):
    from repro.io.malgraphs import (
        load_malgraph_bundle,
        malgraph_to_dict,
        save_malgraph_bundle,
    )

    ds, events, _ = _list_world()
    evolved, _ = MalGraph.build(ds).apply_delta(events)
    written = malgraph_to_dict(evolved)
    assert all(
        written[key]
        for key in ("duplicated_groups", "dependency_edges", "coexisting_groups")
    )
    save_malgraph_bundle(evolved, tmp_path)
    assert malgraph_to_dict(load_malgraph_bundle(tmp_path)) == written


def test_refresh_over_a_loaded_graph_embeds_nothing(tmp_path):
    """The first refresh of a service over a graph a fresh runtime
    loaded from disk reads every vector from the store's disk tier."""
    open_runtime(tmp_path).warm()
    _, malgraph = loaded_graph(tmp_path)
    service = build_service(malgraph)
    events = known_batch(malgraph.dataset)
    after = apply_events_to_dataset(malgraph.dataset, events)
    _, delta = refresh_from_events(
        service.index, events, service=service, malgraph=malgraph
    )
    assert delta.embed_cache_misses == 0
    assert delta.embed_cache_hits == unique_embeddable(after)


def test_concurrent_refreshes_compose_not_clobber():
    malgraph = MalGraph.build(dataset([entry("old-pkg")]))
    service = build_service(malgraph)
    stale_view = service.index  # both callers hold the same stale index
    left = entry("pkg-left", code="x = 1\n")
    right = entry("pkg-right", code="x = 2\n")
    # the service rebases each delta onto the currently published
    # snapshot under the writer lock, so the second refresh must not
    # wipe out the first even though its caller's view predates it
    refresh_index(stale_view, dataset([left]), service=service, malgraph=malgraph)
    refresh_index(stale_view, dataset([right]), service=service, malgraph=malgraph)
    assert service.index.package_count == 3
    assert service.enrich(Indicator(name="pkg-left")).verdict == VERDICT_MALICIOUS
    assert service.enrich(Indicator(name="pkg-right")).verdict == VERDICT_MALICIOUS
    assert service.generation == 2


def test_held_generation_answers_from_its_own_snapshot():
    """A generation keeps answering ``enrich`` (``related``, ``actors``
    and near-name verdicts included) and ``/v1/query`` as of its
    publish, while the next batch removes a neighbour of the package it
    serves, re-clusters the graph, adds a one-edit neighbour of its name
    and ingests a report naming it."""
    shared = "def payload():\n    return 'trio'\n"
    entries = [entry(f"dup-{c}", code=shared) for c in "abc"] + [
        entry(f"other-{i}", code=f"def other():\n    return {i}\n") for i in range(4)
    ]
    malgraph = MalGraph.build(dataset(entries))
    service = build_service(malgraph)
    held = service.snapshot
    indicator = Indicator(name="dup-a")
    # one edit from dup-a, and (after the batch) from its neighbour du-a
    typo = Indicator(name="dux-a")
    pattern = "MATCH (a {name: 'dup-a'})-[]-(b) RETURN b.name ORDER BY b.name"
    before = held.engine.enrich(indicator).to_dict()
    before_typo = held.engine.enrich(typo).to_dict()
    rows = held.query_engine.run(pattern).rows
    assert before["verdict"] == VERDICT_MALICIOUS
    assert "pypi:dup-b@1.0" in before["related"]
    assert before["actors"] == []
    assert before_typo["squat"]["target"] == "dup-a"
    assert ("dup-b",) in rows

    fresh = entry("other-new", code="def fresh():\n    return 'new'\n")
    neighbour = entry("du-a", code="def near():\n    return 'near'\n")
    naming = report("r-trio", [entry("dup-a").package])
    naming.actor_alias = "TrioActor"
    refresh_from_events(
        service.index,
        [
            GraphEvent.package_removed(entry("dup-b").package),
            GraphEvent.package_added(fresh),
            GraphEvent.package_added(neighbour),
            GraphEvent.report_ingested(naming),
        ],
        service=service,
        malgraph=malgraph,
    )
    assert held.engine.enrich(indicator).to_dict() == before
    assert held.engine.enrich(typo).to_dict() == before_typo
    assert held.query_engine.run(pattern).rows == rows
    # ... while the new generation sees the batch
    after = service.enrich(indicator)
    assert "pypi:dup-b@1.0" not in after.related
    assert after.actors == ["TrioActor"]
    assert service.enrich(typo).squat["target"] == "du-a"
    assert ("dup-b",) not in service.query_engine.run(pattern).rows


def _aliased(report_id, packages, alias):
    held = report(report_id, [e.package for e in packages])
    held.actor_alias = alias
    return held


def _named_before_added(a, b):
    late = entry("pkg-late", code="def late():\n    return 3\n")
    early = _aliased("r-early", [a, late], "EarlyBird")
    return late.package, [], [
        ([GraphEvent.report_ingested(early)], []),
        ([GraphEvent.package_added(late)], ["EarlyBird"]),
    ]


def _removed_and_re_added(a, b):
    comeback = _aliased("r-comeback", [a, b], "Comeback")
    return b.package, [comeback], [
        ([GraphEvent.package_removed(b.package)], []),
        ([GraphEvent.package_added(b)], ["Comeback"]),
    ]


def _typo(name):
    return name[:-1] + ("x" if name[-1] != "x" else "y")


def _answers(engine, entries):
    """``enrich`` of each entry by name, upper-cased name,
    name@version+ecosystem, one-edit typo (bare and ecosystem-pinned)
    and sha256, plus the index shape (minus the refresh clock)."""
    answers = []
    for held in sorted(entries, key=lambda e: e.package):
        pid = held.package
        shapes = [
            Indicator(name=pid.name),
            Indicator(name=pid.name.upper()),
            Indicator(name=pid.name, version=pid.version, ecosystem=pid.ecosystem),
            Indicator(name=_typo(pid.name)),
            Indicator(name=_typo(pid.name), ecosystem=pid.ecosystem),
        ]
        if held.sha256():
            shapes.append(Indicator(sha256=held.sha256()))
        answers.extend(engine.enrich(shape).to_dict() for shape in shapes)
    shape = engine.index.stats()
    del shape["epoch"], shape["last_delta_at"]
    return answers, shape


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(_named_before_added, id="named-before-added"),
        pytest.param(_removed_and_re_added, id="removed-and-re-added"),
    ],
)
def test_refreshed_actor_aliases_match_a_cold_build(scenario):
    """A report's alias reaches every package it names once that package
    is served, whatever the order in which the report and the package
    arrive or leave."""
    a, b = entry("pkg-a"), entry("pkg-b", code="def b():\n    return 2\n")
    pid, reports, batches = scenario(a, b)
    service, malgraph = _service(dataset([a, b], reports))
    for events, actors in batches:
        refresh_from_events(service.index, events, service=service, malgraph=malgraph)
        assert service.index.actors_of(pid) == actors
        cold = EnrichmentEngine(IntelIndex.build(malgraph))
        entries = malgraph.dataset.entries
        assert _answers(service.engine, entries) == _answers(cold, entries)
    assert service.engine.lookup(name=pid.name).actors == actors


# -- every generation against a cold build ----------------------------------

#: (name, ecosystem, code) of the base world: a DG pair, one name in two
#: ecosystems and one name in two cases
_BASE = [
    ("alpha-pkg", "pypi", "def twin():\n    return 0\n"),
    ("bravo-pkg", "pypi", "def twin():\n    return 0\n"),
    ("charlie", "pypi", "def c():\n    return 1\n"),
    ("charlie", "npm", "function c() { return 1; }\n"),
    ("delta-lib", "pypi", "def d():\n    return 2\n"),
    ("Delta-Lib", "npm", "function d() { return 2; }\n"),
]
#: names a script may add (or name in a report before adding them)
_LATER = ["golf-pkg", "hotel", "india-lib", "juliet", "kilo-tool"]
_ALIASES = ["EarlyBird", "earlybird", "Comeback"]

_step = st.tuples(
    st.sampled_from(
        ["add", "detect", "remove", "readd", "report", "neighbour", "twin", "redate"]
    ),
    st.integers(min_value=0, max_value=50),
)

def _assert_index_matches_cold_build(index: IntelIndex, malgraph: MalGraph):
    cold = build_indexes(malgraph.graph, malgraph)
    assert_same_indexes(index.indexes, cold, malgraph.graph)
    for held in malgraph.dataset.entries:
        assert index.related(held.package) == cold.neighbors(
            node_id(held.package)
        )[:25]


class _Script:
    """Turns drawn steps into valid event batches, tracking the world."""

    def __init__(self):
        self.live = {}  # PackageId -> entry
        self.gone = {}  # removed PackageId -> its last entry
        self.seen = {}  # every PackageId ever served -> its last entry
        self.later = list(_LATER)
        self.serial = 0
        for name, ecosystem, code in _BASE:
            self._serve(entry(name, ecosystem=ecosystem, code=code))

    def _serve(self, held):
        self.live[held.package] = self.seen[held.package] = held
        self.gone.pop(held.package, None)

    def _fresh(self, name, ecosystem="pypi"):
        self.serial += 1
        return entry(name, ecosystem=ecosystem, code=f"def v():\n    return {self.serial}\n")

    def _taken(self, name, ecosystem):
        return any(p.name == name and p.ecosystem == ecosystem for p in self.live)

    def event(self, kind, pick):
        live = sorted(self.live)
        if kind == "add" and self.later:
            held = self._fresh(self.later.pop(pick % len(self.later)))
            self._serve(held)
            return GraphEvent.package_added(held)
        if kind == "detect" and live:
            pid = live[pick % len(live)]
            held = self._fresh(pid.name, pid.ecosystem)
            self._serve(held)
            return GraphEvent.package_detected(held)
        if kind == "remove" and live:
            pid = live[pick % len(live)]
            self.gone[pid] = self.live.pop(pid)
            return GraphEvent.package_removed(pid)
        if kind == "readd" and self.gone:
            held = self.gone[sorted(self.gone)[pick % len(self.gone)]]
            self._serve(held)
            return GraphEvent.package_added(held)
        if kind == "report" and live and self.later:
            self.serial += 1
            future = entry(self.later[pick % len(self.later)]).package
            held = report(f"r-{self.serial}", [live[pick % len(live)], future])
            held.actor_alias = _ALIASES[pick % len(_ALIASES)]
            return GraphEvent.report_ingested(held)
        if kind == "neighbour" and live:
            pid = live[pick % len(live)]
            name = _typo(pid.name) if pick % 2 else pid.name + "s"
            if not self._taken(name, pid.ecosystem):
                held = self._fresh(name, pid.ecosystem)
                self._serve(held)
                return GraphEvent.package_added(held)
        if kind == "twin" and live:
            # a new name carrying a live package's code: creates or grows
            # its DG/SG groups and shifts the ids ranked behind them; the
            # name sorts first or last, so a later redate can move the
            # group past another of its size
            pid = live[pick % len(live)]
            self.serial += 1
            code = self.live[pid].artifact.files["pkg/main.py"]
            name = f"{'az'[pick % 2]}-twin-{self.serial}"
            held = entry(name, ecosystem=pid.ecosystem, code=code)
            self._serve(held)
            return GraphEvent.package_added(held)
        if kind == "redate" and live:
            # same artifact, an earlier or later release day: changes
            # which member leads the package's groups, and so their rank,
            # without changing their members
            pid = live[pick % len(live)]
            held = self.live[pid]
            shift = (1 + pick % 7) * (1 if pick % 2 else -1)
            held = dataclasses.replace(held, release_day=held.release_day + shift)
            self._serve(held)
            return GraphEvent.package_detected(held)
        return None


#: /v1/query patterns every generation must answer like a cold build: a
#: 1-hop query over each edge type, the 2-hop similar -> coexisting
#: shape, and lookups by SG and CG group id
_QUERIES = [
    *(f"MATCH (a)-[{t.value}]-(b) RETURN a, b" for t in EdgeType),
    "MATCH (a)-[similar]-(b)-[coexisting]-(c) RETURN a, b, c",
    *(
        f"MATCH (n) WHERE n.{kind.value.lower()} = '{kind.value}-{i:04d}' RETURN n"
        for kind in (GroupKind.SG, GroupKind.CG)
        for i in range(2)
    ),
]


def _query_answers(engine: QueryEngine):
    answers = []
    for pattern in _QUERIES:
        result = engine.run(pattern)
        answers.append((result.columns, sorted(result.rows)))
    return answers


@given(batches=st.lists(st.lists(_step, min_size=1, max_size=4), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_every_generation_answers_like_a_cold_build(batches):
    """After each refresh the published generation answers every lookup
    exactly as ``IntelIndex.build`` over the same graph state does, and
    every ``/v1/query`` and ``/v1/feed`` answer exactly as a cold build
    over the post-events dataset does."""
    script = _Script()
    reference = dataset(list(script.live.values()))
    service, malgraph = _service(reference)
    for steps in batches:
        events = [script.event(kind, pick) for kind, pick in steps]
        events = [event for event in events if event is not None]
        if not events:
            continue
        refresh_from_events(service.index, events, service=service, malgraph=malgraph)
        reference = apply_events_to_dataset(reference, events)
        _assert_index_matches_cold_build(service.index, malgraph)
        cold = EnrichmentEngine(IntelIndex.build(malgraph))
        seen = script.seen.values()
        assert _answers(service.engine, seen) == _answers(cold, seen)
        # aliases of packages a report names stay hidden while unserved
        for pid in set(script.seen) - set(script.live):
            assert service.index.actors_of(pid) == []
        rebuilt = MalGraph.build(reference)
        assert _query_answers(service.query_engine) == _query_answers(
            QueryEngine.pinned(build_indexes(rebuilt.graph, rebuilt))
        )
        assert service.feed.walk() == [feed_item(e) for e in reference.entries]


# -- against the simulated world ------------------------------------------

@pytest.fixture(scope="module")
def split_world_service(small_dataset):
    """Index built from half the collected world; other half held back."""
    half = len(small_dataset.entries) // 2
    old = MalwareDataset(
        entries=list(small_dataset.entries[:half]),
        reports=list(small_dataset.reports[: len(small_dataset.reports) // 2]),
    )
    held_back = MalwareDataset(
        entries=list(small_dataset.entries[half:]),
        reports=list(small_dataset.reports[len(small_dataset.reports) // 2 :]),
    )
    malgraph = MalGraph.build(old)
    return build_service(malgraph), malgraph, held_back


def test_world_refresh_resolves_every_newly_merged_package(split_world_service):
    service, malgraph, held_back = split_world_service
    old = service.index.dataset
    merged, delta = refresh_index(
        service.index, held_back, service=service, malgraph=malgraph
    )
    assert delta.packages_added == len(diff_datasets(old, merged).added) > 0
    for e in held_back.entries:
        result = service.enrich(
            Indicator(
                name=e.package.name,
                version=e.package.version,
                ecosystem=e.package.ecosystem,
            )
        )
        assert result.verdict == VERDICT_MALICIOUS, str(e.package)
    assert service.index.package_count == len(merged)


def _oracle_groups(malgraph: MalGraph, kinds):
    """package id -> group ids of ``kinds``, from MALGRAPH's extraction."""
    held = {}
    for kind in GroupKind:
        if kind not in kinds:
            continue
        for i, group in enumerate(malgraph.groups(kind)):
            for member in group.members:
                held.setdefault(member.package, []).append(f"{kind.value}-{i:04d}")
    return held


def test_refreshed_index_matches_the_graph_oracle(small_dataset):
    """After a sequence of add / detect / remove / report batches, every
    entry's families, campaigns and related neighbours equal what
    MALGRAPH's own group extraction and graph walk give."""
    entries = list(small_dataset.entries)
    reports = list(small_dataset.reports)
    base = MalwareDataset(
        entries=entries[: len(entries) * 2 // 3],
        reports=reports[: len(reports) // 2],
    )
    malgraph = MalGraph.build(base)
    service = build_service(malgraph)
    later = entries[len(entries) * 2 // 3 :]
    late_reports = reports[len(reports) // 2 :]
    for step in range(3):
        current = malgraph.dataset.entries
        events = [GraphEvent.package_added(e) for e in later[step::3]]
        events += [GraphEvent.package_removed(e.package) for e in current[step:40:9]]
        events += [
            GraphEvent.package_detected(dataclasses.replace(e, downloads=e.downloads + 1))
            for e in current[step + 50 : 90 : 11]
        ]
        events += [GraphEvent.report_ingested(r) for r in late_reports[step::3]]
        refresh_from_events(service.index, events, service=service, malgraph=malgraph)

    index = service.index
    assert index.dataset is malgraph.dataset
    # the snapshot patched batch by batch equals a cold index build
    _assert_index_matches_cold_build(index, malgraph)
    families = _oracle_groups(malgraph, FAMILY_KINDS)
    campaigns = _oracle_groups(malgraph, CAMPAIGN_KINDS)
    graph = malgraph.graph
    for e in malgraph.dataset.entries:
        pid, nid = e.package, node_id(e.package)
        assert index.families_of(pid) == families.get(pid, []), pid
        assert index.campaigns_of(pid) == campaigns.get(pid, []), pid
        walked = set()
        for edge_type in EdgeType:
            walked.update(graph.neighbors(nid, edge_type))
        walked.discard(nid)
        assert index.related(pid, limit=10_000) == sorted(walked), pid
        assert index.related(pid) == sorted(walked)[:25], pid
