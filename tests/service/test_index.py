"""IntelIndex completeness and lookup semantics against the dataset."""

from __future__ import annotations

import pytest

from repro.core.edges import node_id
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.intel.sources import SOURCE_PROFILES
from repro.service.index import IntelIndex, source_reliability

from tests.core.helpers import dataset, entry


def test_every_package_resolvable_by_name_and_version(intel_index, small_dataset):
    for entry in small_dataset.entries:
        found = intel_index.lookup_name_version(
            entry.package.name, entry.package.version, entry.package.ecosystem
        )
        assert entry in found


def test_every_available_package_resolvable_by_sha256(intel_index, small_dataset):
    for entry in small_dataset.available_entries():
        assert entry in intel_index.lookup_sha256(entry.sha256())


def test_name_lookup_is_case_insensitive(intel_index, small_dataset):
    entry = small_dataset.entries[0]
    assert intel_index.lookup_name(entry.package.name.upper())


def test_ecosystem_index_matches_dataset_view(intel_index, small_dataset):
    for ecosystem in ("pypi", "npm"):
        held = set(intel_index.indexes.lookup("ecosystem", ecosystem))
        expected = {node_id(e.package) for e in small_dataset.for_ecosystem(ecosystem)}
        assert held == expected


@pytest.mark.parametrize("kind", list(GroupKind))
def test_group_index_mirrors_group_extraction(
    intel_index, service_malgraph, kind
):
    groups = service_malgraph.groups(kind)
    for i, group in enumerate(groups):
        group_id = f"{kind.value}-{i:04d}"
        held = set(intel_index.indexes.group_members[group_id])
        assert held == {node_id(m.package) for m in group.members}
        for member in group.members:
            assert group_id in intel_index.groups_of(member.package)


def test_families_and_campaigns_split_by_kind(intel_index, small_dataset):
    for entry in small_dataset.entries:
        groups = intel_index.groups_of(entry.package)
        families = set(intel_index.families_of(entry.package))
        campaigns = set(intel_index.campaigns_of(entry.package))
        assert families | campaigns == set(groups)
        assert not families & campaigns


def test_actor_index_covers_report_aliases(intel_index, small_dataset):
    for report in small_dataset.reports:
        if not report.actor_alias:
            continue
        resolvable = [p for p in report.packages if small_dataset.get(p)]
        for pid in resolvable:
            assert report.actor_alias in intel_index.actors_of(pid)


def test_related_returns_graph_neighbours(intel_index, service_malgraph):
    groups = service_malgraph.groups(GroupKind.SG)
    assert groups, "small world should have at least one similarity group"
    group = groups[0]
    first, second = group.members[0], group.members[1]
    related = intel_index.related(first.package, limit=10_000)
    assert node_id(second.package) in related
    assert node_id(first.package) not in related


def test_near_names_finds_single_edit_mutations(intel_index, small_dataset):
    name = small_dataset.entries[0].package.name
    mutated = name[:-1] + ("x" if name[-1] != "x" else "y")
    hits = dict(intel_index.near_names(mutated))
    assert name.lower() in hits
    assert hits[name.lower()] == 1


def test_names_match_up_to_case_in_every_lookup():
    """Exact names, near names and the names counter fold case; the
    ecosystem pin narrows both lookups."""
    upper = entry("Delta-Lib", ecosystem="npm", code="function d() { return 2; }\n")
    lower = entry("delta-lib", code="def d():\n    return 2\n")
    index = IntelIndex.build(MalGraph.build(dataset([upper, lower])))
    assert {e.package for e in index.lookup_name("DELTA-LIB")} == {
        upper.package,
        lower.package,
    }
    assert index.lookup_name("delta-lib", "npm") == [upper]
    assert index.near_names("delta-lix") == [("delta-lib", 1)]
    assert index.near_names("delta-lix", "npm") == [("delta-lib", 1)]
    assert index.near_names("delta-lix", "rubygems") == []
    assert index.stats()["names"] == 1


def test_near_names_excludes_exact_match(intel_index, small_dataset):
    name = small_dataset.entries[0].package.name
    assert all(held != name.lower() or d > 0 for held, d in intel_index.near_names(name))


def test_source_reliability_orders_sectors():
    by_key = {p.key: source_reliability(p) for p in SOURCE_PROFILES}
    assert all(0.0 < score < 1.0 for score in by_key.values())
    assert by_key["datadog"] > by_key["blogs"]  # industry above individual


def test_source_profiles_sorted_by_reliability(intel_index, small_dataset):
    rows = intel_index.source_profiles(small_dataset.entries[:50])
    assert rows
    assert rows == sorted(rows, key=lambda r: (-r["reliability"], r["key"]))


def test_stats_counters(intel_index, small_dataset):
    stats = intel_index.stats()
    assert stats["packages"] == len(small_dataset)
    assert 0 < stats["names"] <= stats["packages"]
    assert stats["signatures"] == len(
        {e.sha256() for e in small_dataset.available_entries()}
    )
    assert stats["reports"] == len(small_dataset.reports)


def test_build_from_malgraph_carries_graph(intel_index, service_malgraph):
    assert intel_index.indexes is service_malgraph.query_indexes()
    assert intel_index.package_count == len(service_malgraph.dataset)
