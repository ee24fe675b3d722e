"""Verdict semantics: known -> malicious, near-miss -> suspicious,
clean -> unknown; association aggregation over a hand-built graph."""

from __future__ import annotations

import pytest

from repro.core.malgraph import MalGraph
from repro.service.enrich import (
    VERDICT_MALICIOUS,
    VERDICT_SUSPICIOUS,
    VERDICT_UNKNOWN,
    EnrichmentEngine,
    Indicator,
)
from repro.service.index import IntelIndex

from tests.core.helpers import dataset, entry, report


@pytest.fixture(scope="module")
def mini_engine():
    """Four packages with every association kind present.

    twin-a/twin-b share code (DG + SG family); front depends on lib
    (DeG campaign); one report covers lib+front and names an actor
    (CG campaign + alias).
    """
    shared = "def payload():\n    return 'steal'\n"
    lib = entry("lib", code="def hide():\n    return 0\n")
    front = entry("front", code="import lib\n", dependencies=("lib",))
    twin_a = entry("twin-a", code=shared)
    twin_b = entry("twin-b", code=shared)
    covering = report("r1", [lib.package, front.package])
    covering.actor_alias = "Lolip0p"
    ds = dataset([lib, front, twin_a, twin_b], [covering])
    return EnrichmentEngine(IntelIndex.build(MalGraph.build(ds)))


def test_known_name_is_malicious(mini_engine):
    result = mini_engine.lookup(name="twin-a")
    assert result.verdict == VERDICT_MALICIOUS
    assert result.matches == ["pypi:twin-a@1.0"]
    assert result.families  # DG and/or SG membership
    assert "pypi:twin-b@1.0" in result.related


def test_known_sha256_is_malicious(mini_engine):
    sha = mini_engine.index.dataset.get(
        mini_engine.index.dataset.entries[0].package
    ).sha256()
    result = mini_engine.lookup(sha256=sha)
    assert result.verdict == VERDICT_MALICIOUS


def test_campaign_and_actor_associations(mini_engine):
    result = mini_engine.lookup(name="lib")
    assert result.verdict == VERDICT_MALICIOUS
    assert result.campaigns  # DeG (dependency) and CG (report) groups
    assert result.actors == ["Lolip0p"]
    assert "pypi:front@1.0" in result.related


def test_wrong_ecosystem_does_not_match(mini_engine):
    result = mini_engine.lookup(name="twin-a", ecosystem="npm")
    assert result.verdict != VERDICT_MALICIOUS


def test_near_known_name_is_suspicious(mini_engine):
    result = mini_engine.lookup(name="twin-aa")
    assert result.verdict == VERDICT_SUSPICIOUS
    assert result.squat["kind"] == "near-known"
    assert result.squat["target"] == "twin-a"
    assert result.squat["distance"] == 1
    assert "pypi:twin-a@1.0" in result.related


def test_popular_typosquat_is_suspicious(mini_engine):
    result = mini_engine.lookup(name="reqursts", ecosystem="pypi")
    assert result.verdict == VERDICT_SUSPICIOUS
    assert result.squat["target"] == "requests"
    assert result.squat["kind"] == "typo"


def test_bare_name_takes_the_first_ecosystem_that_flags_it(mini_engine):
    """A bare name is checked against every ecosystem's popular names,
    in sorted order, and the first ecosystem that flags it answers."""
    # 'redis' is Docker's popular package, yet two edits from npm's 'redux'
    docker = mini_engine.lookup(name="redis", ecosystem="docker")
    assert docker.verdict == VERDICT_UNKNOWN
    result = mini_engine.lookup(name="redis")
    assert result.verdict == VERDICT_SUSPICIOUS
    assert result.squat == {"target": "redux", "distance": 2, "kind": "typo"}
    # 'realt' is one edit from cocoapods' 'realm' and from npm's 'react'
    assert mini_engine.lookup(name="realt", ecosystem="npm").squat["target"] == "react"
    result = mini_engine.lookup(name="realt")
    assert result.squat == {"target": "realm", "distance": 1, "kind": "typo"}


def test_clean_name_is_unknown(mini_engine):
    result = mini_engine.lookup(name="totally-unrelated-zzz")
    assert result.verdict == VERDICT_UNKNOWN
    assert not result.matches and not result.related
    assert result.squat is None


def test_empty_indicator_is_unknown(mini_engine):
    assert mini_engine.enrich(Indicator()).verdict == VERDICT_UNKNOWN


def test_seen_window_spans_release_and_reports(mini_engine):
    result = mini_engine.lookup(name="lib")
    assert result.first_seen_day == 10  # release_day of helpers.entry
    assert result.last_seen_day >= result.first_seen_day


def test_confidence_comes_from_sources(mini_engine):
    flagged = mini_engine.lookup(name="lib")
    assert flagged.sources and flagged.confidence == flagged.sources[0]["reliability"]
    assert mini_engine.lookup(name="zzz-unseen").confidence == 0.0


def test_result_round_trips_to_json_dict(mini_engine):
    import json

    payload = mini_engine.lookup(name="twin-a").to_dict()
    decoded = json.loads(json.dumps(payload))
    assert decoded["verdict"] == VERDICT_MALICIOUS
    assert set(decoded) == {
        "indicator", "verdict", "confidence", "matches", "families",
        "campaigns", "actors", "related", "sources",
        "first_seen_day", "last_seen_day", "squat",
    }


# -- against the simulated world ------------------------------------------

def test_world_packages_enrich_as_malicious(engine, small_dataset):
    for e in small_dataset.entries[:25]:
        result = engine.lookup(
            name=e.package.name,
            version=e.package.version,
            ecosystem=e.package.ecosystem,
        )
        assert result.verdict == VERDICT_MALICIOUS
        assert str(e.package) in result.matches
        assert result.sources


def test_world_sha_lookup_matches_name_lookup(engine, small_dataset):
    e = small_dataset.available_entries()[0]
    by_sha = engine.lookup(sha256=e.sha256())
    assert str(e.package) in by_sha.matches


# -- health-weighted confidence ---------------------------------------------

def test_source_health_scales_reliability_and_confidence():
    """A verdict backed only by a dark feed is worth a quarter of the
    same verdict from a healthy one."""
    from repro.connectors import HEALTH_RELIABILITY_FACTOR

    ds = dataset([entry("lib")])  # single claim from snyk
    index = IntelIndex.build(MalGraph.build(ds))
    healthy = EnrichmentEngine(index).lookup(name="lib")
    base = healthy.sources[0]["reliability"]
    assert "health" not in healthy.sources[0]  # no health, no annotation

    dark = EnrichmentEngine(
        index,
        source_health={"snyk": {"state": "dark", "reliability_factor": 0.25}},
    ).lookup(name="lib")
    (row,) = dark.sources
    assert row["health"] == "dark"
    assert row["reliability"] == round(base * 0.25, 4)
    assert dark.confidence == row["reliability"]
    assert dark.confidence < healthy.confidence
    assert HEALTH_RELIABILITY_FACTOR["dark"] == 0.25


def test_source_health_resorts_rows_by_weighted_reliability():
    """Degrading the best source hands the top row (and confidence) to
    the runner-up: rows re-sort on the *weighted* reliability."""
    ds = dataset([entry("dual", sources=("snyk", "datadog"))])
    engine = EnrichmentEngine(IntelIndex.build(MalGraph.build(ds)))
    rows = engine.lookup(name="dual").sources
    assert [r["key"] for r in rows] == ["datadog", "snyk"]  # 0.95 > 0.8775

    weighted = EnrichmentEngine(
        engine.index,
        source_health={"datadog": {"state": "degraded", "reliability_factor": 0.6}},
    ).lookup(name="dual")
    assert [r["key"] for r in weighted.sources] == ["snyk", "datadog"]
    assert weighted.sources[0]["reliability"] > weighted.sources[1]["reliability"]
    assert weighted.confidence == weighted.sources[0]["reliability"]
    assert "health" not in weighted.sources[0]  # snyk has no health record


def test_source_health_without_matches_is_inert(mini_engine):
    engine = EnrichmentEngine(
        mini_engine.index,
        source_health={"snyk": {"state": "dark", "reliability_factor": 0.25}},
    )
    assert engine.lookup(name="zzz-unseen").confidence == 0.0
    # and an empty health map leaves rows byte-identical to the index's
    plain = EnrichmentEngine(mini_engine.index, source_health={})
    assert plain.lookup(name="lib").sources == mini_engine.lookup(name="lib").sources


# -- request validation -------------------------------------------------------

def test_from_dict_roundtrip():
    raw = {"name": "lib", "version": "1.0", "sha256": "ab" * 32, "ecosystem": "pypi"}
    indicator = Indicator.from_dict(raw)
    assert indicator.to_dict() == raw


def test_from_dict_rejects_non_dict_payloads():
    from repro.errors import ValidationError

    for bad in ("name", 7, ["name"], None):
        with pytest.raises(ValidationError):
            Indicator.from_dict(bad)


def test_from_dict_rejects_non_string_fields():
    from repro.errors import ValidationError

    for field, value in (
        ("name", 123),
        ("sha256", ["deadbeef"]),
        ("ecosystem", {"k": "v"}),
        ("version", True),  # bools are not versions, despite being ints
    ):
        with pytest.raises(ValidationError) as failure:
            Indicator.from_dict({field: value})
        assert field in str(failure.value)


def test_from_dict_coerces_numeric_versions():
    assert Indicator.from_dict({"name": "lib", "version": 2}).version == "2"
    assert Indicator.from_dict({"name": "lib", "version": 1.5}).version == "1.5"


def test_integer_name_no_longer_reaches_key():
    # the regression: Indicator(name=123).key() raises AttributeError
    # mid-request; validated construction refuses it up front
    from repro.errors import ValidationError

    with pytest.raises(ValidationError):
        Indicator.from_dict({"name": 123})
