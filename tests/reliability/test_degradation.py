"""End-to-end graceful degradation: recovery, accounting, determinism."""

from __future__ import annotations

import json

import pytest

from repro.io.datasets import (
    collection_stats_from_dict,
    collection_stats_to_dict,
    entry_to_dict,
)
from repro.pipeline import ArtifactStore, PipelineReport, PipelineRuntime
from repro.reliability import DegradationReport, FaultPlan, RetryPolicy
from repro.world import WorldConfig, run_collection

PLAN_SEED = 11


def dataset_bytes(result) -> str:
    return json.dumps(
        [entry_to_dict(e) for e in result.dataset.entries], sort_keys=True
    )


def report_bytes(result) -> str:
    return json.dumps(result.stats.degradation.to_dict(), sort_keys=True)


def assert_books_balance(report: DegradationReport) -> None:
    """Every injected fault surfaced as exactly one observed error, and
    every observed error was retried away or booked as fatal."""
    injected = sum(report.faults_injected.values())
    observed = sum(report.errors_by_kind.values())
    assert injected == observed == report.errors_recovered + report.errors_fatal


def test_null_plan_is_exactly_collect(small_world, small_collection):
    result = run_collection(small_world, plan=None)
    assert dataset_bytes(result) == dataset_bytes(small_collection)
    assert result.stats.degradation is None


def test_moderate_plan_recovers_the_full_dataset(small_world, small_collection):
    """Retries absorb every moderate fault: the merged dataset — and the
    Table-II-feeding stats — are byte-identical to the fault-free run."""
    result = run_collection(small_world, plan=FaultPlan.moderate(PLAN_SEED))
    assert not result.stats.degraded
    assert dataset_bytes(result) == dataset_bytes(small_collection)
    assert result.stats.crawl == small_collection.stats.crawl
    assert result.stats.recovery == small_collection.stats.recovery
    report = result.stats.degradation
    assert report.retries > 0  # chaos actually happened
    assert not report.degraded
    assert report.skipped_urls == []
    assert_books_balance(report)


def test_heavy_plan_completes_degraded_with_exact_accounting(small_world):
    plan = FaultPlan.heavy(PLAN_SEED)
    result = run_collection(small_world, plan=plan)  # must not raise
    stats = result.stats
    assert stats.degraded
    report = stats.degradation
    assert_books_balance(report)
    # every quarantined URL is both counted and listed, exactly once each
    assert stats.crawl.pages_unfetchable == len(report.skipped_urls)
    assert len(set(report.skipped_urls)) == len(report.skipped_urls)
    # every abandoned mirror scan is mirrored in the recovery stats
    assert stats.recovery.skipped == report.mirror_lookups_skipped
    # the two dark sources never answered
    assert set(plan.dark_sources) <= set(report.skipped_sources)
    assert report.fault_plan == plan.to_dict()
    # heavy chaos nevertheless collected a usable (if smaller) dataset
    assert result.dataset.entries


def test_same_seed_gives_byte_identical_reports(small_world):
    one = run_collection(small_world, plan=FaultPlan.heavy(PLAN_SEED))
    two = run_collection(small_world, plan=FaultPlan.heavy(PLAN_SEED))
    assert report_bytes(one) == report_bytes(two)
    assert dataset_bytes(one) == dataset_bytes(two)


def test_different_seed_gives_different_chaos(small_world):
    one = run_collection(small_world, plan=FaultPlan.heavy(PLAN_SEED))
    two = run_collection(small_world, plan=FaultPlan.heavy(PLAN_SEED + 1))
    assert report_bytes(one) != report_bytes(two)


def test_tiny_retry_budget_loses_more(small_world):
    plan = FaultPlan.heavy(PLAN_SEED)
    generous = run_collection(small_world, plan=plan)
    stingy = run_collection(
        small_world, plan=plan, policy=RetryPolicy().with_max_retries(0)
    )
    assert len(stingy.dataset.entries) <= len(generous.dataset.entries)
    assert stingy.stats.degradation.retries == 0


def test_degradation_report_round_trips(small_world):
    report = run_collection(
        small_world, plan=FaultPlan.heavy(PLAN_SEED)
    ).stats.degradation
    clone = DegradationReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
    assert clone.degraded == report.degraded


def test_collection_stats_serialise_degradation(small_world):
    stats = run_collection(small_world, plan=FaultPlan.heavy(PLAN_SEED)).stats
    raw = collection_stats_to_dict(stats)
    clone = collection_stats_from_dict(raw)
    assert clone.degraded is True
    assert clone.crawl.pages_unfetchable == stats.crawl.pages_unfetchable
    assert clone.recovery.skipped == stats.recovery.skipped
    assert clone.degradation.to_dict() == stats.degradation.to_dict()
    # fault-free stats keep a clean wire format
    clean = collection_stats_from_dict(
        collection_stats_to_dict(type(stats)())
    )
    assert clean.degraded is False and clean.degradation is None


# -- pipeline-runtime quarantine --------------------------------------------

TINY = WorldConfig(seed=3, scale=0.05)


def runtime(tmp_path, **kwargs) -> PipelineRuntime:
    return PipelineRuntime(
        TINY,
        store=ArtifactStore(cache_dir=tmp_path / "cache", disk_enabled=True),
        report=PipelineReport(),
        **kwargs,
    )


def test_degraded_artifact_is_not_cached_by_default(tmp_path):
    rt = runtime(tmp_path, fault_plan=FaultPlan.heavy(PLAN_SEED))
    first = rt.collection()
    assert first.stats.degraded
    assert rt.store.get_memory("collection", rt.fingerprint("collection")) is None
    assert not rt.store.has_disk("collection", rt.fingerprint("collection"))
    rt.collection()
    assert rt.report.counts()["collection"]["misses"] == 2  # rebuilt, not hit


@pytest.mark.parametrize("allow_degraded", [False, True])
def test_malgraph_of_a_degraded_corpus_is_quarantined_too(
    tmp_path, allow_degraded
):
    """The quarantine covers the graph built from a degraded collection,
    not only the collection itself."""
    rt = runtime(
        tmp_path,
        fault_plan=FaultPlan.heavy(PLAN_SEED),
        allow_degraded=allow_degraded,
    )
    assert rt.collection().stats.degraded
    rt.malgraph()
    fp = rt.fingerprint("malgraph")
    assert (rt.store.get_memory("malgraph", fp) is not None) is allow_degraded
    assert rt.store.has_disk("malgraph", fp) is allow_degraded
    rt.malgraph()
    expected = (
        {"hits": 1, "misses": 1} if allow_degraded else {"hits": 0, "misses": 2}
    )
    assert rt.report.counts()["malgraph"] == expected


def test_allow_degraded_opts_into_caching(tmp_path):
    rt = runtime(
        tmp_path, fault_plan=FaultPlan.heavy(PLAN_SEED), allow_degraded=True
    )
    first = rt.collection()
    assert first.stats.degraded
    assert rt.store.has_disk("collection", rt.fingerprint("collection"))
    rt.collection()
    counts = rt.report.counts()["collection"]
    assert counts == {"hits": 1, "misses": 1}
    # and the persisted stats survive a disk round trip, flag intact
    fresh = runtime(
        tmp_path, fault_plan=FaultPlan.heavy(PLAN_SEED), allow_degraded=True
    )
    fresh.store.cache_dir = rt.store.cache_dir
    reloaded = fresh.collection()
    assert reloaded.stats.degraded
    assert reloaded.stats.degradation is not None


def test_fault_plan_is_part_of_the_fingerprint(tmp_path):
    clean = runtime(tmp_path)
    chaotic = runtime(
        tmp_path, fault_plan=FaultPlan.moderate(PLAN_SEED)
    )
    assert clean.fingerprint("collection") != chaotic.fingerprint("collection")
    assert clean.fingerprint("world") == chaotic.fingerprint("world")
    rebudgeted = runtime(
        tmp_path,
        fault_plan=FaultPlan.moderate(PLAN_SEED),
        retry_policy=RetryPolicy().with_max_retries(1),
    )
    assert rebudgeted.fingerprint("collection") != chaotic.fingerprint("collection")


def test_moderate_chaos_collection_matches_clean_artifact(tmp_path):
    """The moderate-chaos artifact (cacheable: not degraded) carries the
    same dataset bytes as the clean artifact under its own fingerprint."""
    clean = runtime(tmp_path).collection()
    chaotic = runtime(
        tmp_path, fault_plan=FaultPlan.moderate(PLAN_SEED)
    ).collection()
    assert not chaotic.stats.degraded
    assert dataset_bytes(chaotic) == dataset_bytes(clean)
