"""World-level invariants: the simulated supply chain is internally
consistent and the life cycle {changing→release→detection→removal} of
Fig. 6/10 holds for every package that ever enters the registries."""

from __future__ import annotations

import pytest

from repro.ecosystem.package import ECOSYSTEMS
from repro.errors import PackageNotFoundError
from repro.world import WorldConfig, build_world, collect, default_world


def test_world_config_defaults():
    config = WorldConfig()
    assert config.seed == 7
    assert config.scale == 1.0
    assert config.horizon > 2000  # multi-year study window


def test_world_has_all_ecosystem_registries(small_world):
    for ecosystem in ECOSYSTEMS:
        assert small_world.registries[ecosystem].ecosystem == ecosystem


def test_every_release_is_published(small_world):
    """Every campaign release attempt ends up in its registry."""
    for campaign, release in small_world.corpus.releases():
        record = small_world.registries.lookup(release.artifact.id)
        assert record.release_day == release.release_day
        assert record.malicious


def test_benign_packages_are_published_and_never_removed(small_world):
    for benign in small_world.corpus.benign:
        record = small_world.registries.lookup(benign.artifact.id)
        assert not record.malicious
        assert record.removal_day is None


def test_registry_lifecycle_ordering(small_world):
    """release <= detection <= removal for every removed package."""
    for ecosystem in ECOSYSTEMS:
        for record in small_world.registries[ecosystem].all_packages():
            if record.detection_day is not None:
                assert record.release_day <= record.detection_day
            if record.removal_day is not None:
                assert record.detection_day is not None
                assert record.detection_day <= record.removal_day
                assert record.removal_day <= small_world.horizon


def test_only_detected_packages_are_removed(small_world):
    for ecosystem in ECOSYSTEMS:
        for record in small_world.registries[ecosystem].all_packages():
            if record.removal_day is not None:
                assert record.malicious, (
                    "the simulated administrator only removes malware"
                )


def test_mirrors_cover_major_ecosystems(small_world):
    """Paper: 5 NPM + 12 PyPI + 6 RubyGems mirrors."""
    assert len(small_world.mirrors.for_ecosystem("npm")) == 5
    assert len(small_world.mirrors.for_ecosystem("pypi")) == 12
    assert len(small_world.mirrors.for_ecosystem("rubygems")) == 6


def test_mirror_lookups_follow_the_day_level_sync_rule(small_world):
    """The world syncs after each day's publishes and removals, so a
    lagging mirror holds what was released by its last sync day and not
    removed by then, and an archival mirror what was live on any of its
    sync days: ``release_day <= s < removal_day`` (Fig. 5's two causes)."""
    horizon = small_world.horizon
    for mirror in small_world.mirrors:
        sync_days = [day for day in range(horizon + 1) if mirror.due(day)]
        if mirror.archival:
            checked = sync_days
        else:
            assert mirror.last_sync_day == max(sync_days, default=None)
            checked = sync_days[-1:]
        for record in mirror.upstream.all_packages():
            removal = record.removal_day
            expected = any(
                record.release_day <= day and (removal is None or day < removal)
                for day in checked
            )
            artifact = record.artifact
            hit = mirror.lookup(artifact.name, artifact.version)
            assert hit is (artifact if expected else None), (
                mirror.name,
                artifact.id,
            )


def test_intel_entries_reference_published_packages(small_world):
    for entry in small_world.outcome.entries:
        record = small_world.registries.lookup(entry.package)
        assert record.malicious


def test_reports_reference_attributed_packages(small_world):
    attributed = {e.package for e in small_world.outcome.entries}
    for report in small_world.reports.reports:
        for package in report.packages:
            assert package in attributed


def test_world_determinism():
    """Identical configs produce byte-identical worlds."""
    config = WorldConfig(seed=41, scale=0.05)
    a = build_world(config)
    b = build_world(config)
    releases_a = [
        (r.artifact.id, r.release_day, r.detection_day, r.removal_day, r.downloads)
        for _, r in a.corpus.releases()
    ]
    releases_b = [
        (r.artifact.id, r.release_day, r.detection_day, r.removal_day, r.downloads)
        for _, r in b.corpus.releases()
    ]
    assert releases_a == releases_b
    assert [e.package for e in a.outcome.entries] == [
        e.package for e in b.outcome.entries
    ]
    assert len(a.web) == len(b.web)


def test_different_seeds_differ():
    a = build_world(WorldConfig(seed=1, scale=0.05))
    b = build_world(WorldConfig(seed=2, scale=0.05))
    ids_a = {r.artifact.id for _, r in a.corpus.releases()}
    ids_b = {r.artifact.id for _, r in b.corpus.releases()}
    assert ids_a != ids_b


def test_collect_is_deterministic(small_world):
    first = collect(small_world)
    second = collect(small_world)
    assert [e.package for e in first.dataset] == [e.package for e in second.dataset]
    assert first.dataset.available_entries().__len__() == (
        second.dataset.available_entries().__len__()
    )


def test_collected_entries_were_removed_from_registry(small_dataset, small_world):
    """The FP filter guarantees every dataset entry was really removed."""
    for entry in small_dataset:
        record = small_world.registries.lookup(entry.package)
        assert record.removal_day is not None


def test_collected_artifacts_match_registry_bits(small_dataset, small_world):
    """Recovered artifacts are identical to what the registry once held."""
    for entry in small_dataset.available_entries():
        record = small_world.registries.lookup(entry.package)
        assert entry.artifact.sha256() == record.artifact.sha256()


def test_ground_truth_attached(small_dataset):
    labelled = [e for e in small_dataset if e.campaign_id]
    assert len(labelled) == len(small_dataset), (
        "every collected package came from some campaign"
    )
    assert all(e.actor for e in labelled)
    assert all(e.archetype for e in labelled)


def test_default_world_is_memoised():
    assert default_world(seed=7, scale=1.0) is default_world(seed=7, scale=1.0)


def test_scale_grows_the_corpus():
    small = build_world(WorldConfig(seed=5, scale=0.05)).corpus.total_releases
    large = build_world(WorldConfig(seed=5, scale=0.2)).corpus.total_releases
    assert large > small


def test_unreported_packages_never_enter_dataset(small_world, small_dataset):
    """Packages no source wrote up are invisible to the pipeline."""
    reported = {e.package for e in small_world.outcome.entries}
    for entry in small_dataset:
        assert entry.package in reported
