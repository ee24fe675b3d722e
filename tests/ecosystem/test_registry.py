"""Registry life cycle: publish -> detect -> remove (Fig. 6 phases 2-4)."""

import pytest

from repro.ecosystem.package import make_artifact
from repro.ecosystem.registry import (
    EventKind,
    Registry,
    RegistryHub,
)
from repro.errors import (
    DuplicatePackageError,
    PackageNotFoundError,
    PackageRemovedError,
)


def art(name="left-pad", version="1.0.0", ecosystem="npm"):
    return make_artifact(ecosystem, name, version, {"index.py": "x = 1\n"})


@pytest.fixture
def registry():
    return Registry("npm")


class TestPublish:
    def test_publish_makes_package_live(self, registry):
        record = registry.publish(art(), day=10)
        assert record.live
        assert record.release_day == 10
        assert ("left-pad", "1.0.0") in registry
        assert len(registry) == 1

    def test_publish_emits_event(self, registry):
        registry.publish(art(), day=10)
        (event,) = registry.events
        assert event.kind is EventKind.PUBLISH
        assert event.day == 10
        assert event.package.name == "left-pad"

    def test_duplicate_version_rejected(self, registry):
        registry.publish(art(), day=1)
        with pytest.raises(DuplicatePackageError):
            registry.publish(art(), day=2)

    def test_same_name_new_version_allowed(self, registry):
        registry.publish(art(version="1.0.0"), day=1)
        registry.publish(art(version="1.0.1"), day=2)
        assert len(registry) == 2

    def test_wrong_ecosystem_rejected(self, registry):
        with pytest.raises(DuplicatePackageError):
            registry.publish(art(ecosystem="pypi"), day=1)

    def test_malicious_flag_recorded(self, registry):
        record = registry.publish(art(), day=1, malicious=True)
        assert record.malicious


class TestFetch:
    def test_fetch_live_package(self, registry):
        registry.publish(art(), day=1)
        fetched = registry.fetch("left-pad", "1.0.0")
        assert fetched.name == "left-pad"

    def test_fetch_unknown_raises(self, registry):
        with pytest.raises(PackageNotFoundError):
            registry.fetch("ghost", "0.0.1")

    def test_fetch_removed_raises(self, registry):
        registry.publish(art(), day=1)
        registry.remove("left-pad", "1.0.0", day=5)
        with pytest.raises(PackageRemovedError):
            registry.fetch("left-pad", "1.0.0")

    def test_get_still_returns_removed_record(self, registry):
        registry.publish(art(), day=1)
        registry.remove("left-pad", "1.0.0", day=5)
        record = registry.get("left-pad", "1.0.0")
        assert not record.live
        assert record.persist_days == 4


class TestDetectAndRemove:
    def test_mark_detected_sets_first_detection_only(self, registry):
        registry.publish(art(), day=1)
        registry.mark_detected("left-pad", "1.0.0", day=3, by="snyk")
        registry.mark_detected("left-pad", "1.0.0", day=9, by="phylum")
        assert registry.get("left-pad", "1.0.0").detection_day == 3
        detects = [e for e in registry.events if e.kind is EventKind.DETECT]
        assert len(detects) == 1
        assert detects[0].detail == "snyk"

    def test_remove_is_idempotent(self, registry):
        registry.publish(art(), day=1)
        registry.remove("left-pad", "1.0.0", day=5)
        registry.remove("left-pad", "1.0.0", day=9)
        assert registry.get("left-pad", "1.0.0").removal_day == 5
        removes = [e for e in registry.events if e.kind is EventKind.REMOVE]
        assert len(removes) == 1

    def test_serials_index_the_event_log(self, registry):
        registry.publish(art(version="1.0.0"), day=1)
        record = registry.publish(art(version="1.0.1"), day=1)
        registry.mark_detected("left-pad", "1.0.1", day=2)
        registry.remove("left-pad", "1.0.1", day=3)
        assert (record.publish_serial, record.removal_serial) == (1, 3)
        assert registry.events[record.publish_serial].kind is EventKind.PUBLISH
        assert registry.events[record.removal_serial].kind is EventKind.REMOVE
        assert registry.serial == len(registry.events) == 4
        assert [record.live_at(s) for s in range(5)] == [
            False, False, True, True, False,
        ]

    def test_removed_name_stays_taken(self, registry):
        registry.publish(art(), day=1)
        registry.remove("left-pad", "1.0.0", day=5)
        assert registry.name_taken("left-pad"), (
            "a removed name cannot be re-registered — the mechanism that "
            "forces the paper's changing->release loop"
        )

    def test_live_name_with_several_versions_is_taken(self, registry):
        registry.publish(art(version="1.0.0"), day=1)
        registry.publish(art(version="1.0.1"), day=2)
        registry.remove("left-pad", "1.0.0", day=3)
        assert registry.name_taken("left-pad")
        assert len(list(registry.live_packages())) == 1

    def test_unknown_name_is_not_taken(self, registry):
        registry.publish(art(), day=1)
        assert not registry.name_taken("right-pad")
        assert not registry.name_taken("left-pa")

    def test_persist_days_none_while_live(self, registry):
        registry.publish(art(), day=1)
        assert registry.get("left-pad", "1.0.0").persist_days is None


class TestDownloadsAndSnapshots:
    def test_record_downloads_accumulates(self, registry):
        registry.publish(art(), day=1)
        registry.record_downloads("left-pad", "1.0.0", 5)
        registry.record_downloads("left-pad", "1.0.0", 2)
        assert registry.get("left-pad", "1.0.0").downloads == 7

    def test_downloads_ignored_after_removal(self, registry):
        registry.publish(art(), day=1)
        registry.remove("left-pad", "1.0.0", day=2)
        registry.record_downloads("left-pad", "1.0.0", 100)
        assert registry.get("left-pad", "1.0.0").downloads == 0

    def test_live_snapshot_excludes_removed(self, registry):
        registry.publish(art(version="1.0.0"), day=1)
        registry.publish(art(version="1.0.1"), day=1)
        registry.remove("left-pad", "1.0.0", day=2)
        snapshot = registry.live_snapshot()
        assert set(snapshot) == {("left-pad", "1.0.1")}

    def test_live_packages_vs_all_packages(self, registry):
        registry.publish(art(version="1.0.0"), day=1)
        registry.publish(art(version="1.0.1"), day=1)
        registry.remove("left-pad", "1.0.0", day=2)
        assert len(list(registry.live_packages())) == 1
        assert len(list(registry.all_packages())) == 2


class TestRegistryHub:
    def test_lookup_routes_by_ecosystem(self):
        hub = RegistryHub(["npm", "pypi"])
        record = hub["npm"].publish(art(), day=1)
        assert hub.lookup(record.artifact.id) is record

    def test_unknown_ecosystem_raises(self):
        hub = RegistryHub(["npm"])
        with pytest.raises(PackageNotFoundError):
            hub["cargo"]

    def test_total_packages_sums_registries(self):
        hub = RegistryHub(["npm", "pypi"])
        hub["npm"].publish(art(), day=1)
        hub["pypi"].publish(art(ecosystem="pypi"), day=1)
        assert hub.total_packages() == 2
        assert sorted(hub.ecosystems) == ["npm", "pypi"]
