"""Root package registry.

One :class:`Registry` per ecosystem models the authoritative index (PyPI,
the npm registry, RubyGems.org, ...). It supports the life-cycle the paper
describes in Fig. 6: packages are *published*, accumulate *downloads*, are
*detected* and finally *removed* by the administrator. Removal is
permanent — the same (name, version) cannot be re-published, which is the
mechanism that forces attackers into the {changing -> release} loop.

Every mutation appends one :class:`RegistryEvent` to ``Registry.events``;
the event's index in that log is its *serial*, like the changelog serial
that PyPI mirrors follow. Each record keeps the serials of its publish
and removal, so whether it was live at any past serial is an interval
check — which is how mirrors answer lookups without copying the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import (
    DuplicatePackageError,
    PackageNotFoundError,
    PackageRemovedError,
)
from repro.ecosystem.package import PackageArtifact, PackageId


class EventKind(str, Enum):
    """Registry life-cycle events (Fig. 6 phases 2-4)."""

    PUBLISH = "publish"
    DETECT = "detect"
    REMOVE = "remove"


@dataclass(frozen=True)
class RegistryEvent:
    """One timestamped life-cycle event for a package."""

    kind: EventKind
    package: PackageId
    day: int
    detail: str = ""


@dataclass
class PublishedPackage:
    """Registry-side record of one published package version."""

    artifact: PackageArtifact
    release_day: int
    removal_day: Optional[int] = None
    detection_day: Optional[int] = None
    downloads: int = 0
    malicious: bool = False  # ground-truth flag, set by the world builder
    #: registry serials (event-log indices) of the publish and the
    #: removal; the registry assigns them
    publish_serial: int = field(default=0, init=False)
    removal_serial: Optional[int] = field(default=None, init=False)

    @property
    def live(self) -> bool:
        return self.removal_day is None

    def live_at(self, serial: int) -> bool:
        """True if the package was live once every event below ``serial``
        had been applied: published before it, not removed before it."""
        return self.publish_serial < serial and (
            self.removal_serial is None or serial <= self.removal_serial
        )

    @property
    def persist_days(self) -> Optional[int]:
        """Days the package stayed live; None while still live."""
        if self.removal_day is None:
            return None
        return self.removal_day - self.release_day


class Registry:
    """The root registry of one ecosystem."""

    def __init__(self, ecosystem: str):
        self.ecosystem = ecosystem
        self._packages: Dict[Tuple[str, str], PublishedPackage] = {}
        self._names: Set[str] = set()
        self.events: List[RegistryEvent] = []

    # -- queries ------------------------------------------------------------
    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._packages

    def __len__(self) -> int:
        return len(self._packages)

    @property
    def serial(self) -> int:
        """Serial the next event will get; every event below it is applied."""
        return len(self.events)

    def find(self, name: str, version: str) -> Optional[PublishedPackage]:
        """The record for (name, version), live or removed; None if it was
        never published."""
        return self._packages.get((name, version))

    def get(self, name: str, version: str) -> PublishedPackage:
        """Return the record for (name, version), live or removed."""
        try:
            return self._packages[(name, version)]
        except KeyError:
            raise PackageNotFoundError(
                f"{self.ecosystem}:{name}@{version} was never published"
            ) from None

    def fetch(self, name: str, version: str) -> PackageArtifact:
        """Download the artifact; raises if removed (the root registry
        no longer serves removed packages — that is why mirrors matter)."""
        record = self.get(name, version)
        if not record.live:
            raise PackageRemovedError(
                f"{self.ecosystem}:{name}@{version} was removed on day "
                f"{record.removal_day}"
            )
        return record.artifact

    def name_taken(self, name: str) -> bool:
        """True if any version of ``name`` was ever published."""
        return name in self._names

    def live_packages(self) -> Iterable[PublishedPackage]:
        return (r for r in self._packages.values() if r.live)

    def all_packages(self) -> Iterable[PublishedPackage]:
        return self._packages.values()

    def live_snapshot(self) -> Dict[Tuple[str, str], PackageArtifact]:
        """Mapping of live (name, version) -> artifact: a copy of the live
        set as of now."""
        return {
            key: record.artifact
            for key, record in self._packages.items()
            if record.live
        }

    # -- life cycle -----------------------------------------------------------
    def publish(
        self, artifact: PackageArtifact, day: int, malicious: bool = False
    ) -> PublishedPackage:
        """Publish a new package version (Fig. 6 phase 2)."""
        if artifact.ecosystem != self.ecosystem:
            raise DuplicatePackageError(
                f"artifact ecosystem {artifact.ecosystem!r} does not match "
                f"registry {self.ecosystem!r}"
            )
        key = (artifact.name, artifact.version)
        if key in self._packages:
            raise DuplicatePackageError(
                f"{self.ecosystem}:{artifact.name}@{artifact.version} "
                "already published; removed packages cannot be re-published"
            )
        record = PublishedPackage(
            artifact=artifact, release_day=day, malicious=malicious
        )
        record.publish_serial = self.serial
        self._packages[key] = record
        self._names.add(artifact.name)
        self.events.append(RegistryEvent(EventKind.PUBLISH, artifact.id, day))
        return record

    def mark_detected(self, name: str, version: str, day: int, by: str = "") -> None:
        """Record the first detection of a package (Fig. 6 phase 3)."""
        record = self.get(name, version)
        if record.detection_day is None:
            record.detection_day = day
            self.events.append(
                RegistryEvent(EventKind.DETECT, record.artifact.id, day, detail=by)
            )

    def remove(self, name: str, version: str, day: int) -> None:
        """Remove a package (Fig. 6 phase 4). Idempotent per version."""
        record = self.get(name, version)
        if record.removal_day is not None:
            return
        record.removal_day = day
        record.removal_serial = self.serial
        self.events.append(RegistryEvent(EventKind.REMOVE, record.artifact.id, day))

    def record_downloads(self, name: str, version: str, count: int) -> None:
        """Add ``count`` downloads to a live package."""
        record = self.get(name, version)
        if record.live and count > 0:
            record.downloads += count


class RegistryHub:
    """All root registries of the simulated world, keyed by ecosystem."""

    def __init__(self, ecosystems: Iterable[str]):
        self._registries = {eco: Registry(eco) for eco in ecosystems}

    def __getitem__(self, ecosystem: str) -> Registry:
        try:
            return self._registries[ecosystem]
        except KeyError:
            raise PackageNotFoundError(f"unknown ecosystem {ecosystem!r}") from None

    def __iter__(self):
        return iter(self._registries.values())

    @property
    def ecosystems(self) -> List[str]:
        return list(self._registries)

    def lookup(self, package: PackageId) -> PublishedPackage:
        return self[package.ecosystem].get(package.name, package.version)

    def total_packages(self) -> int:
        return sum(len(reg) for reg in self)
