"""Mirror registries.

Section II-C of the paper recovers removed malicious packages from mirror
registries (5 NPM + 12 PyPI + 6 RubyGems mirrors) because mirrors are not
synced with the root registry in real time. Two mirror behaviours exist in
the wild and both are modelled here:

* **lagging** mirrors take the root's *live* set every ``sync_interval``
  days. A removed package survives on such a mirror only until the next
  sync after its removal.
* **archival** (append-only caching) mirrors add whatever is live at each
  sync but never process deletions — a package captured once is
  recoverable forever. Archival mirrors only exist from ``start_day``
  onwards (mirror services came online over the years).

A mirror copies nothing. Like a PyPI mirror following the changelog, it
records the registry serial it synced up to (see
:mod:`repro.ecosystem.registry`): a lagging mirror keeps its last sync
serial, an archival mirror keeps every one. A lookup answers from the
registry's own record, whose publish and removal serials say whether it
was live at a kept serial — for an archival mirror, at the first sync
after its publication, found by bisection. Each sync is O(1).

Together these reproduce the two unavailability causes of Fig. 5:

1. *released too early* — before any archival mirror was operating (or all
   lagging mirrors have since re-synced);
2. *persisted too briefly* — removed before the next sync tick, so no
   mirror ever captured it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.ecosystem.package import PackageArtifact
from repro.ecosystem.registry import PublishedPackage, Registry


@dataclass
class MirrorRegistry:
    """One mirror of one ecosystem's root registry."""

    name: str
    upstream: Registry
    sync_interval: int
    start_day: int = 0
    phase: int = 0
    archival: bool = False
    last_sync_day: Optional[int] = None
    #: registry serials synced to: the last one (lagging) or all (archival)
    _sync_serials: List[int] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sync_interval <= 0:
            raise ConfigError(
                f"mirror {self.name!r}: sync_interval must be positive, "
                f"got {self.sync_interval}"
            )

    @property
    def ecosystem(self) -> str:
        return self.upstream.ecosystem

    def due(self, day: int) -> bool:
        """True when a sync is scheduled for ``day``."""
        if day < self.start_day:
            return False
        return (day - self.phase) % self.sync_interval == 0

    def sync(self, day: int) -> None:
        """Catch up with every upstream event applied so far."""
        serial = self.upstream.serial
        if self.archival:
            self._sync_serials.append(serial)
        else:
            self._sync_serials = [serial]
        self.last_sync_day = day

    def maybe_sync(self, day: int) -> bool:
        """Sync if due; returns True when a sync happened."""
        if self.due(day):
            self.sync(day)
            return True
        return False

    def _holds(self, record: PublishedPackage) -> bool:
        """True if some kept sync saw ``record`` live. Checking the first
        sync after its publication suffices: a removal before that sync
        precedes every later one too."""
        serials = self._sync_serials
        first = bisect_right(serials, record.publish_serial)
        return first < len(serials) and record.live_at(serials[first])

    def lookup(self, name: str, version: str) -> Optional[PackageArtifact]:
        """Return the mirrored artifact, or None if this mirror lacks it."""
        record = self.upstream.find(name, version)
        if record is None or not self._holds(record):
            return None
        return record.artifact

    def __len__(self) -> int:
        return sum(
            1 for record in self.upstream.all_packages() if self._holds(record)
        )


class MirrorNetwork:
    """All mirrors of the simulated world, searched in declaration order."""

    def __init__(self, mirrors: Iterable[MirrorRegistry] = ()):
        self._mirrors: List[MirrorRegistry] = []
        self._fleets: Dict[str, Tuple[MirrorRegistry, ...]] = {}
        for mirror in mirrors:
            self.add(mirror)

    def add(self, mirror: MirrorRegistry) -> None:
        self._mirrors.append(mirror)
        fleet = self._fleets.get(mirror.ecosystem, ())
        self._fleets[mirror.ecosystem] = fleet + (mirror,)

    def __iter__(self):
        return iter(self._mirrors)

    def __len__(self) -> int:
        return len(self._mirrors)

    def for_ecosystem(self, ecosystem: str) -> Tuple[MirrorRegistry, ...]:
        """The ecosystem's mirrors in declaration order."""
        return self._fleets.get(ecosystem, ())

    def tick(self, day: int) -> int:
        """Run all due syncs for ``day``; returns number of syncs."""
        return sum(1 for m in self._mirrors if m.maybe_sync(day))

    def probe(
        self, mirror: MirrorRegistry, name: str, version: str
    ) -> Optional[PackageArtifact]:
        """Consult one mirror for (name, version).

        Seam for :class:`repro.reliability.FaultyMirrorNetwork`, which
        overrides this to model a mirror being down for a sync window.
        """
        return mirror.lookup(name, version)

    def search(
        self, ecosystem: str, name: str, version: str
    ) -> Optional[Tuple[str, PackageArtifact]]:
        """Search every mirror of ``ecosystem`` for (name, version).

        Returns ``(mirror_name, artifact)`` from the first mirror that has
        it, mimicking the paper's sequential mirror lookups.
        """
        for mirror in self.for_ecosystem(ecosystem):
            artifact = self.probe(mirror, name, version)
            if artifact is not None:
                return mirror.name, artifact
        return None


#: Mirror fleet shapes matching Section II-C ("5 NPM mirrors, 12 PyPI
#: mirrors, and 6 RubyGems mirrors"). Each entry is
#: (mirror-name, sync_interval_days, start_day, archival).
DEFAULT_MIRROR_PLANS: Dict[str, List[Tuple[str, int, int, bool]]] = {
    "npm": [
        ("npm-taobao", 1, 0, False),
        ("npm-cnpm", 2, 0, False),
        ("npm-aliyun", 3, 365, False),
        ("npm-ustc", 7, 1095, False),
        ("npm-huawei", 90, 1856, True),
    ],
    "pypi": [
        ("pypi-tuna", 1, 0, False),
        ("pypi-aliyun", 1, 0, False),
        ("pypi-douban", 2, 0, False),
        ("pypi-ustc", 3, 0, False),
        ("pypi-tencent", 3, 365, False),
        ("pypi-huawei", 5, 365, False),
        ("pypi-bfsu", 7, 730, False),
        ("pypi-netease", 7, 1095, False),
        ("pypi-sustech", 10, 1460, False),
        ("pypi-rstudio", 14, 1460, False),
        ("pypi-unpad", 90, 1826, True),
        ("pypi-kakao", 120, 1900, True),
    ],
    "rubygems": [
        ("gems-taobao", 2, 0, False),
        ("gems-tuna", 3, 0, False),
        ("gems-hust", 7, 730, False),
        ("gems-aliyun", 7, 1095, False),
        ("gems-sysu", 14, 1460, False),
        ("gems-sdut", 120, 1900, True),
    ],
}


def build_default_mirrors(registries: Dict[str, Registry]) -> MirrorNetwork:
    """Create the default mirror fleet for the given root registries."""
    network = MirrorNetwork()
    for ecosystem, plans in DEFAULT_MIRROR_PLANS.items():
        registry = registries.get(ecosystem)
        if registry is None:
            continue
        for idx, (name, interval, start, archival) in enumerate(plans):
            network.add(
                MirrorRegistry(
                    name=name,
                    upstream=registry,
                    sync_interval=interval,
                    start_day=start,
                    phase=idx % max(interval, 1),
                    archival=archival,
                )
            )
    return network
