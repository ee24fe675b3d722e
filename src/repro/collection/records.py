"""Record model for the collected malware dataset.

The collection pipeline (Section II) produces one :class:`DatasetEntry`
per unique (ecosystem, name, version), merging every source that reported
it and recording where — if anywhere — the artifact was obtained. The
final :class:`MalwareDataset` is what MALGRAPH and every analysis consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ecosystem.package import PackageArtifact, PackageId
from repro.errors import DatasetError


@dataclass
class SourceClaim:
    """One source's report of one package."""

    source: str
    report_day: int
    shares_artifact: bool


@dataclass
class CollectedReport:
    """A security report as recovered by the crawler.

    ``packages`` holds the resolved dataset keys; unresolvable mentions
    (extraction noise) are kept separately for diagnostics.
    """

    report_id: str
    url: str
    site: str
    category: str
    source: str  # originating Table-I source key, or "echo"
    publish_day: Optional[int]
    packages: List[PackageId] = field(default_factory=list)
    unresolved: List[Tuple[str, str]] = field(default_factory=list)
    #: actor alias the write-up attributes the campaign to, if any
    actor_alias: Optional[str] = None


@dataclass
class DatasetEntry:
    """One unique malicious package in the final dataset."""

    package: PackageId
    claims: List[SourceClaim] = field(default_factory=list)
    artifact: Optional[PackageArtifact] = None
    artifact_origin: Optional[str] = None  # "source:<key>" | "mirror:<name>"
    release_day: Optional[int] = None
    removal_day: Optional[int] = None
    detection_day: Optional[int] = None
    downloads: int = 0
    # ground truth attached after collection, for validation only:
    campaign_id: Optional[str] = None
    actor: Optional[str] = None
    archetype: Optional[str] = None
    behavior_key: Optional[str] = None

    @property
    def sources(self) -> Set[str]:
        return {claim.source for claim in self.claims}

    @property
    def available(self) -> bool:
        return self.artifact is not None

    @property
    def first_report_day(self) -> int:
        if not self.claims:
            raise DatasetError(f"{self.package} has no source claims")
        return min(claim.report_day for claim in self.claims)

    def claimed_by(self, source: str) -> bool:
        return any(claim.source == source for claim in self.claims)

    def sha256(self) -> Optional[str]:
        # Memoised on the artifact itself, so the node/duplicated-edge/
        # embedding consumers share one canonicalisation pass per entry.
        return self.artifact.sha256() if self.artifact else None


@dataclass
class MalwareDataset:
    """The merged, provenance-tracked malware dataset."""

    entries: List[DatasetEntry]
    reports: List[CollectedReport]
    _by_key: Dict[PackageId, DatasetEntry] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._by_key:
            self._by_key = {entry.package: entry for entry in self.entries}
        if len(self._by_key) != len(self.entries):
            raise DatasetError("duplicate package keys in dataset entries")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def get(self, package: PackageId) -> Optional[DatasetEntry]:
        return self._by_key.get(package)

    # -- convenience views used across the analyses -----------------------
    def available_entries(self) -> List[DatasetEntry]:
        return [e for e in self.entries if e.available]

    def unavailable_entries(self) -> List[DatasetEntry]:
        return [e for e in self.entries if not e.available]

    def for_ecosystem(self, ecosystem: str) -> List[DatasetEntry]:
        return [e for e in self.entries if e.package.ecosystem == ecosystem]

    def entries_by_source(self) -> Dict[str, List[DatasetEntry]]:
        """Source key -> the entries it claims, in entry order.

        One pass over the entries; an entry is listed once under each
        distinct source among its claims.
        """
        grouped: Dict[str, List[DatasetEntry]] = {}
        for entry in self.entries:
            for source in entry.sources:
                grouped.setdefault(source, []).append(entry)
        return grouped

    def entries_of_source(self, source: str) -> List[DatasetEntry]:
        return self.entries_by_source().get(source, [])

    def source_keys(self) -> List[str]:
        keys: Set[str] = set()
        for entry in self.entries:
            keys.update(entry.sources)
        return sorted(keys)

    def name_index(self) -> Dict[Tuple[str, str], List[DatasetEntry]]:
        """(ecosystem, name) -> entries; used by the DeG edge builder."""
        index: Dict[Tuple[str, str], List[DatasetEntry]] = {}
        for entry in self.entries:
            index.setdefault(
                (entry.package.ecosystem, entry.package.name), []
            ).append(entry)
        return index

    # -- cheap key views ---------------------------------------------------
    # Merge, diff and the delta engine scan membership through these.
    def package_keys(self) -> List[PackageId]:
        """Entry keys in entry order."""
        return [entry.package for entry in self.entries]

    def report_ids(self) -> List[str]:
        """Report ids in report order (duplicates preserved)."""
        return [report.report_id for report in self.reports]
