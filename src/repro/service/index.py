"""Inverted indexes over MALGRAPH for O(1) indicator lookup.

The offline graph answers "what is related to package X" by walking
edges; a serving layer cannot afford a walk per request. The
:class:`IntelIndex` is built in one pass over the dataset and the
report actors, and afterwards resolves every indicator shape the
enrichment API accepts — name, name+version, SHA256 signature,
ecosystem, actor alias — with dictionary lookups.

Families, campaigns and neighbours are not indexed here: the index holds
MALGRAPH's enriched query-index snapshot
(:meth:`~repro.core.malgraph.MalGraph.query_indexes`), whose DG/DeG/SG/CG
group maps and neighbour tuples are immutable, so one generation answers
from one point in time while the next refresh evolves the graph.

The index stores :class:`~repro.ecosystem.package.PackageId` keys only
and resolves entries through the live dataset reference, which is what
lets :mod:`repro.service.refresh` swap in the evolved dataset and index
the delta without rebuilding anything.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.collection.records import CollectedReport, DatasetEntry, MalwareDataset
from repro.core.edges import node_id
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.query.indexes import GraphIndexes
from repro.detection.typosquat import _normalize, damerau_levenshtein
from repro.intel.sources import SOURCE_INDEX, Sector, SourceProfile

#: Group kinds read as malware families vs attack campaigns (Section IV:
#: DG/SG groups recover families, DeG/CG groups recover campaigns).
FAMILY_KINDS = (GroupKind.DG, GroupKind.SG)
CAMPAIGN_KINDS = (GroupKind.DEG, GroupKind.CG)

#: group ids are ``{kind}-{i:04d}``, so the kind is the id's prefix
_FAMILY_PREFIXES = tuple(f"{kind.value}-" for kind in FAMILY_KINDS)
_CAMPAIGN_PREFIXES = tuple(f"{kind.value}-" for kind in CAMPAIGN_KINDS)

#: Sector base weight of :func:`source_reliability` — primary detectors
#: (industry) rank above retrospective aggregators (academia) above
#: individual blogs/SNS.
_SECTOR_RELIABILITY = {
    Sector.INDUSTRY: 0.80,
    Sector.ACADEMIA: 0.65,
    Sector.INDIVIDUAL: 0.40,
}


def source_reliability(profile: SourceProfile) -> float:
    """Deterministic reliability score in (0, 1) for a source profile.

    Sector sets the base; sharing artifacts (verifiable claims) and a
    live update cadence each add a bonus.
    """
    score = _SECTOR_RELIABILITY[profile.sector]
    score += 0.15 * profile.share_artifacts
    if profile.update_interval_days and profile.update_interval_days <= 90:
        score += 0.04
    return round(min(score, 0.99), 4)


def _deletion_variants(norm: str) -> Set[str]:
    """The name plus every single-character deletion of it.

    Two names within Damerau-Levenshtein distance 1 always share a
    variant (SymSpell's observation), so intersecting variant sets turns
    the near-miss scan into a handful of dict hits.
    """
    variants = {norm}
    for i in range(len(norm)):
        variants.add(norm[:i] + norm[i + 1 :])
    return variants


class IntelIndex:
    """One-pass inverted indexes over a built :class:`MalGraph`."""

    def __init__(self, dataset: MalwareDataset):
        self.dataset = dataset
        #: MALGRAPH's enriched query indexes as of this index's
        #: generation: the group and neighbour table (see replace_groups)
        self.indexes: Optional[GraphIndexes] = None
        self._by_name: Dict[str, List] = {}  # lowercase name -> [PackageId]
        self._by_sha: Dict[str, List] = {}
        self._by_ecosystem: Dict[str, List] = {}
        self._actors_of: Dict[object, List[str]] = {}
        self._actor_packages: Dict[str, List] = {}  # lowercase alias -> ids
        self._actor_label: Dict[str, str] = {}
        self._norm_names: Dict[str, Set[str]] = {}  # normalized -> lowercase names
        self._deletions: Dict[str, Set[str]] = {}  # variant -> normalized names
        self._indexed_reports: Set[str] = set()
        #: advanced once per applied refresh/delta batch; 0 = cold build
        self.epoch = 0
        #: wall-clock time of the last applied batch (None = never)
        self.last_delta_at: Optional[float] = None

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, malgraph: MalGraph) -> "IntelIndex":
        """Index a built graph: entries, groups and report actors."""
        index = cls(malgraph.dataset)
        for entry in malgraph.dataset.entries:
            index.add_entry(entry)
        index.replace_groups(malgraph)
        for report in malgraph.dataset.reports:
            index.add_report(report)
        return index

    def clone(self) -> "IntelIndex":
        """An independent copy sharing only the immutable leaves.

        The snapshot-swap refresh (:mod:`repro.service.refresh`) applies
        a delta to a clone while lock-free readers keep resolving
        against the original, then publishes the clone atomically. Every
        mutable container (the bucket dicts and their lists/sets) is
        copied one level deep — entries, package ids and reports are
        value objects shared by reference; the dataset and the immutable
        query-index snapshot carry over and are replaced by the refresh
        itself.
        """
        other = IntelIndex(self.dataset)
        other.indexes = self.indexes
        other._by_name = {k: list(v) for k, v in self._by_name.items()}
        other._by_sha = {k: list(v) for k, v in self._by_sha.items()}
        other._by_ecosystem = {k: list(v) for k, v in self._by_ecosystem.items()}
        other._actors_of = {k: list(v) for k, v in self._actors_of.items()}
        other._actor_packages = {k: list(v) for k, v in self._actor_packages.items()}
        other._actor_label = dict(self._actor_label)
        other._norm_names = {k: set(v) for k, v in self._norm_names.items()}
        other._deletions = {k: set(v) for k, v in self._deletions.items()}
        other._indexed_reports = set(self._indexed_reports)
        other.epoch = self.epoch
        other.last_delta_at = self.last_delta_at
        return other

    def add_entry(self, entry: DatasetEntry) -> None:
        """Register one package in every per-entry index (idempotent)."""
        pid = entry.package
        name = pid.name.lower()
        bucket = self._by_name.setdefault(name, [])
        if pid not in bucket:
            bucket.append(pid)
        eco_bucket = self._by_ecosystem.setdefault(pid.ecosystem, [])
        if pid not in eco_bucket:
            eco_bucket.append(pid)
        self.register_sha(entry)
        norm = _normalize(pid.name)
        if norm:
            self._norm_names.setdefault(norm, set()).add(name)
            for variant in _deletion_variants(norm):
                self._deletions.setdefault(variant, set()).add(norm)

    def register_sha(self, entry: DatasetEntry) -> None:
        """(Re-)index an entry's SHA256 (used when an artifact appears)."""
        sha = entry.sha256()
        if sha is None:
            return
        bucket = self._by_sha.setdefault(sha, [])
        if entry.package not in bucket:
            bucket.append(entry.package)

    def unregister_sha(self, sha256: Optional[str], pid) -> None:
        """Drop one package from a signature bucket (artifact replaced
        or package removed)."""
        if sha256 is None:
            return
        bucket = self._by_sha.get(sha256)
        if bucket is not None and pid in bucket:
            bucket.remove(pid)
            if not bucket:
                del self._by_sha[sha256]

    def remove_entry(self, entry: DatasetEntry) -> None:
        """Unregister one package from every per-entry index.

        ``entry`` must be the entry as last indexed (its SHA256 locates
        the signature bucket to leave).
        """
        pid = entry.package
        name = pid.name.lower()
        bucket = self._by_name.get(name)
        if bucket is not None and pid in bucket:
            bucket.remove(pid)
            if not bucket:
                del self._by_name[name]
        eco_bucket = self._by_ecosystem.get(pid.ecosystem)
        if eco_bucket is not None and pid in eco_bucket:
            eco_bucket.remove(pid)
            if not eco_bucket:
                del self._by_ecosystem[pid.ecosystem]
        self.unregister_sha(entry.sha256(), pid)
        for alias in self._actors_of.pop(pid, []):
            alias_bucket = self._actor_packages.get(alias.lower())
            if alias_bucket is not None and pid in alias_bucket:
                alias_bucket.remove(pid)
        # the typo-squat neighbourhood tracks *names*; only an orphaned
        # name leaves it
        if name not in self._by_name:
            norm = _normalize(pid.name)
            held = self._norm_names.get(norm)
            if held is not None:
                held.discard(name)
                if not held:
                    del self._norm_names[norm]
                    for variant in _deletion_variants(norm):
                        variants = self._deletions.get(variant)
                        if variants is not None:
                            variants.discard(norm)
                            if not variants:
                                del self._deletions[variant]

    def replace_groups(self, malgraph: MalGraph) -> None:
        """Install ``malgraph``'s enriched query indexes as this index's
        group and neighbour table.

        The snapshot carries MALGRAPH's exact DG/DeG/SG/CG groups under
        ``{kind}-{i:04d}`` ids and every node's neighbours. After a
        delta batch the graph derives it copy-on-write from the batch's
        index patch, and the snapshot an older generation holds never
        changes.
        """
        self.indexes = malgraph.query_indexes()

    def add_report(self, report: CollectedReport) -> None:
        """Index a report's actor alias over its resolved packages."""
        if report.report_id in self._indexed_reports:
            return
        self._indexed_reports.add(report.report_id)
        if not report.actor_alias:
            return
        alias_key = report.actor_alias.lower()
        self._actor_label.setdefault(alias_key, report.actor_alias)
        bucket = self._actor_packages.setdefault(alias_key, [])
        for pid in report.packages:
            if self.dataset.get(pid) is None:
                continue
            if pid not in bucket:
                bucket.append(pid)
            aliases = self._actors_of.setdefault(pid, [])
            if report.actor_alias not in aliases:
                aliases.append(report.actor_alias)

    # -- lookups ----------------------------------------------------------
    def entries(self, pids: Iterable) -> List[DatasetEntry]:
        found = (self.dataset.get(pid) for pid in pids)
        return [e for e in found if e is not None]

    def lookup_sha256(self, sha256: str) -> List[DatasetEntry]:
        return self.entries(self._by_sha.get(sha256.lower(), ()))

    def lookup_name(
        self, name: str, ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        pids = self._by_name.get(name.lower(), ())
        if ecosystem:
            pids = [p for p in pids if p.ecosystem == ecosystem]
        return self.entries(pids)

    def lookup_name_version(
        self, name: str, version: str, ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        return [
            e
            for e in self.lookup_name(name, ecosystem)
            if e.package.version == version
        ]

    def lookup_ecosystem(self, ecosystem: str) -> List[DatasetEntry]:
        return self.entries(self._by_ecosystem.get(ecosystem, ()))

    def lookup_actor(self, alias: str) -> List[DatasetEntry]:
        return self.entries(self._actor_packages.get(alias.lower(), ()))

    def groups_of(self, pid) -> List[str]:
        return list(self.indexes.groups_of.get(node_id(pid), ()))

    def families_of(self, pid) -> List[str]:
        return [g for g in self.groups_of(pid) if g.startswith(_FAMILY_PREFIXES)]

    def campaigns_of(self, pid) -> List[str]:
        return [g for g in self.groups_of(pid) if g.startswith(_CAMPAIGN_PREFIXES)]

    def actors_of(self, pid) -> List[str]:
        return list(self._actors_of.get(pid, ()))

    def actor_aliases(self) -> List[str]:
        return sorted(self._actor_label.values())

    def related(self, pid, limit: int = 25) -> List[str]:
        """Graph-neighbour node ids across every edge type (capped)."""
        nid = node_id(pid)
        # neighbors() over every type is already sorted and distinct
        return [n for n in self.indexes.neighbors(nid) if n != nid][:limit]

    def near_names(
        self, name: str, ecosystem: Optional[str] = None, max_distance: int = 2
    ) -> List[Tuple[str, int]]:
        """Known malicious names within a small edit distance of ``name``.

        Candidates come from the single-deletion neighbourhood (complete
        for distance <= 1, partial beyond), then the true
        Damerau-Levenshtein distance filters them. Exact matches are the
        caller's job and are excluded here.
        """
        norm = _normalize(name)
        if not norm:
            return []
        candidates: Set[str] = set()
        for variant in _deletion_variants(norm):
            candidates.update(self._deletions.get(variant, ()))
        candidates.discard(norm)
        hits: List[Tuple[str, int]] = []
        for candidate in candidates:
            distance = damerau_levenshtein(norm, candidate, cap=max_distance + 1)
            if distance > max_distance:
                continue
            for held_name in self._norm_names[candidate]:
                if ecosystem and not any(
                    p.ecosystem == ecosystem for p in self._by_name.get(held_name, ())
                ):
                    continue
                hits.append((held_name, distance))
        hits.sort(key=lambda pair: (pair[1], pair[0]))
        return hits

    # -- provenance -------------------------------------------------------
    def source_profiles(self, entries: Sequence[DatasetEntry]) -> List[Dict]:
        """Source provenance of a match set, best reliability first."""
        keys: Set[str] = set()
        for entry in entries:
            keys.update(entry.sources)
        rows = []
        for key in keys:
            profile = SOURCE_INDEX.get(key)
            if profile is None:
                rows.append({"key": key, "label": key, "sector": None, "reliability": 0.25})
                continue
            rows.append(
                {
                    "key": profile.key,
                    "label": profile.label,
                    "sector": profile.sector.value,
                    "reliability": source_reliability(profile),
                }
            )
        rows.sort(key=lambda r: (-r["reliability"], r["key"]))
        return rows

    # -- introspection ----------------------------------------------------
    @property
    def package_count(self) -> int:
        return len(self.dataset)

    def stats(self) -> Dict[str, object]:
        """Index-shape counters for the ``/v1/stats`` endpoint."""
        return {
            "packages": len(self.dataset),
            "names": len(self._by_name),
            "signatures": len(self._by_sha),
            "ecosystems": len(self._by_ecosystem),
            "groups": len(self.indexes.group_members),
            "actors": len(self._actor_packages),
            "reports": len(self._indexed_reports),
            "epoch": self.epoch,
            "last_delta_at": self.last_delta_at,
        }
