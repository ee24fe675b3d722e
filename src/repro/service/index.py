"""One snapshot index over MALGRAPH for O(1) indicator lookup.

The offline graph answers "what is related to package X" by walking
edges; a serving layer cannot afford a walk per request. An
:class:`IntelIndex` generation resolves every indicator shape the
enrichment API accepts — name, name+version, SHA256 signature — with
dictionary lookups into MALGRAPH's enriched query-index snapshot
(:meth:`~repro.core.malgraph.MalGraph.query_indexes`): its inverted
name/SHA256/ecosystem keys, DG/DeG/SG/CG group maps and neighbour
tuples are immutable, so one generation answers from one point in time
while the next refresh evolves the graph.

Beside that snapshot the index keeps two tables of its own: the name
neighbourhood (normalized name -> stored names, deletion variant ->
normalized names), which answers case-insensitive exact names and
typo-squat near misses, and each package's report actor aliases. Both
are immutable once published: :meth:`IntelIndex.next_generation`
derives the next generation copy-on-write from the batch's final state
(the names its added or removed packages carry and the reports it
appended): it rebuilds only the buckets the batch touched and replays
no event.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.collection.records import CollectedReport, DatasetEntry, MalwareDataset
from repro.core.edges import node_id
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.core.query.indexes import GraphIndexes
from repro.detection.typosquat import (
    _normalize,
    damerau_levenshtein,
    deletion_variants,
)
from repro.ecosystem.package import PackageId
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

#: Deletion depth of the name neighbourhood: complete for near names at
#: edit distance 1 (see :func:`~repro.detection.typosquat.deletion_variants`).
#: At seed 7, scale 1, depth 1 holds 26,184 keys and depth 2 would hold
#: 136,226, in a table every refresh copies.
NEAR_DEPTH = 1


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


class IntelIndex:
    """One generation's indicator index over a built :class:`MalGraph`."""

    def __init__(self, dataset: MalwareDataset):
        self.dataset = dataset
        #: MALGRAPH's enriched query indexes as of this generation: the
        #: name/SHA256/ecosystem keys, groups and neighbours
        #: (see replace_groups)
        self.indexes: Optional[GraphIndexes] = None
        #: normalized name -> stored names, and deletion variant ->
        #: normalized names (see _index_names)
        self._norm_names: Dict[str, Tuple[str, ...]] = {}
        self._deletions: Dict[str, Tuple[str, ...]] = {}
        #: package id -> report actor aliases, in report order
        self._actors_of: Dict[PackageId, Tuple[str, ...]] = {}
        #: advanced once per applied refresh/delta batch; 0 = cold build
        self.epoch = 0
        #: wall-clock time of the last applied batch (None = never)
        self.last_delta_at: Optional[float] = None

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, malgraph: MalGraph) -> "IntelIndex":
        """Index a built graph: its query indexes, names and report actors."""
        index = cls(malgraph.dataset)
        index.replace_groups(malgraph)
        index._index_names(index.indexes.by_attr.get("name", ()))
        index._index_reports(malgraph.dataset.reports)
        return index

    def clone(self) -> "IntelIndex":
        """A copy sharing every table with this one.

        Tables are immutable once built, so the copy is independent:
        :meth:`next_generation` replaces the tables it changes.
        """
        return copy.copy(self)

    def next_generation(
        self, malgraph: MalGraph, names: Iterable[str]
    ) -> "IntelIndex":
        """The generation serving ``malgraph`` after one delta batch.

        ``malgraph`` is this generation's graph with the batch applied,
        and ``names`` are the names the batch's added or removed packages
        carry. The name neighbourhood is re-derived for ``names`` only
        and the reports the batch appended attach their aliases; nothing
        is replayed, and this generation keeps answering as before.
        """
        index = self.clone()
        index.dataset = malgraph.dataset
        index.replace_groups(malgraph)
        index._index_names(names)
        index._index_reports(malgraph.dataset.reports[len(self.dataset.reports) :])
        index.epoch = self.epoch + 1
        index.last_delta_at = time.time()
        return index

    def replace_groups(self, malgraph: MalGraph) -> None:
        """Install ``malgraph``'s enriched query indexes as this index's
        key, group and neighbour table.

        The snapshot carries every node's name, SHA256 and ecosystem
        keys, MALGRAPH's exact DG/DeG/SG/CG groups under
        ``{kind}-{i:04d}`` ids and every node's neighbours. After a
        delta batch the graph derives it copy-on-write from the batch's
        index patch, and the snapshot an older generation holds never
        changes.
        """
        self.indexes = malgraph.query_indexes()

    def _index_names(self, names: Iterable[str]) -> None:
        """Hold each of ``names`` in the name neighbourhood while some
        node of :attr:`indexes` carries it.

        Changed buckets go into copies of the tables, so the tables an
        earlier generation holds never change.
        """
        norm_names = dict(self._norm_names)
        deletions = None
        for name in names:
            norm = _normalize(name)
            held = norm_names.get(norm, ())
            live = bool(self.indexes.lookup("name", name))
            if live == (name in held):
                continue
            now = held + (name,) if live else tuple(n for n in held if n != name)
            if now:
                norm_names[norm] = now
            else:
                del norm_names[norm]
            # an empty normalization has no neighbourhood to join
            if not norm or bool(now) == bool(held):
                continue
            if deletions is None:
                deletions = dict(self._deletions)
            for variant in deletion_variants(norm, NEAR_DEPTH):
                norms = deletions.get(variant, ())
                norms = norms + (norm,) if now else tuple(n for n in norms if n != norm)
                if norms:
                    deletions[variant] = norms
                else:
                    del deletions[variant]
        self._norm_names = norm_names
        if deletions is not None:
            self._deletions = deletions

    def _index_reports(self, reports: Iterable[CollectedReport]) -> None:
        """Attach each report's actor alias to every package it names.

        Packages not (or no longer) in the dataset keep the alias too, so
        it shows again once they are published; :meth:`actors_of` reads
        only packages of this generation's dataset.
        """
        actors = None
        for report in reports:
            alias = report.actor_alias
            if not alias:
                continue
            if actors is None:
                actors = dict(self._actors_of)
            for pid in report.packages:
                held = actors.get(pid, ())
                if alias not in held:
                    actors[pid] = held + (alias,)
        if actors is not None:
            self._actors_of = actors

    # -- lookups ----------------------------------------------------------
    def _entries(
        self, nodes: Iterable[str], ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        """Dataset entries of graph nodes (optionally one ecosystem's)."""
        found = []
        for node in nodes:
            held = self.indexes.attrs[node]
            if not ecosystem or held["ecosystem"] == ecosystem:
                pid = PackageId(held["ecosystem"], held["name"], held["version"])
                found.append(self.dataset.get(pid))
        return found

    def lookup_sha256(self, sha256: str) -> List[DatasetEntry]:
        return self._entries(self.indexes.lookup("sha256", sha256.lower()))

    def lookup_name(
        self, name: str, ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        """Entries whose name equals ``name`` up to case."""
        lowered = name.lower()
        found = []
        for held in self._norm_names.get(_normalize(name), ()):
            if held.lower() == lowered:
                found.extend(self._entries(self.indexes.lookup("name", held), ecosystem))
        return found

    def lookup_name_version(
        self, name: str, version: str, ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        return [
            e
            for e in self.lookup_name(name, ecosystem)
            if e.package.version == version
        ]

    def groups_of(self, pid) -> List[str]:
        return list(self.indexes.groups_of.get(node_id(pid), ()))

    def families_of(self, pid) -> List[str]:
        return [g for g in self.groups_of(pid) if g.startswith(_FAMILY_PREFIXES)]

    def campaigns_of(self, pid) -> List[str]:
        return [g for g in self.groups_of(pid) if g.startswith(_CAMPAIGN_PREFIXES)]

    def actors_of(self, pid) -> List[str]:
        if self.dataset.get(pid) is None:
            return []
        return list(self._actors_of.get(pid, ()))

    def related(self, pid, limit: int = 25) -> List[str]:
        """The first ``limit`` graph-neighbour node ids across every edge
        type, in sorted order (only those are merged)."""
        return self.indexes.neighbors(node_id(pid), limit=limit)

    def near_names(
        self, name: str, ecosystem: Optional[str] = None, max_distance: int = 2
    ) -> List[Tuple[str, int]]:
        """Known malicious names (lowercase) within a small edit distance
        of ``name``.

        Candidates come from the single-deletion neighbourhood
        (:data:`NEAR_DEPTH`: complete for distance <= 1, partial beyond),
        then the banded Damerau-Levenshtein kernel filters them. Exact
        matches are the caller's job and are excluded here.
        """
        norm = _normalize(name)
        if not norm:
            return []
        candidates: Set[str] = set()
        for variant in deletion_variants(norm, NEAR_DEPTH):
            candidates.update(self._deletions.get(variant, ()))
        candidates.discard(norm)
        attrs = self.indexes.attrs
        hits: Set[Tuple[str, int]] = set()
        for candidate in candidates:
            distance = damerau_levenshtein(norm, candidate, cap=max_distance + 1)
            if distance > max_distance:
                continue
            for held_name in self._norm_names[candidate]:
                if ecosystem and not any(
                    attrs[node]["ecosystem"] == ecosystem
                    for node in self.indexes.lookup("name", held_name)
                ):
                    continue
                hits.add((held_name.lower(), distance))
        return sorted(hits, key=lambda pair: (pair[1], pair[0]))

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
        """Index-shape counters for the ``/v1/stats`` endpoint.

        ``names`` counts names, and ``actors`` report aliases, up to case.
        """
        keys = self.indexes.by_attr
        reports = self.dataset.reports
        return {
            "packages": len(self.dataset),
            "names": len({name.lower() for name in keys.get("name", ())}),
            "signatures": len(keys.get("sha256", ())),
            "ecosystems": len(keys.get("ecosystem", ())),
            "groups": len(self.indexes.group_members),
            "actors": len({r.actor_alias.lower() for r in reports if r.actor_alias}),
            "reports": len(reports),
            "epoch": self.epoch,
            "last_delta_at": self.last_delta_at,
        }
