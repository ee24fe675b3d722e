"""Indicator enrichment: the service's core request/response shapes.

An :class:`Indicator` is whatever a client knows about a package — a
name, a name@version coordinate, a SHA256 signature, optionally pinned
to an ecosystem. The :class:`EnrichmentEngine` resolves it against the
:class:`~repro.service.index.IntelIndex` and answers with a structured
:class:`EnrichmentResult`:

* **malicious** — the indicator matches collected packages exactly (by
  signature, coordinate or name); families, campaigns, actors, related
  indicators and source provenance are aggregated over the matches;
* **suspicious** — no exact match, but the name typosquats a popular
  package (:class:`~repro.detection.typosquat.TyposquatIndex`) or sits
  within a small edit distance of a known malicious name;
* **unknown** — nothing links the indicator to the corpus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collection.records import DatasetEntry
from repro.core.edges import node_id
from repro.detection.typosquat import TyposquatIndex
from repro.errors import ValidationError
from repro.service.index import IntelIndex

VERDICT_MALICIOUS = "malicious"
VERDICT_SUSPICIOUS = "suspicious"
VERDICT_UNKNOWN = "unknown"

#: Edit distance within which an unmatched name is near a known
#: malicious name (a ``near-known`` suspicious verdict).
NEAR_DISTANCE = 2
#: Cap on the related indicators one verdict lists.
RELATED_LIMIT = 25


@dataclass(frozen=True)
class Indicator:
    """One enrichment request: any subset of the fields may be set."""

    name: Optional[str] = None
    version: Optional[str] = None
    sha256: Optional[str] = None
    ecosystem: Optional[str] = None

    def key(self) -> Tuple[str, str, str, str]:
        """Normalised cache key (case-insensitive name and signature)."""
        return (
            (self.name or "").lower(),
            self.version or "",
            (self.sha256 or "").lower(),
            self.ecosystem or "",
        )

    @property
    def is_empty(self) -> bool:
        return not (self.name or self.sha256)

    @classmethod
    def from_dict(cls, raw: Dict) -> "Indicator":
        """Validated construction from an untrusted request payload.

        Raises :class:`~repro.errors.ValidationError` when ``raw`` is
        not a mapping or a provided field is not a string — an integer
        ``name`` would otherwise survive construction and crash in
        :meth:`key` mid-request. Numeric ``version`` values (a common
        client slip: JSON ``1.0`` for ``"1.0"``) are coerced to strings.
        """
        if not isinstance(raw, dict):
            raise ValidationError(
                f"indicator must be an object, got {type(raw).__name__}"
            )
        fields = {}
        for field_name in ("name", "version", "sha256", "ecosystem"):
            value = raw.get(field_name)
            if value is None:
                continue
            if (
                field_name == "version"
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                value = str(value)
            if not isinstance(value, str):
                raise ValidationError(
                    f"{field_name} must be a string, "
                    f"got {type(value).__name__}"
                )
            fields[field_name] = value
        return cls(**fields)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "version": self.version,
            "sha256": self.sha256,
            "ecosystem": self.ecosystem,
        }


@dataclass
class EnrichmentResult:
    """The service's answer for one indicator."""

    indicator: Indicator
    verdict: str
    matches: List[str] = field(default_factory=list)
    families: List[str] = field(default_factory=list)
    campaigns: List[str] = field(default_factory=list)
    actors: List[str] = field(default_factory=list)
    related: List[str] = field(default_factory=list)
    sources: List[Dict] = field(default_factory=list)
    first_seen_day: Optional[int] = None
    last_seen_day: Optional[int] = None
    squat: Optional[Dict] = None

    @property
    def confidence(self) -> float:
        """Best source reliability backing the verdict (0 if unsourced)."""
        return max((row["reliability"] for row in self.sources), default=0.0)

    def to_dict(self) -> Dict:
        return {
            "indicator": self.indicator.to_dict(),
            "verdict": self.verdict,
            "confidence": self.confidence,
            "matches": list(self.matches),
            "families": list(self.families),
            "campaigns": list(self.campaigns),
            "actors": list(self.actors),
            "related": list(self.related),
            "sources": [dict(row) for row in self.sources],
            "first_seen_day": self.first_seen_day,
            "last_seen_day": self.last_seen_day,
            "squat": dict(self.squat) if self.squat else None,
        }


def _seen_window(entries: Sequence[DatasetEntry]) -> Tuple[Optional[int], Optional[int]]:
    """(first, last) day any source or registry event saw the matches."""
    days: List[int] = []
    for entry in entries:
        if entry.release_day is not None:
            days.append(entry.release_day)
        days.extend(claim.report_day for claim in entry.claims)
        for day in (entry.detection_day, entry.removal_day):
            if day is not None:
                days.append(day)
    if not days:
        return None, None
    return min(days), max(days)


@functools.lru_cache(maxsize=None)
def _shared_squat_index() -> TyposquatIndex:
    """The popular-name index of the typosquat check.

    It is read-only, so one instance serves every engine of every
    published generation. It is built on first use: ``import repro``
    loads this module, and a process that never enriches builds no
    table.
    """
    return TyposquatIndex()


class EnrichmentEngine:
    """Resolves indicators against the index (no caching here)."""

    def __init__(
        self, index: IntelIndex, source_health: Optional[Dict[str, Dict]] = None
    ):
        self.index = index
        #: per-source lifecycle health (connector key ->
        #: ``SourceHealth.to_dict()``) from the collection run that built
        #: the backing artifact. When set, every source row's
        #: reliability is scaled by the source's live health factor, so
        #: verdict confidence (= best row reliability) degrades with the
        #: sources backing it: a verdict only a dark feed still vouches
        #: for is worth a quarter of the same verdict from a healthy one.
        self.source_health = dict(source_health or {})

    @property
    def squat_index(self) -> TyposquatIndex:
        """The popular-name index every engine shares."""
        return _shared_squat_index()

    def _source_rows(self, entries: Sequence[DatasetEntry]) -> List[Dict]:
        """Source provenance rows, health-weighted when health is known."""
        rows = self.index.source_profiles(entries)
        if not self.source_health:
            return rows
        weighted = []
        for row in rows:
            health = self.source_health.get(row["key"])
            if health is not None:
                row = dict(row)
                row["health"] = health.get("state", "healthy")
                row["reliability"] = round(
                    row["reliability"] * health.get("reliability_factor", 1.0),
                    4,
                )
            weighted.append(row)
        weighted.sort(key=lambda row: (-row["reliability"], row["key"]))
        return weighted

    # -- resolution --------------------------------------------------------
    def _match(self, indicator: Indicator) -> List[DatasetEntry]:
        """Exact matches, most specific indicator field first."""
        if indicator.sha256:
            entries = self.index.lookup_sha256(indicator.sha256)
            if entries:
                return entries
        if indicator.name and indicator.version:
            entries = self.index.lookup_name_version(
                indicator.name, indicator.version, indicator.ecosystem
            )
            if entries:
                return entries
        if indicator.name:
            return self.index.lookup_name(indicator.name, indicator.ecosystem)
        return []

    def _squat_verdict(self, indicator: Indicator) -> Optional[EnrichmentResult]:
        """Suspicious verdict for near-miss names, or None if clean.

        A name near a known malicious name answers first (``near-known``).
        Otherwise the popular-name index checks the indicator's
        ecosystem, or, for a bare name, every ecosystem in one pass: the
        first ecosystem in sorted order that flags the name answers, so
        a name popular in one ecosystem can still squat another's.
        """
        name = indicator.name or ""
        near = self.index.near_names(
            name, indicator.ecosystem, max_distance=NEAR_DISTANCE
        )
        if near:
            nearest, distance = near[0]
            entries = self.index.lookup_name(nearest, indicator.ecosystem)
            first, last = _seen_window(entries)
            return EnrichmentResult(
                indicator=indicator,
                verdict=VERDICT_SUSPICIOUS,
                related=sorted(node_id(e.package) for e in entries)[:RELATED_LIMIT],
                sources=self._source_rows(entries),
                first_seen_day=first,
                last_seen_day=last,
                squat={"target": nearest, "distance": distance, "kind": "near-known"},
            )
        match = self.squat_index.check(indicator.ecosystem or None, name)
        if match is None:
            return None
        return EnrichmentResult(
            indicator=indicator,
            verdict=VERDICT_SUSPICIOUS,
            squat={
                "target": match.target,
                "distance": match.distance,
                "kind": match.kind,
            },
        )

    def enrich(self, indicator: Indicator) -> EnrichmentResult:
        """One indicator in, one structured verdict out."""
        entries = self._match(indicator)
        if entries:
            matches = sorted(node_id(e.package) for e in entries)
            families: List[str] = []
            campaigns: List[str] = []
            actors: List[str] = []
            related: List[str] = []
            for entry in entries:
                families.extend(self.index.families_of(entry.package))
                campaigns.extend(self.index.campaigns_of(entry.package))
                actors.extend(self.index.actors_of(entry.package))
                related.extend(self.index.related(entry.package, RELATED_LIMIT))
            first, last = _seen_window(entries)
            match_set = set(matches)
            return EnrichmentResult(
                indicator=indicator,
                verdict=VERDICT_MALICIOUS,
                matches=matches,
                families=sorted(set(families)),
                campaigns=sorted(set(campaigns)),
                actors=sorted(set(actors)),
                related=sorted(set(related) - match_set)[:RELATED_LIMIT],
                sources=self._source_rows(entries),
                first_seen_day=first,
                last_seen_day=last,
            )
        if indicator.name:
            squatted = self._squat_verdict(indicator)
            if squatted is not None:
                return squatted
        return EnrichmentResult(indicator=indicator, verdict=VERDICT_UNKNOWN)

    def lookup(
        self,
        name: Optional[str] = None,
        version: Optional[str] = None,
        sha256: Optional[str] = None,
        ecosystem: Optional[str] = None,
    ) -> EnrichmentResult:
        """Keyword convenience over :meth:`enrich`."""
        return self.enrich(
            Indicator(name=name, version=version, sha256=sha256, ecosystem=ecosystem)
        )
