"""Dataset merging and diffing (the paper's future-work update loop).

Section III-C closes with *"In future work, we will continue to find and
collect new malicious packages and security reports to improve the
MALGRAPH coverage."* That loop needs two primitives a one-shot pipeline
lacks:

* :func:`merge_datasets` — union two collected datasets: claims merge
  per source (earliest report day wins), artifacts fill in from
  whichever side has them, reports deduplicate by id;
* :func:`diff_datasets` — what changed between two collection runs:
  packages added/removed, packages whose artifact was newly recovered,
  and new reports.

Both are pure in the sense that inputs are never *mutated*. The merge
is also **copy-on-write**: entries the merge does not touch — base
entries whose key is absent from ``new``, and ``new``-only entries —
are shared by identity into the output instead of being cloned and
re-normalised, exactly as reports always were (and as
``apply_events_to_dataset`` shares untouched entries). Only overlapping
keys are cloned, claim-normalised and folded. The practical
consequences:

* ``merge_datasets(base, empty)`` returns ``base`` itself;
* merging a small delta into a million-row base allocates O(delta), not
  O(base);
* a hand-built entry with duplicate per-source claims keeps them unless
  the merge actually touches that key (the collection pipeline never
  produces such duplicates; :func:`_normalized_claims` still runs on
  every touched entry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.collection.records import (
    CollectedReport,
    DatasetEntry,
    MalwareDataset,
    SourceClaim,
)
from repro.ecosystem.package import PackageId
from repro.errors import DatasetError


def _normalized_claims(entry: DatasetEntry) -> List[SourceClaim]:
    """One claim per source: earliest report day, sticky sharing flag.

    The pipeline already guarantees per-source uniqueness; hand-built
    datasets may not, and merging must not amplify such duplicates.
    """
    by_source: Dict[str, SourceClaim] = {}
    for claim in entry.claims:
        held = by_source.get(claim.source)
        if held is None:
            by_source[claim.source] = SourceClaim(
                claim.source, claim.report_day, claim.shares_artifact
            )
        else:
            by_source[claim.source] = SourceClaim(
                claim.source,
                min(held.report_day, claim.report_day),
                held.shares_artifact or claim.shares_artifact,
            )
    return list(by_source.values())


def _clone_entry(entry: DatasetEntry) -> DatasetEntry:
    clone = DatasetEntry(
        package=entry.package,
        claims=_normalized_claims(entry),
        artifact=entry.artifact,
        artifact_origin=entry.artifact_origin,
        release_day=entry.release_day,
        removal_day=entry.removal_day,
        detection_day=entry.detection_day,
        downloads=entry.downloads,
        campaign_id=entry.campaign_id,
        actor=entry.actor,
        archetype=entry.archetype,
        behavior_key=entry.behavior_key,
    )
    return clone


def _merge_into(base: DatasetEntry, extra: DatasetEntry) -> None:
    """Fold ``extra``'s knowledge into ``base`` (same package)."""
    by_source = {c.source: c for c in base.claims}
    for claim in extra.claims:
        held = by_source.get(claim.source)
        if held is None:
            merged = SourceClaim(claim.source, claim.report_day, claim.shares_artifact)
            base.claims.append(merged)
            by_source[claim.source] = merged
        elif claim.report_day < held.report_day:
            by_source[claim.source] = SourceClaim(
                claim.source, claim.report_day,
                held.shares_artifact or claim.shares_artifact,
            )
            base.claims = [
                by_source[c.source] if c.source == claim.source else c
                for c in base.claims
            ]
        elif claim.shares_artifact and not held.shares_artifact:
            replacement = SourceClaim(held.source, held.report_day, True)
            by_source[claim.source] = replacement
            base.claims = [
                replacement if c.source == claim.source else c for c in base.claims
            ]
    if base.artifact is None and extra.artifact is not None:
        base.artifact = extra.artifact
        base.artifact_origin = extra.artifact_origin
    elif (
        base.artifact is not None
        and extra.artifact is not None
        and base.artifact.sha256() != extra.artifact.sha256()
    ):
        raise DatasetError(
            f"conflicting artifacts for {base.package}: "
            f"{base.artifact.sha256()[:12]} vs {extra.artifact.sha256()[:12]}"
        )
    for attr in ("release_day", "removal_day", "detection_day"):
        if getattr(base, attr) is None:
            setattr(base, attr, getattr(extra, attr))
    base.downloads = max(base.downloads, extra.downloads)
    for attr in ("campaign_id", "actor", "archetype", "behavior_key"):
        if getattr(base, attr) is None:
            setattr(base, attr, getattr(extra, attr))


def _entry_sort_key(entry: DatasetEntry) -> Tuple[str, str, str]:
    return (
        entry.package.ecosystem,
        entry.package.name,
        entry.package.version,
    )


def merge_datasets(base: MalwareDataset, new: MalwareDataset) -> MalwareDataset:
    """Union of two collection runs; neither input is mutated.

    Copy-on-write: only entries whose key appears on *both* sides are
    cloned (and claim-normalised) before folding; every other entry —
    and every report — is shared by identity into the output. Output
    entries are sorted by (ecosystem, name, version), reports by id.
    ``merge_datasets(base, empty)`` short-circuits to ``base`` itself.
    """
    if not new.entries and not new.reports:
        return base
    new_keys: Set[PackageId] = set(new.package_keys())
    entries: List[DatasetEntry] = []
    base_keys: Set[PackageId] = set()
    for entry in base.entries:
        base_keys.add(entry.package)
        if entry.package in new_keys:
            clone = _clone_entry(entry)
            _merge_into(clone, new.get(entry.package))
            entries.append(clone)
        else:
            entries.append(entry)  # untouched: shared, not cloned
    for entry in new.entries:
        if entry.package not in base_keys:
            entries.append(entry)  # new-only: shared, not cloned
    entries.sort(key=_entry_sort_key)
    reports: Dict[str, CollectedReport] = {r.report_id: r for r in base.reports}
    for report in new.reports:
        reports.setdefault(report.report_id, report)
    return MalwareDataset(
        entries=entries,
        reports=sorted(reports.values(), key=lambda r: r.report_id),
    )


@dataclass
class DatasetDiff:
    """What changed from ``old`` to ``new``."""

    added: List[PackageId] = field(default_factory=list)
    removed: List[PackageId] = field(default_factory=list)
    newly_available: List[PackageId] = field(default_factory=list)
    new_sources: Dict[PackageId, Set[str]] = field(default_factory=dict)
    new_reports: List[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (
            self.added
            or self.removed
            or self.newly_available
            or self.new_sources
            or self.new_reports
        )

    def summary(self) -> str:
        return (
            f"+{len(self.added)} packages, -{len(self.removed)}, "
            f"{len(self.newly_available)} newly available, "
            f"{len(self.new_sources)} with new sources, "
            f"+{len(self.new_reports)} reports"
        )


def events_from_datasets(
    old: MalwareDataset, new: MalwareDataset
) -> List["GraphEvent"]:
    """The event batch that carries ``old`` to ``new``'s contents.

    Emission order is removals, then updates, then additions (in
    ``new``'s entry order), then new reports. Applying the batch via
    :func:`repro.core.delta.events.apply_events_to_dataset` yields a
    dataset with exactly ``new``'s entries per key; entry *order* follows
    the event semantics (updates in place, additions appended), which is
    the order the delta engine's correctness contract anchors on.

    Updates compare serialised entries, so a re-collection that changed
    nothing emits nothing.
    """
    from repro.core.delta.events import GraphEvent
    from repro.io.datasets import entry_to_dict

    events: List["GraphEvent"] = []
    old_key_order = old.package_keys()
    new_keys = set(new.package_keys())
    old_keys = set(old_key_order)
    for key in old_key_order:
        if key not in new_keys:
            events.append(GraphEvent.package_removed(key))
    for entry in new.entries:
        if entry.package not in old_keys:
            events.append(GraphEvent.package_added(entry))
            continue
        counterpart = old.get(entry.package)
        if entry_to_dict(entry) != entry_to_dict(counterpart):
            events.append(GraphEvent.package_detected(entry))
    old_reports = set(old.report_ids())
    for report in new.reports:
        if report.report_id not in old_reports:
            events.append(GraphEvent.report_ingested(report))
    return events


def diff_datasets(old: MalwareDataset, new: MalwareDataset) -> DatasetDiff:
    """Structured difference between two collection runs.

    Membership (added/removed/new reports) is computed from the key
    views alone; per-entry knowledge comparisons run only for keys
    present on both sides.
    """
    diff = DatasetDiff()
    old_keys = set(old.package_keys())
    new_key_order = new.package_keys()
    new_keys = set(new_key_order)
    diff.added = sorted(new_keys - old_keys)
    diff.removed = sorted(old_keys - new_keys)
    for key in new_key_order:
        if key not in old_keys:
            continue
        entry = new.get(key)
        counterpart = old.get(key)
        if entry.available and not counterpart.available:
            diff.newly_available.append(key)
        gained = entry.sources - counterpart.sources
        if gained:
            diff.new_sources[key] = gained
    old_reports = set(old.report_ids())
    diff.new_reports = sorted(
        rid for rid in new.report_ids() if rid not in old_reports
    )
    return diff
