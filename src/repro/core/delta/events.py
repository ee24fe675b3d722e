"""The graph event model and its reference dataset semantics.

A :class:`GraphEvent` is one observable change in the modelled
ecosystem. Four kinds exist:

* ``package_added`` — a package newly appears in the collection; the
  payload is the full serialised entry. Strict: the key must be new.
* ``package_detected`` — an already-collected package's knowledge
  changed (new source claims, a recovered artifact, detection/removal
  days, download counts); the payload is the full *replacement* entry.
  Strict: the key must exist.
* ``package_removed`` — the package leaves the collection entirely
  (e.g. reclassified as a false positive). A registry takedown that
  keeps the entry in the dataset is a ``package_detected`` update of
  ``removal_day``, not a removal.
* ``report_ingested`` — a new security report; payload is the full
  serialised report. Strict: the report id must be new.

:func:`apply_events_to_dataset` is the *reference semantics*: applying a
batch there defines the post-events collection that a cold
``MalGraph.build`` is compared against. The delta engine must produce a
graph byte-identical (canonically serialised) to that cold rebuild.

Events are hashed (:func:`event_batch_hash`) over their canonical JSON,
which identifies a batch in its :class:`~repro.core.delta.engine.DeltaReport`,
and round-trip through JSONL for the ``repro update`` CLI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.collection.records import (
    CollectedReport,
    DatasetEntry,
    MalwareDataset,
)
from repro.ecosystem.package import PackageId
from repro.errors import DatasetError

PathLike = Union[str, Path]


class EventKind(str, Enum):
    """What happened in the ecosystem."""

    PACKAGE_ADDED = "package_added"
    PACKAGE_DETECTED = "package_detected"
    PACKAGE_REMOVED = "package_removed"
    REPORT_INGESTED = "report_ingested"


@dataclass(frozen=True)
class GraphEvent:
    """One ordered ecosystem event; ``payload`` is canonical-JSON-able."""

    kind: EventKind
    payload_json: str  # canonical JSON, so events hash and compare stably

    # -- constructors ------------------------------------------------------
    @classmethod
    def _of(cls, kind: EventKind, payload: dict) -> "GraphEvent":
        return cls(
            kind=kind,
            payload_json=json.dumps(payload, sort_keys=True, separators=(",", ":")),
        )

    @classmethod
    def package_added(cls, entry: DatasetEntry) -> "GraphEvent":
        from repro.io.datasets import entry_to_dict

        return cls._of(EventKind.PACKAGE_ADDED, entry_to_dict(entry))

    @classmethod
    def package_detected(cls, entry: DatasetEntry) -> "GraphEvent":
        """Full replacement of an existing entry's knowledge."""
        from repro.io.datasets import entry_to_dict

        return cls._of(EventKind.PACKAGE_DETECTED, entry_to_dict(entry))

    @classmethod
    def package_removed(cls, package: PackageId) -> "GraphEvent":
        return cls._of(
            EventKind.PACKAGE_REMOVED,
            {
                "ecosystem": package.ecosystem,
                "name": package.name,
                "version": package.version,
            },
        )

    @classmethod
    def report_ingested(cls, report: CollectedReport) -> "GraphEvent":
        from repro.io.datasets import report_to_dict

        return cls._of(EventKind.REPORT_INGESTED, report_to_dict(report))

    # -- payload access ----------------------------------------------------
    @property
    def payload(self) -> dict:
        return json.loads(self.payload_json)

    def package_id(self) -> PackageId:
        """The affected package key (package events only)."""
        raw = self.payload
        return PackageId(raw["ecosystem"], raw["name"], raw["version"])

    def entry(self) -> DatasetEntry:
        from repro.io.datasets import entry_from_dict

        return entry_from_dict(self.payload)

    def report(self) -> CollectedReport:
        from repro.io.datasets import report_from_dict

        return report_from_dict(self.payload)

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "payload": self.payload}

    @classmethod
    def from_dict(cls, raw: dict) -> "GraphEvent":
        return cls._of(EventKind(raw["kind"]), raw["payload"])


def event_batch_hash(events: Sequence[GraphEvent]) -> str:
    """SHA256 over the batch's canonical JSON (order-sensitive)."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(event.kind.value.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(event.payload_json.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# JSONL codec (the ``repro update`` interchange format)
# ---------------------------------------------------------------------------

def events_to_jsonl(events: Sequence[GraphEvent], path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return path


def events_from_jsonl(path: PathLike) -> List[GraphEvent]:
    """Read an event batch, one JSON object per line.

    Each payload is read once, as its kind reads it, so a malformed file
    fails here: :class:`DatasetError` names the file and line of a line
    that is not a JSON object, names an unknown kind, or carries a
    payload its kind cannot read.
    """
    events: List[GraphEvent] = []
    with Path(path).open("rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)  # decodes, so bad bytes fail here too
                if not isinstance(raw, dict):
                    raise ValueError("not a JSON object")
                event = GraphEvent.from_dict(raw)
                _PAYLOAD_READERS[event.kind](event)
            except (
                AttributeError, DatasetError, KeyError, TypeError, ValueError
            ) as error:
                raise DatasetError(
                    f"{path}:{number}: {type(error).__name__}: {error}"
                ) from error
            events.append(event)
    return events


#: how each kind's payload is read
_PAYLOAD_READERS = {
    EventKind.PACKAGE_ADDED: GraphEvent.entry,
    EventKind.PACKAGE_DETECTED: GraphEvent.entry,
    EventKind.PACKAGE_REMOVED: GraphEvent.package_id,
    EventKind.REPORT_INGESTED: GraphEvent.report,
}


# ---------------------------------------------------------------------------
# Reference semantics: events applied to a dataset
# ---------------------------------------------------------------------------

def apply_events_to_dataset(
    dataset: MalwareDataset, events: Sequence[GraphEvent]
) -> MalwareDataset:
    """The post-events collection (inputs are never mutated).

    Entry order is part of the contract (the similarity stage consumes
    entries in order): detected packages keep their position, removed
    packages vacate theirs, added packages append in event order — so a
    remove-then-republish lands at the end, exactly as a re-collection
    that saw the republished package last would place it.
    """
    entries: List[Optional[DatasetEntry]] = list(dataset.entries)
    position: Dict[PackageId, int] = {
        entry.package: i for i, entry in enumerate(dataset.entries)
    }
    reports: List[CollectedReport] = list(dataset.reports)
    report_ids = {report.report_id for report in reports}

    for event in events:
        if event.kind is EventKind.PACKAGE_ADDED:
            entry = event.entry()
            if entry.package in position:
                raise DatasetError(
                    f"package_added for existing package {entry.package}"
                )
            position[entry.package] = len(entries)
            entries.append(entry)
        elif event.kind is EventKind.PACKAGE_DETECTED:
            entry = event.entry()
            held = position.get(entry.package)
            if held is None:
                raise DatasetError(
                    f"package_detected for unknown package {entry.package}"
                )
            entries[held] = entry
        elif event.kind is EventKind.PACKAGE_REMOVED:
            pid = event.package_id()
            held = position.pop(pid, None)
            if held is None:
                raise DatasetError(f"package_removed for unknown package {pid}")
            entries[held] = None
        elif event.kind is EventKind.REPORT_INGESTED:
            report = event.report()
            if report.report_id in report_ids:
                raise DatasetError(
                    f"report_ingested for duplicate report {report.report_id!r}"
                )
            report_ids.add(report.report_id)
            reports.append(report)
        else:  # pragma: no cover - exhaustive over EventKind
            raise DatasetError(f"unknown event kind {event.kind!r}")

    return MalwareDataset(
        entries=[entry for entry in entries if entry is not None],
        reports=reports,
    )
