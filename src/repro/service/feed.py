"""STIX-ish detection feed with refresh-stable cursor pagination.

``GET /v1/feed`` exports every collected detection as a STIX-flavoured
indicator object. The interesting problem is pagination *under live
refresh*: a client walking the feed page by page must see every item
exactly once even while :mod:`repro.service.refresh` publishes new index
generations between its requests. Offsets into a mutating list cannot
give that guarantee, so the exporter snapshots instead:

* the first page materialises the current generation's items as one
  immutable tuple, cached per generation;
* every cursor is **generation-tagged** — base64url JSON
  ``{"g": generation, "o": offset}`` — so follow-up pages keep slicing
  the *same* tuple the walk started on, no matter how many refreshes
  landed since: zero duplicates, zero misses, by construction;
* the exporter retains the last ``keep_generations`` snapshots; a
  cursor whose generation has been evicted (or that predates this
  process) answers :class:`CursorExpired`, which the server maps to
  ``410 Gone`` plus a restart hint — the honest answer once the pages
  the cursor referred to no longer exist.

Cursors are opaque to clients but deterministic: the same walk over the
same generation issues byte-identical cursors.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.collection.records import DatasetEntry

DEFAULT_PAGE_SIZE = 100
MAX_PAGE_SIZE = 1000
#: Index generations whose item snapshots stay servable after a refresh.
KEEP_GENERATIONS = 3


class CursorError(ValueError):
    """The cursor is not one this exporter could ever have issued (400)."""


class CursorExpired(ValueError):
    """The cursor's generation has been evicted (410 Gone + restart)."""

    def __init__(self, generation: int, current: int):
        self.generation = generation
        self.current = current
        super().__init__(
            f"cursor generation {generation} has expired "
            f"(current generation is {current}); restart the walk from "
            "/v1/feed without a cursor"
        )


def feed_item(entry: DatasetEntry) -> Dict:
    """One detection as a STIX-ish indicator object (JSON-safe)."""
    package = entry.package
    coordinate = f"{package.ecosystem}/{package.name}@{package.version}"
    return {
        "type": "indicator",
        "id": f"indicator--{package.ecosystem}--{package.name}--{package.version}",
        "name": f"Malicious package {coordinate}",
        "labels": ["malicious-activity"],
        "pattern": (
            f"[package:ecosystem = '{package.ecosystem}' AND "
            f"package:name = '{package.name}' AND "
            f"package:version = '{package.version}']"
        ),
        "pattern_type": "package-coordinate",
        "valid_from_day": entry.release_day,
        "detected_day": entry.detection_day,
        "removed_day": entry.removal_day,
        "sha256": entry.sha256(),
        "external_references": [
            {
                "source_name": claim.source,
                "report_day": claim.report_day,
                "shares_artifact": claim.shares_artifact,
            }
            for claim in entry.claims
        ],
    }


def encode_cursor(generation: int, offset: int) -> str:
    raw = json.dumps(
        {"g": generation, "o": offset}, separators=(",", ":")
    ).encode("ascii")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_cursor(cursor: str) -> Tuple[int, int]:
    """(generation, offset) out of an opaque cursor, or CursorError."""
    padded = cursor + "=" * (-len(cursor) % 4)
    try:
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
    except (binascii.Error, ValueError, UnicodeError):
        raise CursorError(f"malformed cursor {cursor!r}") from None
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("g"), int)
        or not isinstance(payload.get("o"), int)
        or isinstance(payload.get("g"), bool)
        or isinstance(payload.get("o"), bool)
        or payload["o"] < 0
        or payload["g"] < 0
    ):
        raise CursorError(f"malformed cursor {cursor!r}")
    return payload["g"], payload["o"]


class FeedExporter:
    """Paginates a service's detections across index generations."""

    def __init__(
        self,
        service,
        page_size: int = DEFAULT_PAGE_SIZE,
        keep_generations: int = KEEP_GENERATIONS,
    ):
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.service = service
        self.page_size = page_size
        self.keep_generations = keep_generations
        self._lock = threading.Lock()
        #: generation -> immutable item tuple, oldest first.
        self._snapshots: "OrderedDict[int, Tuple[Dict, ...]]" = OrderedDict()
        self.pages_served = 0
        self.cursors_expired = 0

    def _items_for(self, snapshot) -> Tuple[Dict, ...]:
        """The generation's immutable item tuple (built on first use).

        Entries are materialised in the generation's dataset order, so
        two walks over one generation see identical pages. A collected
        dataset is in (ecosystem, name, version) order, but an event
        batch appends the packages it publishes at the end.
        """
        generation = snapshot.generation
        with self._lock:
            held = self._snapshots.get(generation)
            if held is not None:
                return held
        items = tuple(
            feed_item(entry) for entry in snapshot.index.dataset.entries
        )
        with self._lock:
            # Another thread may have built it first; keep the earlier
            # tuple so cursors in flight stay pointed at one object.
            held = self._snapshots.setdefault(generation, items)
            while len(self._snapshots) > self.keep_generations:
                self._snapshots.popitem(last=False)
            return held

    def page(
        self, cursor: Optional[str] = None, limit: Optional[int] = None
    ) -> Dict:
        """One feed page: items plus the cursor for the next page.

        No cursor starts a fresh walk on the currently published
        generation; a cursor continues its own walk's generation. Raises
        :class:`CursorError` for garbage and :class:`CursorExpired` for
        an evicted generation.
        """
        size = self.page_size if limit is None else limit
        if size < 1 or size > MAX_PAGE_SIZE:
            raise CursorError(
                f"limit must be between 1 and {MAX_PAGE_SIZE}, got {size}"
            )
        current = self.service.snapshot
        if cursor is None:
            generation = current.generation
            offset = 0
            items = self._items_for(current)
        else:
            generation, offset = decode_cursor(cursor)
            with self._lock:
                items = self._snapshots.get(generation)
            if items is None:
                if generation == current.generation:
                    # First touch of a fresh generation through a cursor
                    # (e.g. another process issued it): materialise now.
                    items = self._items_for(current)
                else:
                    self.cursors_expired += 1
                    raise CursorExpired(generation, current.generation)
        page_items = list(items[offset : offset + size])
        next_offset = offset + len(page_items)
        next_cursor = (
            encode_cursor(generation, next_offset)
            if next_offset < len(items)
            else None
        )
        self.pages_served += 1
        return {
            "generation": generation,
            "total": len(items),
            "offset": offset,
            "count": len(page_items),
            "items": page_items,
            "next_cursor": next_cursor,
        }

    def walk(self, limit: Optional[int] = None) -> List[Dict]:
        """Every item of one complete walk (convenience for CLI/tests)."""
        items: List[Dict] = []
        cursor: Optional[str] = None
        while True:
            page = self.page(cursor=cursor, limit=limit)
            items.extend(page["items"])
            cursor = page["next_cursor"]
            if cursor is None:
                return items

    def stats(self) -> Dict:
        """Gauges for the ``connectors``/feed sections of /v1/metrics."""
        with self._lock:
            generations = list(self._snapshots)
        return {
            "generations_cached": generations,
            "pages_served": self.pages_served,
            "cursors_expired": self.cursors_expired,
        }
