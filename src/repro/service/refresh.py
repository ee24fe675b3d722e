"""Incremental index refresh, fed by graph events.

The paper's future-work loop keeps collecting; a live service cannot
rebuild its index (and certainly not the similarity clustering) for
every re-collection. Both refresh entry points speak the delta engine's
event language (:mod:`repro.core.delta.events`) and run the same path:

* :func:`refresh_index` merges a re-collected dataset into the served
  one with :func:`repro.collection.merge.merge_datasets`, derives the
  event batch via
  :func:`~repro.collection.merge.events_from_datasets`, and hands it to
  :func:`refresh_from_events`;
* :func:`refresh_from_events` applies a batch (e.g. one replayed from an
  events JSONL): it evolves the served
  :class:`~repro.core.malgraph.MalGraph` in place with ``apply_delta``,
  indexes the batch's packages and reports, and installs the evolved
  graph's query-index snapshot — exact DG/DeG/SG/CG groups and
  neighbours — as the index's group table
  (:meth:`~repro.service.index.IntelIndex.replace_groups`).

Both return the dataset the index now serves and the delta engine's
:class:`~repro.core.delta.engine.DeltaReport`. Every applied batch
advances ``index.epoch`` and stamps ``index.last_delta_at`` — surfaced
by ``/v1/healthz`` and ``/v1/stats`` so operators can tell how fresh
the served index is.

**Consistency model.** Handed a bare index (``service=None``) the batch
mutates it in place — the caller owns the only reference. Handed a
:class:`~repro.service.cache.EnrichmentService`, the refresh takes the
service's *writer* lock (serialising concurrent refreshes; readers
never touch it), **clones** the currently published index, applies the
batch to the clone off to the side, and installs the clone as the next
immutable snapshot generation with one reference assignment
(:meth:`~repro.service.cache.EnrichmentService.publish`). Lock-free
readers therefore observe either the old generation or the new one in
full — never a half-applied batch — and the generation-tagged verdict
cache can never serve a result computed against the outgoing index to
a reader of the incoming one. No read touches the live graph: each
generation answers ``related()`` and ``/v1/query`` from the query-index
snapshot it was published with.
"""

from __future__ import annotations

import contextlib
import time
from typing import List, Optional, Sequence, Tuple

from repro.collection.merge import events_from_datasets, merge_datasets
from repro.collection.records import MalwareDataset
from repro.core.delta.engine import DeltaReport
from repro.core.delta.events import EventKind, GraphEvent
from repro.core.malgraph import MalGraph
from repro.service.cache import EnrichmentService
from repro.service.index import IntelIndex


def refresh_index(
    index: IntelIndex,
    new_dataset: MalwareDataset,
    service: Optional[EnrichmentService] = None,
    *,
    malgraph: MalGraph,
) -> Tuple[MalwareDataset, DeltaReport]:
    """Merge a re-collected dataset into the served one, delta only.

    The merge becomes an event batch applied by
    :func:`refresh_from_events`; see there for ``service`` and
    ``malgraph``. With a ``service``, the base is the service's
    *currently published* dataset (read under the writer lock, so
    back-to-back refreshes from different threads compose instead of
    clobbering each other).
    """
    guard = service.lock if service is not None else contextlib.nullcontext()
    with guard:
        old = (service.index if service is not None else index).dataset
        events = events_from_datasets(old, merge_datasets(old, new_dataset))
        return refresh_from_events(index, events, service=service, malgraph=malgraph)


def refresh_from_events(
    index: IntelIndex,
    events: Sequence[GraphEvent],
    service: Optional[EnrichmentService] = None,
    *,
    malgraph: MalGraph,
) -> Tuple[MalwareDataset, DeltaReport]:
    """Apply an event batch to ``malgraph`` and the index serving it.

    ``malgraph`` is the graph the index was built from; it evolves in
    place, so callers keep feeding the same graph across batches.
    Returns the dataset the index now serves and the delta engine's
    report. With a ``service`` the batch lands as a fresh snapshot
    generation (see the module docstring for the consistency model).
    """
    guard = service.lock if service is not None else contextlib.nullcontext()
    with guard:
        base = service.index if service is not None else index
        target = base.clone() if service is not None else base
        report = _apply_events(target, list(events), base.dataset, malgraph)
        if service is not None:
            service.publish(target)
        return target.dataset, report


def _apply_events(
    index: IntelIndex,
    events: List[GraphEvent],
    old: MalwareDataset,
    malgraph: MalGraph,
) -> DeltaReport:
    """Apply one event batch to ``index`` (which nobody else reads yet).

    ``old`` is the dataset the batch was derived against — the snapshot
    path hands the published index's dataset while ``index`` is a
    clone, so in-batch "previous state" lookups resolve correctly.
    """
    evolved, report = malgraph.apply_delta(events, in_place=True)
    # The index resolves entries through its dataset reference, so the
    # swap retargets every already-indexed PackageId at the new entries
    # for free.
    index.dataset = evolved.dataset

    # Running view of the batch: later events must see what earlier ones
    # in the same batch did (None marks an in-batch removal).
    seen = {}

    def previous(pid):
        return seen[pid] if pid in seen else old.get(pid)

    for event in events:
        if event.kind is EventKind.PACKAGE_ADDED:
            entry = event.entry()
            index.add_entry(entry)
            seen[entry.package] = entry
        elif event.kind is EventKind.PACKAGE_DETECTED:
            entry = event.entry()
            prev = previous(entry.package)
            prev_sha = prev.sha256() if prev is not None else None
            if entry.sha256() != prev_sha:
                index.unregister_sha(prev_sha, entry.package)
                index.register_sha(entry)
            seen[entry.package] = entry
        elif event.kind is EventKind.PACKAGE_REMOVED:
            pid = event.package_id()
            prev = previous(pid)
            if prev is not None:
                index.remove_entry(prev)
            seen[pid] = None
        elif event.kind is EventKind.REPORT_INGESTED:
            index.add_report(event.report())

    index.replace_groups(malgraph)
    index.epoch += 1
    index.last_delta_at = time.time()
    return report
