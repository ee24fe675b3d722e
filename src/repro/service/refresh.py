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
  :class:`~repro.core.malgraph.MalGraph` in place with ``apply_delta``
  and derives the next index generation from the evolved graph
  (:meth:`~repro.service.index.IntelIndex.next_generation`).

Both return the dataset the index now serves and the delta engine's
:class:`~repro.core.delta.engine.DeltaReport`. Every applied batch
advances ``index.epoch`` and stamps ``index.last_delta_at`` — surfaced
by ``/v1/healthz`` and ``/v1/stats`` so operators can tell how fresh
the served index is.

**Consistency model.** A refresh takes the
:class:`~repro.service.cache.EnrichmentService`'s *writer* lock
(serialising concurrent refreshes; readers never touch it), derives the
next generation from the currently published one — sharing every table
the batch left alone and rebuilding only the buckets it touched, with
no event replayed — and installs it as the next immutable snapshot
with one reference assignment
(:meth:`~repro.service.cache.EnrichmentService.publish`). Lock-free
readers therefore observe either the old generation or the new one in
full — never a half-applied batch — and the generation-tagged verdict
cache can never serve a result computed against the outgoing index to
a reader of the incoming one. No read touches the live graph: each
generation answers from the query-index snapshot it was published with.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.collection.merge import events_from_datasets, merge_datasets
from repro.collection.records import MalwareDataset
from repro.core.delta.engine import DeltaReport
from repro.core.delta.events import EventKind, GraphEvent
from repro.core.malgraph import MalGraph
from repro.service.cache import EnrichmentService
from repro.service.index import IntelIndex

#: the events whose package's name may join or leave the index
_NAME_EVENTS = (EventKind.PACKAGE_ADDED, EventKind.PACKAGE_REMOVED)


def refresh_index(
    index: IntelIndex,
    new_dataset: MalwareDataset,
    service: EnrichmentService,
    *,
    malgraph: MalGraph,
) -> Tuple[MalwareDataset, DeltaReport]:
    """Merge a re-collected dataset into the served one, delta only.

    The merge becomes an event batch applied by
    :func:`refresh_from_events`; see there for the arguments. The base
    is the service's *currently published* dataset (read under the
    writer lock, so back-to-back refreshes from different threads
    compose instead of clobbering each other).
    """
    with service.lock:
        old = service.index.dataset
        events = events_from_datasets(old, merge_datasets(old, new_dataset))
        return refresh_from_events(index, events, service, malgraph=malgraph)


def refresh_from_events(
    index: IntelIndex,
    events: Sequence[GraphEvent],
    service: EnrichmentService,
    *,
    malgraph: MalGraph,
) -> Tuple[MalwareDataset, DeltaReport]:
    """Apply an event batch to ``malgraph`` and publish the next generation.

    The batch is rebased onto ``service.index``, the generation
    published when the writer lock is taken; ``index`` keeps its
    position for callers such as ``perfbench/server.py`` that pass the
    index they hold. ``malgraph`` is the graph the service was built
    from; it evolves in place, so callers keep feeding the same graph
    across batches. The delta reads its vectors from the store the
    graph was built or loaded with (:attr:`MalGraph.store`), so a
    service over a cached corpus embeds only payloads that store has
    never seen; a graph with no store embeds its corpus once, on the
    first batch. Returns the dataset the new generation serves and
    the delta engine's report (see the module docstring for the
    consistency model).
    """
    events = list(events)
    with service.lock:
        _, report = malgraph.apply_delta(events)
        names = {e.package_id().name for e in events if e.kind in _NAME_EVENTS}
        published = service.publish(service.index.next_generation(malgraph, names))
        return published.index.dataset, report
