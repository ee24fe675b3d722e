"""Incremental MALGRAPH: a delta engine from ecosystem events.

The batch pipeline rebuilds the whole graph from a frozen collection
snapshot; the ecosystem it models is event-driven. This package turns an
ordered batch of :class:`GraphEvent`s (package added / detected /
removed, report ingested) into a surgical update of an existing
:class:`~repro.core.malgraph.MalGraph`:

* :mod:`repro.core.delta.events` — the event model, JSONL codec, batch
  hashing, and the reference dataset-level application that defines the
  post-events collection;
* :mod:`repro.core.delta.similar` — the incremental similar-edge stage:
  per-SHA embedding reuse plus a global cosine-component cache over
  unique rounded vectors, so only genuinely new code is embedded or
  compared;
* :mod:`repro.core.delta.engine` — :func:`apply_delta`, the correctness
  anchor: its output is byte-identical after canonical serialisation to
  a cold ``MalGraph.build`` over the post-events collection. It keeps
  no clique handles, settings or group structure: the graph finds a
  clique by its members and records the clustering configuration and
  store, and the query-index patch re-derives the DG/DeG/SG/CG groups a
  batch touched (:mod:`repro.core.query.indexes`).
"""

from repro.core.delta.engine import DeltaReport, apply_delta
from repro.core.delta.events import (
    EventKind,
    GraphEvent,
    apply_events_to_dataset,
    event_batch_hash,
    events_to_jsonl,
    events_from_jsonl,
)

__all__ = [
    "DeltaReport",
    "EventKind",
    "GraphEvent",
    "apply_delta",
    "apply_events_to_dataset",
    "event_batch_hash",
    "events_from_jsonl",
    "events_to_jsonl",
]
