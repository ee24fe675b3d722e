"""Online threat-intel enrichment service over MALGRAPH.

The paper builds MALGRAPH once and mines it offline; this package turns
a built graph into a serving layer — the workload a Unit-42-style
intelligence integration expects: hand in an indicator (package name,
name@version, SHA256) and get back a verdict plus malware-family /
campaign / actor associations and related indicators.

Layers, bottom to top:

* :mod:`repro.service.index` — :class:`IntelIndex`, O(1) indicator
  lookups over MALGRAPH's immutable query-index snapshot (keys, groups,
  neighbours) plus a typo-squat name neighbourhood and report actor
  aliases, each generation derived copy-on-write from the last;
* :mod:`repro.service.enrich` — :class:`EnrichmentEngine`, indicator →
  structured :class:`EnrichmentResult` with typosquat-distance fallback;
* :mod:`repro.service.cache` — immutable :class:`ServiceSnapshot`
  generations read lock-free, fronted by an N-way sharded LRU with
  exact shard-summed hit/miss counters and a deduplicating
  ``batch_enrich`` path;
* :mod:`repro.service.ratelimit` — per-client token buckets behind the
  HTTP front end (429 + ``Retry-After`` backpressure);
* :mod:`repro.service.metrics` — per-endpoint request counters,
  fixed-bucket latency histograms (p50/p95/p99) and attachable gauge
  sections;
* :mod:`repro.service.feed` — :class:`FeedExporter`, the STIX-ish
  detection feed with generation-tagged cursors that stay stable across
  index refreshes (``410 Gone`` + restart hint once a cursor's
  generation is evicted);
* :mod:`repro.service.webhook` — :class:`WebhookDispatcher`, queued
  push of new detections with retry/backoff and a bounded dead-letter
  book;
* :mod:`repro.service.server` — stdlib JSON HTTP API with a request
  error boundary and validated request framing (``/v1/enrich``,
  ``/v1/enrich/batch``, ``/v1/query``, ``/v1/feed``, ``/v1/stats``,
  ``/v1/metrics``, ``/v1/healthz``);
* :mod:`repro.service.refresh` — incremental index refresh: event
  batches (or a :mod:`repro.collection.merge` of a re-collection) run
  through the MALGRAPH delta engine, and the index generation derived
  from the evolved graph is published as the next snapshot — readers
  never wait and never see a half-applied batch.
"""

from repro.service.cache import (
    DEFAULT_CACHE_SHARDS,
    EnrichmentService,
    LRUCache,
    ServiceSnapshot,
    ShardedLRUCache,
    build_service,
)
from repro.service.enrich import (
    VERDICT_MALICIOUS,
    VERDICT_SUSPICIOUS,
    VERDICT_UNKNOWN,
    EnrichmentEngine,
    EnrichmentResult,
    Indicator,
)
from repro.service.feed import (
    CursorError,
    CursorExpired,
    FeedExporter,
    decode_cursor,
    encode_cursor,
    feed_item,
)
from repro.service.index import IntelIndex, source_reliability
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.refresh import refresh_index
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_QUERY_LENGTH,
    create_server,
    serve,
)
from repro.service.webhook import WebhookDispatcher, http_transport

__all__ = [
    "CursorError",
    "CursorExpired",
    "DEFAULT_CACHE_SHARDS",
    "EnrichmentEngine",
    "EnrichmentResult",
    "EnrichmentService",
    "FeedExporter",
    "Indicator",
    "IntelIndex",
    "LRUCache",
    "LatencyHistogram",
    "MAX_BODY_BYTES",
    "MAX_QUERY_LENGTH",
    "RateLimiter",
    "ServiceMetrics",
    "ServiceSnapshot",
    "ShardedLRUCache",
    "TokenBucket",
    "VERDICT_MALICIOUS",
    "VERDICT_SUSPICIOUS",
    "VERDICT_UNKNOWN",
    "WebhookDispatcher",
    "build_service",
    "create_server",
    "decode_cursor",
    "encode_cursor",
    "feed_item",
    "http_transport",
    "refresh_index",
    "serve",
    "source_reliability",
]
