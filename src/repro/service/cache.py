"""Sharded LRU caching and the lock-free snapshot service.

A production enrichment endpoint sees the same indicators over and over
(the same compromised package queried by every downstream scanner), so
the service fronts the engine with a bounded LRU keyed on the
indicator's normalised form. ``batch_enrich`` additionally deduplicates
within the request, which is what lets a million-indicator stream with
heavy repetition be answered with a few thousand engine calls and zero
graph walks.

Concurrency model (the part a million-user front end cares about):

* Reads are **lock-free** at the service level. The engine, its
  :class:`~repro.service.index.IntelIndex` and the query engine are
  published together as one immutable :class:`ServiceSnapshot`; a
  request loads the snapshot with a single atomic attribute read and
  resolves everything against that generation. The index and the query
  engine read the same MALGRAPH query-index snapshot, never the live
  graph. No request ever takes ``service.lock``.
* Writes (``refresh``/``invalidate``) serialise on ``service.lock``,
  build the next state off to the side (the next index generation, see
  :meth:`~repro.service.index.IntelIndex.next_generation`), and install
  it with one reference assignment. A reader holds either the old
  snapshot or the new one — never a mix.
* The LRU is sharded N ways by cache-key hash so distinct-key lookups
  contend on different locks; each :class:`LRUCache` shard keeps its own
  exact hit/miss/eviction books and ``stats()`` sums them, so
  ``hits + misses == gets`` holds across shards and generations.
* Cache keys are tagged with the snapshot's generation. A straggler
  thread still holding generation *g* can only ever store results under
  *g*'s keys, which generation *g+1* readers never look up — a refresh
  can therefore never be poisoned by a stale verdict racing the swap.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.core.malgraph import MalGraph
from repro.core.query import QueryEngine
from repro.service.enrich import EnrichmentEngine, EnrichmentResult, Indicator
from repro.service.feed import FeedExporter, feed_item
from repro.service.index import IntelIndex
from repro.service.webhook import WebhookDispatcher

#: Default shard count for the service LRU — enough that eight handler
#: threads rarely collide on one shard lock, small enough that a tiny
#: test capacity still leaves every shard a slot.
DEFAULT_CACHE_SHARDS = 8


class LRUCache:
    """Bounded least-recently-used map with hit/miss/eviction counters.

    Safe for concurrent use: every operation (including the counter
    updates) runs under one reentrant lock, so ``hits + misses`` always
    equals the number of ``get`` calls, even under thread churn. This is
    the single-shard primitive; the service fronts the engine with a
    :class:`ShardedLRUCache` built out of these.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        self._items: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._items

    def get(self, key: Hashable):
        """The cached value (counted as hit/miss), or None."""
        with self._lock:
            try:
                value = self._items[key]
            except KeyError:
                self.misses += 1
                return None
            self.hits += 1
            self._items.move_to_end(key)
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            if len(self._items) > self.capacity:
                self._items.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._items),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class ShardedLRUCache:
    """N independent :class:`LRUCache` shards addressed by key hash.

    Distinct keys land on distinct shard locks, so concurrent readers
    only contend when they touch the *same* shard — the global cache
    lock of the pre-snapshot service is gone. Capacity divides across
    shards (total bound is preserved: ``sum(shard.capacity) >=
    capacity`` only when shards evenly divide; we round up per shard and
    cap the reported capacity at the configured total).

    Counters stay exact because each shard counts under its own lock and
    :meth:`stats` sums them: ``hits + misses == gets`` holds for the sum
    exactly as it does per shard.
    """

    def __init__(self, capacity: int = 4096, shards: int = DEFAULT_CACHE_SHARDS):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        shards = min(shards, capacity)  # never hand a shard capacity 0
        self.capacity = capacity
        per_shard = -(-capacity // shards)  # ceil division
        self._shards = tuple(LRUCache(per_shard) for _ in range(shards))

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _shard(self, key: Hashable) -> LRUCache:
        return self._shards[hash(key) % len(self._shards)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._shard(key)

    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self._shards)

    @property
    def evictions(self) -> int:
        return sum(shard.evictions for shard in self._shards)

    def get(self, key: Hashable):
        return self._shard(key).get(key)

    def put(self, key: Hashable, value) -> None:
        self._shard(key).put(key, value)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def stats(self) -> Dict[str, int]:
        """Shard-summed counters (the exact-accounting anchor)."""
        return {
            "size": len(self),
            "capacity": self.capacity,
            "shards": len(self._shards),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class ServiceSnapshot:
    """One immutable published generation of the service's read state.

    Everything a request needs — the engine (and through it the index)
    and the query engine — travels together, so a request that loaded
    generation *g* resolves every lookup, group walk and cache probe
    against *g* even while a refresh publishes *g+1* next to it.
    """

    generation: int
    engine: EnrichmentEngine
    query_engine: Optional[QueryEngine] = None

    @property
    def index(self) -> IntelIndex:
        return self.engine.index


class EnrichmentService:
    """Snapshot-fronted enrichment: the object the HTTP server exposes.

    The read path (:meth:`enrich`, :meth:`batch_enrich`, :meth:`stats`)
    never locks at the service level: it loads ``self._snapshot`` once
    (an atomic reference read) and works entirely against that
    generation, probing the sharded LRU under per-shard locks only.
    ``lock`` is the **writer** lock: :func:`repro.service.refresh`
    serialises refreshes on it, builds the next index off to the side
    and installs it via :meth:`publish` — readers never wait on it.
    """

    def __init__(
        self,
        engine: EnrichmentEngine,
        capacity: int = 4096,
        degraded: bool = False,
        query_engine: Optional[QueryEngine] = None,
        shards: int = DEFAULT_CACHE_SHARDS,
        source_health: Optional[Dict[str, Dict]] = None,
        webhook: Optional[WebhookDispatcher] = None,
    ):
        self.cache = ShardedLRUCache(capacity, shards=shards)
        #: writer lock — refresh/invalidate only; never on the read path
        self.lock = threading.RLock()
        #: whether the backing collection artifact was built degraded
        #: (see repro.reliability) — surfaced by /v1/healthz and /v1/stats.
        self.degraded = degraded
        #: per-source connector health from the collection run (empty
        #: when the artifact predates connectors) — surfaced by
        #: /v1/healthz, /v1/stats and the metrics ``connectors`` section.
        self.source_health = dict(source_health or {})
        if self.source_health and not engine.source_health:
            engine.source_health = dict(self.source_health)
        #: optional push channel for new detections on refresh.
        self.webhook = webhook
        #: the /v1/feed exporter (generation-stable cursor pagination).
        self.feed = FeedExporter(self)
        self._snapshot = ServiceSnapshot(
            generation=0, engine=engine, query_engine=query_engine
        )

    # -- snapshot plumbing -------------------------------------------------
    @property
    def snapshot(self) -> ServiceSnapshot:
        """The currently published generation (one atomic read)."""
        return self._snapshot

    @property
    def engine(self) -> EnrichmentEngine:
        return self._snapshot.engine

    @property
    def index(self) -> IntelIndex:
        return self._snapshot.engine.index

    @property
    def query_engine(self) -> Optional[QueryEngine]:
        return self._snapshot.query_engine

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def publish(self, index: IntelIndex) -> ServiceSnapshot:
        """Install ``index`` as the next generation (writer-lock held).

        Wraps the index in a fresh engine carrying the outgoing engine's
        source health, pins a query engine (when the service has one) to
        the index's own query-index snapshot, bumps the generation, swaps
        the snapshot with one assignment and clears the cache —
        old-generation entries would never be looked up again anyway
        (keys are generation-tagged), clearing just returns the memory.
        """
        with self.lock:
            old = self._snapshot
            engine = EnrichmentEngine(index, source_health=old.engine.source_health)
            snapshot = ServiceSnapshot(
                generation=old.generation + 1,
                engine=engine,
                query_engine=(
                    QueryEngine.pinned(index.indexes)
                    if old.query_engine is not None
                    else None
                ),
            )
            fresh = (
                self._new_detections(old.index, index)
                if self.webhook is not None
                else []
            )
            self._snapshot = snapshot
            self.cache.clear()
        if self.webhook is not None and fresh:
            # Outside the writer lock: enqueueing is non-blocking, but a
            # webhook has no business extending the critical section.
            self.webhook.notify(fresh, generation=snapshot.generation)
        return snapshot

    @staticmethod
    def _new_detections(old_index: IntelIndex, new_index: IntelIndex) -> List[Dict]:
        """Feed items for packages the outgoing generation did not know."""
        old_dataset = old_index.dataset
        return [
            feed_item(entry)
            for entry in new_index.dataset.entries
            if old_dataset.get(entry.package) is None
        ]

    # -- the read path (lock-free) ----------------------------------------
    def enrich(self, indicator: Indicator) -> EnrichmentResult:
        """Cached single-indicator enrichment against one generation."""
        return self._enrich_in(self._snapshot, indicator)

    def _enrich_in(
        self, snapshot: ServiceSnapshot, indicator: Indicator
    ) -> EnrichmentResult:
        key = (snapshot.generation, indicator.key())
        held = self.cache.get(key)
        if held is not None:
            return held
        result = snapshot.engine.enrich(indicator)
        self.cache.put(key, result)
        return result

    def batch_enrich(self, indicators: Sequence[Indicator]) -> List[EnrichmentResult]:
        """Enrich a stream, resolving each distinct indicator once.

        Duplicates within the batch are answered from the batch-local
        table without touching the cache counters, so ``stats()`` reflects
        distinct-indicator traffic. The whole batch resolves against the
        snapshot loaded on entry, so a concurrent refresh cannot split
        one request across two index generations.
        """
        snapshot = self._snapshot
        resolved: Dict[tuple, EnrichmentResult] = {}
        results: List[EnrichmentResult] = []
        for indicator in indicators:
            key = indicator.key()
            held = resolved.get(key)
            if held is None:
                held = self._enrich_in(snapshot, indicator)
                resolved[key] = held
            results.append(held)
        return results

    def invalidate(self) -> None:
        """Drop every cached result (counters survive, entries don't)."""
        with self.lock:
            self.cache.clear()

    def stats(self) -> Dict:
        """Cache and index counters for the ``/v1/stats`` endpoint."""
        snapshot = self._snapshot
        stats = {
            "cache": self.cache.stats(),
            "index": snapshot.index.stats(),
            "generation": snapshot.generation,
            "collection": {"degraded": self.degraded},
        }
        # Only services built over connector-era artifacts carry health;
        # the key is absent (not empty) otherwise, keeping the stats
        # surface of health-less deployments byte-stable.
        if self.source_health:
            stats["sources"] = {
                key: dict(held) for key, held in self.source_health.items()
            }
        return stats


def build_service(
    malgraph: MalGraph,
    capacity: int = 4096,
    engine: Optional[EnrichmentEngine] = None,
    degraded: bool = False,
    shards: int = DEFAULT_CACHE_SHARDS,
    source_health: Optional[Dict[str, Dict]] = None,
    webhook: Optional[WebhookDispatcher] = None,
) -> EnrichmentService:
    """Index a built graph and wrap it in a cached service.

    ``degraded`` marks a service built over a collection artifact that
    was assembled under graceful degradation (data was given up);
    ``shards`` sets the LRU shard count (the ``repro serve --shards``
    knob); ``source_health`` is the collection run's per-connector
    lifecycle health (weights verdict confidence and surfaces in
    healthz/stats/metrics); ``webhook`` enables push of new detections
    on refresh.
    """
    if engine is None:
        engine = EnrichmentEngine(
            IntelIndex.build(malgraph), source_health=source_health
        )
    return EnrichmentService(
        engine,
        capacity=capacity,
        degraded=degraded,
        query_engine=QueryEngine.pinned(engine.index.indexes),
        shards=shards,
        source_health=source_health,
        webhook=webhook,
    )
