"""The stage DAG: ``world -> collection -> malgraph`` behind one runtime.

:class:`PipelineRuntime` binds a configuration (``WorldConfig`` +
``SimilarityConfig``) to an :class:`~repro.pipeline.store.ArtifactStore`
and a :class:`~repro.pipeline.report.PipelineReport`. Each stage resolves
through the store — memory tier first, then disk, then a build — and
every resolution is recorded in the report with its wall time.

The world stage is memory-only (a :class:`~repro.world.World` holds live
registries, mirrors and a simulated web; persisting it buys nothing the
downstream artifacts don't already capture). The collection and malgraph
stages persist to disk through the :mod:`repro.io` JSON formats, which
is what makes a warmed cache survive into new processes.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnarMalwareDataset

from repro.collection.pipeline import CollectionResult
from repro.collection.records import MalwareDataset
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig
from repro.pipeline.fingerprint import (
    config_payload,
    delta_fingerprint,
    fingerprint,
)
from repro.pipeline.report import (
    PipelineReport,
    SOURCE_BUILD,
    SOURCE_DISK,
    SOURCE_ELIDED,
    SOURCE_MEMORY,
    STATUS_HIT,
    STATUS_MISS,
)
from repro.pipeline.store import ArtifactStore
from repro.world import World, WorldConfig, build_world, collect

STAGE_WORLD = "world"
STAGE_COLLECTION = "collection"
STAGE_MALGRAPH = "malgraph"
#: delta-evolved malgraph artifacts (addressed by base fp + batch hash)
STAGE_DELTA = "malgraph_delta"
#: columnar encoding of the collected dataset (DESIGN.md §12) — a
#: sibling tier off the collection stage whose disk form memory-maps
STAGE_COLUMNAR = "columnar"

#: Resolution order; each stage's direct input is the one before it.
STAGES = (STAGE_WORLD, STAGE_COLLECTION, STAGE_MALGRAPH)


class CollectionCodec:
    """Disk format for a :class:`CollectionResult`: the dataset via
    :mod:`repro.io.datasets` JSONL plus the pipeline stats as JSON."""

    STATS_FILENAME = "stats.json"

    def save(self, result: CollectionResult, directory: Path) -> None:
        import json

        from repro.io.datasets import collection_stats_to_dict, save_dataset

        save_dataset(result.dataset, directory)
        (directory / self.STATS_FILENAME).write_text(
            json.dumps(collection_stats_to_dict(result.stats), sort_keys=True)
        )

    def load(self, directory: Path) -> CollectionResult:
        import json

        from repro.io.datasets import collection_stats_from_dict, load_dataset

        dataset = load_dataset(directory)
        stats = collection_stats_from_dict(
            json.loads((directory / self.STATS_FILENAME).read_text())
        )
        return CollectionResult(dataset=dataset, stats=stats)


class MalGraphCodec:
    """Disk format for a built MALGRAPH; loading re-links the graph's
    group structures against the dataset the graph was built from."""

    def __init__(self, dataset: MalwareDataset):
        self.dataset = dataset

    def save(self, malgraph: MalGraph, directory: Path) -> None:
        from repro.io.malgraphs import save_malgraph

        save_malgraph(malgraph, directory)

    def load(self, directory: Path) -> MalGraph:
        from repro.io.malgraphs import load_malgraph

        return load_malgraph(directory, self.dataset)


class ColumnarCodec:
    """Disk format for the columnar corpus: one ``.npy`` per backing
    array plus a manifest (see :mod:`repro.core.columnar.io`). Loads
    memory-mapped, so a disk hit costs page tables — not RSS."""

    def save(self, dataset, directory: Path) -> None:
        from repro.core.columnar import ColumnarMalwareDataset, save_columnar

        columnar = (
            dataset.columnar
            if isinstance(dataset, ColumnarMalwareDataset)
            else dataset
        )
        save_columnar(columnar, directory)

    def load(self, directory: Path):
        from repro.core.columnar import ColumnarMalwareDataset, load_columnar

        return ColumnarMalwareDataset(load_columnar(directory, mmap=True))


class MalGraphBundleCodec:
    """Disk format for a delta-evolved MALGRAPH: dataset + graph in one
    directory. Unlike :class:`MalGraphCodec`, the dataset travels with
    the graph — an evolved dataset has no collection fingerprint of its
    own to re-link against."""

    def save(self, malgraph: MalGraph, directory: Path) -> None:
        from repro.io.malgraphs import save_malgraph_bundle

        save_malgraph_bundle(malgraph, directory)

    def load(self, directory: Path) -> MalGraph:
        from repro.io.malgraphs import load_malgraph_bundle

        return load_malgraph_bundle(directory)


class PipelineRuntime:
    """Resolve pipeline stages for one configuration through the store."""

    def __init__(
        self,
        config: Optional[WorldConfig] = None,
        similarity: Optional[SimilarityConfig] = None,
        store: Optional[ArtifactStore] = None,
        report: Optional[PipelineReport] = None,
        fault_plan=None,
        retry_policy=None,
        allow_degraded: bool = False,
    ):
        from repro import pipeline as _pipeline

        self.config = config if config is not None else WorldConfig()
        self.similarity = (
            similarity if similarity is not None else SimilarityConfig()
        )
        self.store = store if store is not None else _pipeline.get_store()
        self.report = report if report is not None else _pipeline.get_report()
        #: Chaos knobs (repro.reliability.FaultPlan / RetryPolicy). The
        #: plan and retry budget are part of the collection/malgraph
        #: fingerprints — a chaos run never aliases a clean artifact.
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: A degraded collection artifact is refused by the cache unless
        #: the caller opts in (it would silently poison every downstream
        #: consumer of that fingerprint otherwise).
        self.allow_degraded = allow_degraded
        #: head of the delta chain: (fingerprint, malgraph) of the last
        #: advance(); None until the first advance
        self._head_fingerprint: Optional[str] = None
        self._head_malgraph: Optional[MalGraph] = None

    # -- fingerprints ------------------------------------------------------
    def _max_retries(self) -> Optional[int]:
        if self.retry_policy is None:
            return None
        return self.retry_policy.max_retries

    def fingerprint(self, stage: str) -> str:
        if stage == STAGE_MALGRAPH:
            return fingerprint(
                stage,
                self.config,
                self.similarity,
                fault_plan=self.fault_plan,
                max_retries=self._max_retries(),
            )
        if stage in (STAGE_COLLECTION, STAGE_COLUMNAR):
            # The columnar tier is a lossless re-encoding of the
            # collection output, so it shares that stage's inputs.
            return fingerprint(
                stage,
                self.config,
                fault_plan=self.fault_plan,
                max_retries=self._max_retries(),
            )
        # The world stage is untouched by fault injection: faults wrap the
        # finished world's substrates at collection time.
        return fingerprint(stage, self.config)

    def _config_payload(self, stage: str) -> dict:
        if stage == STAGE_MALGRAPH:
            return config_payload(
                self.config,
                self.similarity,
                fault_plan=self.fault_plan,
                max_retries=self._max_retries(),
            )
        if stage in (STAGE_COLLECTION, STAGE_COLUMNAR):
            return config_payload(
                self.config,
                fault_plan=self.fault_plan,
                max_retries=self._max_retries(),
            )
        return config_payload(self.config)

    # -- public stage accessors -------------------------------------------
    def world(self) -> World:
        return self._resolve_world()

    def collection(self) -> CollectionResult:
        return self._resolve_collection()

    def dataset(self) -> MalwareDataset:
        return self.collection().dataset

    def malgraph(self) -> MalGraph:
        return self._resolve_malgraph()

    def columnar(self) -> "ColumnarMalwareDataset":
        """The collected dataset as a columnar corpus (lazy facade).

        Resolves memory -> disk -> build like every other stage. A disk
        hit memory-maps the arrays and *elides the whole upstream chain*:
        the world is never simulated and the collection JSONL is never
        parsed — the defining win of the columnar tier for analysis-only
        processes.
        """
        return self._resolve_columnar()

    def warm(self) -> "PipelineRuntime":
        """Resolve the full analysis path (persisting what is cacheable)."""
        self.malgraph()
        return self

    def advance(self, events) -> MalGraph:
        """Advance the malgraph head by one event batch (delta stage).

        The resulting artifact is addressed by
        :func:`~repro.pipeline.fingerprint.delta_fingerprint` — the head
        fingerprint chained with the batch hash — so re-running the same
        event sequence resolves from cache tier-by-tier exactly like the
        cold stages. Successive calls chain: each advance's output is
        the next one's base.
        """
        from repro.core.delta.events import event_batch_hash

        events = list(events)
        base_fp = (
            self._head_fingerprint
            if self._head_fingerprint is not None
            else self.fingerprint(STAGE_MALGRAPH)
        )
        fp = delta_fingerprint(base_fp, event_batch_hash(events))
        started = time.perf_counter()
        held = self.store.get_memory(STAGE_DELTA, fp)
        if held is not None:
            self._set_head(fp, held)
            self.report.record(
                STAGE_DELTA, STATUS_HIT, SOURCE_MEMORY,
                time.perf_counter() - started, fp,
            )
            return held
        codec = MalGraphBundleCodec()
        if self.store.has_disk(STAGE_DELTA, fp):
            held = self.store.get_disk(STAGE_DELTA, fp, codec)
            if held is not None:
                held.similarity_config = self.similarity
                self.store.put_memory(STAGE_DELTA, fp, held)
                self._set_head(fp, held)
                self.report.record(
                    STAGE_DELTA, STATUS_HIT, SOURCE_DISK,
                    time.perf_counter() - started, fp,
                )
                return held
        base = (
            self._head_malgraph
            if self._head_malgraph is not None
            else self.malgraph()
        )
        started = time.perf_counter()
        updated, delta_report = base.apply_delta(
            events, store=self.store, similarity=self.similarity
        )
        self.report.record_substage(
            STAGE_DELTA, "apply_delta", delta_report.seconds,
            {"summary": delta_report.summary()},
        )
        self.store.put_memory(STAGE_DELTA, fp, updated)
        payload = dict(self._config_payload(STAGE_MALGRAPH))
        payload["delta"] = {
            "base": base_fp,
            "batch_hash": event_batch_hash(events),
            "events": len(events),
        }
        self.store.put_disk(STAGE_DELTA, fp, updated, codec, payload)
        self.report.record(
            STAGE_DELTA, STATUS_MISS, SOURCE_BUILD,
            time.perf_counter() - started, fp,
        )
        self._set_head(fp, updated)
        return updated

    def _set_head(self, fp: str, malgraph: MalGraph) -> None:
        self._head_fingerprint = fp
        self._head_malgraph = malgraph

    # -- bookkeeping -------------------------------------------------------
    def _record(
        self, stage: str, status: str, source: str, started: float
    ) -> None:
        self.report.record(
            stage,
            status,
            source,
            time.perf_counter() - started,
            self.fingerprint(stage),
        )

    def _record_elided(self, *stages: str) -> None:
        """Stages a cache hit made unnecessary count as zero-cost hits.

        A stage this report already resolved (built, loaded or elided)
        was not made unnecessary by the hit, so it is not counted again.
        """
        resolved = {(run.stage, run.fingerprint) for run in self.report.runs}
        for stage in stages:
            fp = self.fingerprint(stage)
            if (stage, fp) not in resolved:
                self.report.record(stage, STATUS_HIT, SOURCE_ELIDED, 0.0, fp)

    # -- resolution --------------------------------------------------------
    def _resolve_world(self) -> World:
        fp = self.fingerprint(STAGE_WORLD)
        started = time.perf_counter()
        world = self.store.get_memory(STAGE_WORLD, fp)
        if world is not None:
            self._record(STAGE_WORLD, STATUS_HIT, SOURCE_MEMORY, started)
            return world
        world = build_world(self.config)
        self.store.put_memory(STAGE_WORLD, fp, world)
        self._record(STAGE_WORLD, STATUS_MISS, SOURCE_BUILD, started)
        return world

    def _resolve_collection(self) -> CollectionResult:
        fp = self.fingerprint(STAGE_COLLECTION)
        started = time.perf_counter()
        result = self.store.get_memory(STAGE_COLLECTION, fp)
        if result is not None:
            self._record(STAGE_COLLECTION, STATUS_HIT, SOURCE_MEMORY, started)
            self._record_elided(STAGE_WORLD)
            return result
        codec = CollectionCodec()
        if self.store.has_disk(STAGE_COLLECTION, fp):
            result = self.store.get_disk(STAGE_COLLECTION, fp, codec)
            if result is not None:
                self.store.put_memory(STAGE_COLLECTION, fp, result)
                self._record(STAGE_COLLECTION, STATUS_HIT, SOURCE_DISK, started)
                self._record_elided(STAGE_WORLD)
                return result
        world = self._resolve_world()
        started = time.perf_counter()
        if self.fault_plan is not None:
            from repro.world import run_collection

            result = run_collection(
                world, plan=self.fault_plan, policy=self.retry_policy
            )
        else:
            result = collect(world)
        if result.stats.degraded and not self.allow_degraded:
            # Quarantine: a degraded artifact must not poison the cache —
            # it resolves for this call only and is rebuilt next time.
            self._record(STAGE_COLLECTION, STATUS_MISS, SOURCE_BUILD, started)
            return result
        self.store.put_memory(STAGE_COLLECTION, fp, result)
        self.store.put_disk(
            STAGE_COLLECTION, fp, result, codec, self._config_payload(STAGE_COLLECTION)
        )
        self._record(STAGE_COLLECTION, STATUS_MISS, SOURCE_BUILD, started)
        return result

    def _resolve_columnar(self) -> "ColumnarMalwareDataset":
        fp = self.fingerprint(STAGE_COLUMNAR)
        started = time.perf_counter()
        held = self.store.get_memory(STAGE_COLUMNAR, fp)
        if held is not None:
            self._record(STAGE_COLUMNAR, STATUS_HIT, SOURCE_MEMORY, started)
            self._record_elided(STAGE_COLLECTION, STAGE_WORLD)
            return held
        codec = ColumnarCodec()
        if self.store.has_disk(STAGE_COLUMNAR, fp):
            held = self.store.get_disk(STAGE_COLUMNAR, fp, codec)
            if held is not None:
                self.store.put_memory(STAGE_COLUMNAR, fp, held)
                self._record(STAGE_COLUMNAR, STATUS_HIT, SOURCE_DISK, started)
                self._record_elided(STAGE_COLLECTION, STAGE_WORLD)
                return held
        from repro.core.columnar import ColumnarDataset, ColumnarMalwareDataset

        result = self._resolve_collection()
        started = time.perf_counter()
        held = ColumnarMalwareDataset(
            ColumnarDataset.from_dataset(result.dataset)
        )
        if result.stats.degraded and not self.allow_degraded:
            # Same quarantine as the collection stage: a degraded corpus
            # must not become a cached columnar artifact.
            self._record(STAGE_COLUMNAR, STATUS_MISS, SOURCE_BUILD, started)
            return held
        self.store.put_memory(STAGE_COLUMNAR, fp, held)
        self.store.put_disk(
            STAGE_COLUMNAR, fp, held, codec, self._config_payload(STAGE_COLUMNAR)
        )
        self._record(STAGE_COLUMNAR, STATUS_MISS, SOURCE_BUILD, started)
        return held

    def _resolve_malgraph(self) -> MalGraph:
        fp = self.fingerprint(STAGE_MALGRAPH)
        started = time.perf_counter()
        malgraph = self.store.get_memory(STAGE_MALGRAPH, fp)
        if malgraph is not None:
            self._record(STAGE_MALGRAPH, STATUS_HIT, SOURCE_MEMORY, started)
            self._record_elided(STAGE_COLLECTION, STAGE_WORLD)
            return malgraph
        if self.store.has_disk(STAGE_MALGRAPH, fp):
            # Loading needs the dataset, so the collection stage resolves
            # (and reports) itself; only stages nothing touched are elided.
            dataset = self.dataset()
            started = time.perf_counter()
            malgraph = self.store.get_disk(
                STAGE_MALGRAPH, fp, MalGraphCodec(dataset)
            )
            if malgraph is not None:
                # the disk format holds no SimilarityConfig; later deltas
                # must cluster with the one the graph was built with
                malgraph.similarity_config = self.similarity
                self.store.put_memory(STAGE_MALGRAPH, fp, malgraph)
                self._record(STAGE_MALGRAPH, STATUS_HIT, SOURCE_DISK, started)
                return malgraph
        dataset = self.dataset()
        started = time.perf_counter()
        malgraph = MalGraph.build(dataset, self.similarity, store=self.store)
        timings = malgraph.similar.clustering.timings
        if timings is not None:
            for name, seconds, detail in timings.rows():
                self.report.record_substage(STAGE_MALGRAPH, name, seconds, detail)
        self.store.put_memory(STAGE_MALGRAPH, fp, malgraph)
        self.store.put_disk(
            STAGE_MALGRAPH,
            fp,
            malgraph,
            MalGraphCodec(dataset),
            self._config_payload(STAGE_MALGRAPH),
        )
        self._record(STAGE_MALGRAPH, STATUS_MISS, SOURCE_BUILD, started)
        return malgraph
