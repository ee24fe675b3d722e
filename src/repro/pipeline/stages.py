"""The stage DAG behind one runtime: ``world -> collection -> columnar``
and ``collection -> malgraph``.

:class:`PipelineRuntime` binds a configuration (``WorldConfig`` +
``SimilarityConfig``, plus an optional fault plan and retry budget) to an
:class:`~repro.pipeline.store.ArtifactStore` and a
:class:`~repro.pipeline.report.PipelineReport`. All four stages resolve
through one routine — memory tier first, then disk, then a build — and
every resolution is recorded in the report with its wall time.

The world stage is memory-only (a :class:`~repro.world.World` holds live
registries, mirrors and a simulated web; persisting it buys nothing the
downstream artifacts don't already capture). The other three persist to
disk, which is what makes a warmed cache survive into new processes. An
artifact built from a degraded collection resolves for the call but
enters neither tier unless the runtime was created with
``allow_degraded``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnarMalwareDataset

from repro.collection.pipeline import CollectionResult
from repro.collection.records import MalwareDataset
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig
from repro.pipeline.fingerprint import config_payload, fingerprint
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
from repro.world import World, WorldConfig, build_world, run_collection

STAGE_WORLD = "world"
STAGE_COLLECTION = "collection"
STAGE_MALGRAPH = "malgraph"
#: columnar encoding of the collected dataset (DESIGN.md §12) — a
#: sibling tier off the collection stage whose disk form memory-maps
STAGE_COLUMNAR = "columnar"

#: Resolution order; each stage's direct input is the one before it.
STAGES = (STAGE_WORLD, STAGE_COLLECTION, STAGE_MALGRAPH)

#: What each cold stage's artifact depends on beyond the WorldConfig.
#: The world is untouched by fault injection (faults wrap its finished
#: substrates at collection time); the columnar tier re-encodes the
#: collection losslessly, so it shares that stage's inputs.
_INPUTS = {
    STAGE_WORLD: (),
    STAGE_COLLECTION: ("fault_plan", "max_retries"),
    STAGE_COLUMNAR: ("fault_plan", "max_retries"),
    STAGE_MALGRAPH: ("similarity", "fault_plan", "max_retries"),
}

#: Upstream stages a cache hit makes unnecessary (reported as elided).
_ELIDES = {
    STAGE_COLLECTION: (STAGE_WORLD,),
    STAGE_COLUMNAR: (STAGE_COLLECTION, STAGE_WORLD),
    STAGE_MALGRAPH: (STAGE_COLLECTION, STAGE_WORLD),
}


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
    group structures against the dataset the graph was built from, and
    :func:`~repro.io.malgraphs.load_malgraph` records on it the
    ``SimilarityConfig`` it was built with (the payload holds none, and
    later deltas must cluster with it) and the loading runtime's
    ``ArtifactStore`` (its embedding tiers hold the graph's vectors,
    which later deltas read instead of embedding the corpus again)."""

    def __init__(
        self,
        dataset: MalwareDataset,
        similarity: SimilarityConfig,
        store: ArtifactStore,
    ):
        self.dataset = dataset
        self.similarity = similarity
        self.store = store

    def save(self, malgraph: MalGraph, directory: Path) -> None:
        from repro.io.malgraphs import save_malgraph

        save_malgraph(malgraph, directory)

    def load(self, directory: Path) -> MalGraph:
        from repro.io.malgraphs import load_malgraph

        return load_malgraph(directory, self.dataset, self.similarity, self.store)


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
        #: plan and retry budget are part of the fingerprint of every
        #: stage after the world — a chaos run never aliases a clean
        #: artifact.
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: An artifact built from a degraded collection is refused by the
        #: cache unless the caller opts in (it would silently poison every
        #: downstream consumer of that fingerprint otherwise).
        self.allow_degraded = allow_degraded

    # -- fingerprints ------------------------------------------------------
    def _inputs(self, stage: str) -> dict:
        known = {
            "similarity": self.similarity,
            "fault_plan": self.fault_plan,
            "max_retries": getattr(self.retry_policy, "max_retries", None),
        }
        return {name: known[name] for name in _INPUTS[stage]}

    def fingerprint(self, stage: str) -> str:
        return fingerprint(stage, self.config, **self._inputs(stage))

    def _config_payload(self, stage: str) -> dict:
        return config_payload(self.config, **self._inputs(stage))

    # -- public stage accessors -------------------------------------------
    def world(self) -> World:
        return self._resolve(STAGE_WORLD, lambda _: build_world(self.config))

    def collection(self) -> CollectionResult:
        return self._resolve(
            STAGE_COLLECTION,
            lambda world: run_collection(
                world, self.fault_plan, self.retry_policy
            ),
            upstream=self.world,
            codec=CollectionCodec(),
        )

    def dataset(self) -> MalwareDataset:
        return self.collection().dataset

    def malgraph(self) -> MalGraph:
        return self._resolve(
            STAGE_MALGRAPH,
            self._build_malgraph,
            upstream=self.collection,
            codec=lambda result: MalGraphCodec(
                result.dataset, self.similarity, self.store
            ),
        )

    def columnar(self) -> "ColumnarMalwareDataset":
        """The collected dataset as a columnar corpus (lazy facade).

        Resolves memory -> disk -> build like every other stage. A disk
        hit memory-maps the arrays and elides the upstream chain: the
        world is never simulated and the collection JSONL is never
        parsed. The facade hydrates to the collected dataset's bytes.
        """
        from repro.core.columnar import ColumnarDataset, ColumnarMalwareDataset

        return self._resolve(
            STAGE_COLUMNAR,
            lambda result: ColumnarMalwareDataset(
                ColumnarDataset.from_dataset(result.dataset)
            ),
            upstream=self.collection,
            codec=ColumnarCodec(),
        )

    def warm(self) -> "PipelineRuntime":
        """Resolve the full analysis path (persisting what is cacheable)."""
        self.malgraph()
        return self

    # -- builds ------------------------------------------------------------
    def _build_malgraph(self, result: CollectionResult) -> MalGraph:
        malgraph = MalGraph.build(
            result.dataset, self.similarity, store=self.store
        )
        timings = malgraph.similar.clustering.timings
        if timings is not None:
            for name, seconds, detail in timings.rows():
                self.report.record_substage(STAGE_MALGRAPH, name, seconds, detail)
        return malgraph

    # -- resolution --------------------------------------------------------
    def _resolve(
        self,
        stage: str,
        build: Callable[[Any], Any],
        upstream: Optional[Callable[[], Any]] = None,
        codec=None,
    ) -> Any:
        """Resolve one stage: the memory tier, then disk, then ``build``.

        ``upstream`` resolves the build's input and records its own
        rows, so this stage's row is timed without it. ``codec`` is the
        disk format (``None``: memory-only), or a function of the
        upstream artifact when loading needs that artifact (the malgraph
        re-links against its dataset) — the upstream then resolves
        before the disk tier rather than only before a build. A disk
        load or build of a stage an earlier hit elided replaces that
        elided row, so the stage counts once.
        """
        fp = self.fingerprint(stage)
        started = time.perf_counter()
        status, source = STATUS_HIT, SOURCE_MEMORY
        held = self.store.get_memory(stage, fp)
        base = None
        if held is None and callable(codec):
            base = upstream()
            codec = codec(base)
            started = time.perf_counter()
        if held is None and codec is not None and self.store.has_disk(stage, fp):
            source = SOURCE_DISK
            held = self.store.get_disk(stage, fp, codec)
            if held is not None:
                self.store.put_memory(stage, fp, held)
        if held is None:
            status, source = STATUS_MISS, SOURCE_BUILD
            if base is None and upstream is not None:
                base = upstream()
                started = time.perf_counter()
            held = build(base)
            # Quarantine: an artifact that is, or was built from, a
            # degraded collection must not poison the cache — unless the
            # caller opted in, it resolves for this call and is rebuilt.
            degraded = any(
                isinstance(corpus, CollectionResult) and corpus.stats.degraded
                for corpus in (base, held)
            )
            if self.allow_degraded or not degraded:
                self.store.put_memory(stage, fp, held)
                if codec is not None:
                    self.store.put_disk(
                        stage, fp, held, codec, self._config_payload(stage)
                    )
        if source != SOURCE_MEMORY:
            # the elided stage was needed after all
            self.report.runs[:] = [
                run
                for run in self.report.runs
                if (run.stage, run.fingerprint, run.source)
                != (stage, fp, SOURCE_ELIDED)
            ]
        self.report.record(stage, status, source, time.perf_counter() - started, fp)
        if status == STATUS_HIT:
            self._record_elided(*_ELIDES.get(stage, ()))
        return held

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
