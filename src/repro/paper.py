"""One-stop facade for regenerating the paper's evaluation.

:class:`PaperArtifacts` resolves the expensive pipeline stages (world,
collection, MALGRAPH) through the shared :mod:`repro.pipeline` artifact
store and exposes one method per table/figure, each returning a typed
result object with a ``render()`` method. The benchmark harness is a
thin wrapper over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.analysis import (
    ActivePeriodCdf,
    CampaignTimeline,
    DgSizeCdf,
    DiversityTable,
    DownloadEvolution,
    FreshnessTable,
    GraphStatsTable,
    MissingRateTable,
    OperationDistribution,
    OverlapMatrix,
    ReleaseTimeline,
    ReportInventory,
    SourceInventory,
    TopIdnTable,
    UnavailabilityCauses,
    compute_active_periods,
    compute_dg_size_cdf,
    compute_diversity,
    compute_download_evolution,
    compute_freshness,
    compute_graph_stats,
    compute_missing_rates,
    compute_operation_distribution,
    compute_overlap_matrix,
    compute_release_timeline,
    compute_report_inventory,
    compute_source_inventory,
    compute_top_idn,
    compute_unavailability_causes,
    pick_example_campaign,
)
from repro.collection.pipeline import CollectionResult
from repro.collection.records import MalwareDataset
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig
from repro.ecosystem.clock import STUDY_HORIZON_DAYS
from repro.pipeline import PipelineRuntime
from repro.world import World, WorldConfig


class PaperArtifacts:
    """World + dataset + MALGRAPH for one configuration, lazily resolved.

    Stages resolve through the shared :mod:`repro.pipeline` artifact
    store, so two facades over the same configuration (or a facade and a
    ``repro.world`` default, or a fresh process reading a warmed disk
    cache) share one copy of each artifact.
    """

    def __init__(
        self,
        config: Optional[WorldConfig] = None,
        similarity: Optional[SimilarityConfig] = None,
        runtime: Optional[PipelineRuntime] = None,
    ):
        self.config = config or WorldConfig()
        self.similarity = similarity if similarity is not None else SimilarityConfig()
        self.runtime = runtime or PipelineRuntime(self.config, self.similarity)
        self._world: Optional[World] = None
        self._collection: Optional[CollectionResult] = None
        self._malgraph: Optional[MalGraph] = None

    # -- pipeline stages -----------------------------------------------------
    @property
    def world(self) -> World:
        if self._world is None:
            self._world = self.runtime.world()
        return self._world

    @property
    def collection(self) -> CollectionResult:
        if self._collection is None:
            self._collection = self.runtime.collection()
        return self._collection

    @property
    def dataset(self) -> MalwareDataset:
        return self.collection.dataset

    @property
    def malgraph(self) -> MalGraph:
        if self._malgraph is None:
            self._malgraph = self.runtime.malgraph()
        return self._malgraph

    def warm(self) -> "PaperArtifacts":
        """Resolve every analysis-path stage (and persist the cacheable
        ones), so later accesses — and later processes — start warm."""
        self.malgraph
        self.collection
        return self

    # -- experiments ------------------------------------------------------
    def table1_sources(self) -> SourceInventory:
        return compute_source_inventory(self.dataset)

    def fig2_timeline(self) -> ReleaseTimeline:
        return compute_release_timeline(self.dataset)

    def table2_malgraph(self) -> GraphStatsTable:
        return compute_graph_stats(self.malgraph)

    def fig3_example_subgraph(self):
        """Fig. 3: one example malicious package group."""
        from repro.analysis.subgraph import compute_example_subgraph

        return compute_example_subgraph(self.malgraph)

    def table3_reports(self) -> ReportInventory:
        return compute_report_inventory(self.dataset)

    def table4_overlap(self) -> OverlapMatrix:
        return compute_overlap_matrix(self.dataset)

    def fig4_dg_cdf(self) -> DgSizeCdf:
        return compute_dg_size_cdf(self.dataset)

    def table5_freshness(self) -> FreshnessTable:
        return compute_freshness(self.dataset)

    def table6_missing(self) -> MissingRateTable:
        return compute_missing_rates(self.dataset)

    def fig5_causes(self) -> UnavailabilityCauses:
        return compute_unavailability_causes(self.dataset, self.world.mirrors)

    def table7_diversity(self) -> DiversityTable:
        return compute_diversity(self.malgraph)

    def fig8_campaign(self) -> Optional[CampaignTimeline]:
        return pick_example_campaign(self.malgraph)

    def fig9_active_periods(self) -> ActivePeriodCdf:
        return compute_active_periods(self.malgraph)

    def fig11_downloads(self) -> DownloadEvolution:
        return compute_download_evolution(self.malgraph)

    def fig12_operations(self) -> OperationDistribution:
        return compute_operation_distribution(self.malgraph)

    def table8_idn(self) -> TopIdnTable:
        return compute_top_idn(self.malgraph)

    def insights(self):
        """The four learned lessons, measured (intro Findings paragraph)."""
        from repro.analysis.insights import compute_insights

        return compute_insights(self)


@lru_cache(maxsize=8)
def _cached_artifacts(
    config: WorldConfig, similarity: SimilarityConfig
) -> PaperArtifacts:
    # Keyed on the *complete* configuration (every WorldConfig and
    # SimilarityConfig field), so configurations differing only in
    # horizon, detection_latency_scale or a similarity knob can no
    # longer alias to one bundle. The stages themselves are shared via
    # the pipeline store, so extra facade instances are cheap.
    return PaperArtifacts(config, similarity).warm()


def default_artifacts(
    seed: int = 7,
    scale: float = 1.0,
    horizon: int = STUDY_HORIZON_DAYS,
    detection_latency_scale: float = 1.0,
    similarity: Optional[SimilarityConfig] = None,
) -> PaperArtifacts:
    """The canonical, fully warmed artifact bundle (memoised)."""
    config = WorldConfig(
        seed=seed,
        scale=scale,
        horizon=horizon,
        detection_latency_scale=detection_latency_scale,
    )
    return _cached_artifacts(
        config, similarity if similarity is not None else SimilarityConfig()
    )
