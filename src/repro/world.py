"""World assembly: corpus + registries + mirrors + intel + collection.

:func:`build_world` wires every substrate together and plays the
simulation forward day by day; :func:`collect` then runs the Section II
pipeline against the finished world. :func:`default_world` /
:func:`default_dataset` resolve the canonical world used by the
examples, tests and benchmarks through the shared
:mod:`repro.pipeline` artifact store — fully deterministic, so every
run of every bench regenerates identical tables, and identical
configurations share one artifact across every facade in the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collection.pipeline import (
    CollectionPipeline,
    CollectionResult,
    attach_ground_truth,
)
from repro.collection.records import MalwareDataset
from repro.ecosystem.clock import STUDY_HORIZON_DAYS, SimClock
from repro.ecosystem.mirror import MirrorNetwork, build_default_mirrors
from repro.ecosystem.package import ECOSYSTEMS
from repro.ecosystem.registry import RegistryHub
from repro.intel.reports import ReportCorpus, ReportFactory
from repro.intel.sns import Tweet, build_feed
from repro.intel.sources import AttributionEngine, AttributionOutcome
from repro.intel.web import SimulatedWeb, build_web
from repro.malware.corpus import Corpus, CorpusConfig, build_corpus


@dataclass(frozen=True)
class WorldConfig:
    """Top-level knobs; everything else derives deterministically."""

    seed: int = 7
    scale: float = 1.0
    horizon: int = STUDY_HORIZON_DAYS
    #: defense-response what-if: scales every detection latency
    detection_latency_scale: float = 1.0

    def corpus_config(self) -> CorpusConfig:
        return CorpusConfig(
            seed=self.seed,
            horizon=self.horizon,
            scale=self.scale,
            detection_latency_scale=self.detection_latency_scale,
        )


@dataclass
class World:
    """A fully simulated OSS supply-chain world."""

    config: WorldConfig
    corpus: Corpus
    registries: RegistryHub
    mirrors: MirrorNetwork
    outcome: AttributionOutcome
    reports: ReportCorpus
    web: SimulatedWeb
    feed: List[Tweet]

    @property
    def horizon(self) -> int:
        return self.config.horizon


def _schedule_events(corpus: Corpus):
    """Build the per-day publish / detect / remove schedules."""
    publishes: Dict[int, list] = {}
    detects: Dict[int, list] = {}
    removes: Dict[int, list] = {}
    for benign in corpus.benign:
        publishes.setdefault(benign.release_day, []).append(
            (benign.artifact, False, 0)
        )
    for campaign, release in corpus.releases():
        publishes.setdefault(release.release_day, []).append(
            (release.artifact, True, release.downloads)
        )
        if release.detection_day is not None:
            detects.setdefault(release.detection_day, []).append(release.artifact.id)
        if release.removal_day is not None:
            removes.setdefault(release.removal_day, []).append(release.artifact.id)
    return publishes, detects, removes


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Generate the corpus, run the registry/mirror simulation and the
    intel layer. Deterministic in ``config``."""
    config = config or WorldConfig()
    corpus = build_corpus(config.corpus_config())
    registries = RegistryHub(ECOSYSTEMS)
    mirrors = build_default_mirrors({eco: registries[eco] for eco in ECOSYSTEMS})

    publishes, detects, removes = _schedule_events(corpus)
    clock = SimClock(horizon=config.horizon)
    for day in range(config.horizon + 1):
        for artifact, malicious, downloads in publishes.get(day, ()):
            record = registries[artifact.ecosystem].publish(
                artifact, day, malicious=malicious
            )
            record.downloads = downloads
        for package in detects.get(day, ()):
            registries[package.ecosystem].mark_detected(
                package.name, package.version, day, by="scanner"
            )
        for package in removes.get(day, ()):
            registries[package.ecosystem].remove(package.name, package.version, day)
        mirrors.tick(day)
        if day < config.horizon:
            clock.advance(1)

    outcome = AttributionEngine(seed=config.seed + 3).attribute(corpus)
    report_corpus = ReportFactory(seed=config.seed + 5).build(outcome)
    web = build_web(report_corpus, outcome, seed=config.seed + 7)
    feed = build_feed(outcome, seed=config.seed + 9)
    return World(
        config=config,
        corpus=corpus,
        registries=registries,
        mirrors=mirrors,
        outcome=outcome,
        reports=report_corpus,
        web=web,
        feed=feed,
    )


def collect(world: World, with_ground_truth: bool = True) -> CollectionResult:
    """Run the Section II collection pipeline against a world."""
    pipeline = CollectionPipeline(
        world.registries, world.mirrors, profiles=world.outcome.profiles
    )
    result = pipeline.run(world.outcome, world.web, world.feed, world.reports)
    if with_ground_truth:
        attach_ground_truth(result.dataset, world.corpus)
    return result


def run_collection(
    world: World,
    plan=None,
    policy=None,
    with_ground_truth: bool = True,
) -> CollectionResult:
    """Run the collection pipeline, optionally under fault injection.

    ``plan`` is a :class:`repro.reliability.FaultPlan`; when given (and
    not null), the world's web, mirror fleet and open-dataset feeds are
    wrapped in faulty facades and the pipeline runs resiliently: faults
    are retried per ``policy`` (a :class:`repro.reliability.RetryPolicy`,
    default budget otherwise), what still fails is quarantined, and the
    result's :class:`CollectionStats` carries the
    :class:`~repro.reliability.DegradationReport`. With ``plan=None``
    this is exactly :func:`collect`.
    """
    if plan is None:
        return collect(world, with_ground_truth=with_ground_truth)
    from repro.reliability import (
        FaultyMirrorNetwork,
        FaultyWeb,
        ResilienceContext,
    )

    ctx = ResilienceContext(policy=policy, plan=plan)
    if ctx.injector is not None:
        web = FaultyWeb(world.web, ctx.injector, clock=ctx.clock)
        mirrors = FaultyMirrorNetwork(world.mirrors, ctx.injector)
    else:  # null plan: resilient bookkeeping over the pristine substrate
        web = world.web
        mirrors = world.mirrors
    pipeline = CollectionPipeline(
        world.registries,
        mirrors,
        profiles=world.outcome.profiles,
        resilience=ctx,
    )
    result = pipeline.run(world.outcome, web, world.feed, world.reports)
    if with_ground_truth:
        attach_ground_truth(result.dataset, world.corpus)
    return result


def _runtime(
    seed: int, scale: float, horizon: int, detection_latency_scale: float
):
    # Imported lazily: repro.pipeline imports this module for the stage
    # build functions.
    from repro.pipeline import PipelineRuntime

    return PipelineRuntime(
        WorldConfig(
            seed=seed,
            scale=scale,
            horizon=horizon,
            detection_latency_scale=detection_latency_scale,
        )
    )


def default_world(
    seed: int = 7,
    scale: float = 1.0,
    horizon: int = STUDY_HORIZON_DAYS,
    detection_latency_scale: float = 1.0,
) -> World:
    """The canonical deterministic world (shared via the artifact store)."""
    return _runtime(seed, scale, horizon, detection_latency_scale).world()


def default_collection(
    seed: int = 7,
    scale: float = 1.0,
    horizon: int = STUDY_HORIZON_DAYS,
    detection_latency_scale: float = 1.0,
) -> CollectionResult:
    """The canonical collection run against :func:`default_world`.

    Routed through the shared store, so an identical collection is never
    re-run — not per facade, not per key, and (with the disk tier) not
    even per process.
    """
    return _runtime(seed, scale, horizon, detection_latency_scale).collection()


def default_dataset(
    seed: int = 7,
    scale: float = 1.0,
    horizon: int = STUDY_HORIZON_DAYS,
    detection_latency_scale: float = 1.0,
) -> MalwareDataset:
    """The canonical collected dataset (shared via the artifact store)."""
    return default_collection(seed, scale, horizon, detection_latency_scale).dataset

