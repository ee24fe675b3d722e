"""Incremental MALGRAPH: delta apply cost vs full rebuild.

Standalone script (not a pytest bench) so CI can run it in fast mode:

    PYTHONPATH=src python benchmarks/bench_incremental_malgraph.py --fast

For each world scale it:

1. cold-builds the MALGRAPH (the rebuild baseline);
2. applies a realistic event batch (removals + detections + publishes +
   one report, capped at ~1% of the corpus) through the delta engine,
   which evolves the graph in place, as a service refresh does — the
   *first* apply also pays the one-time ``DeltaState`` bootstrap,
   reported separately. The graph here is built without a store, so
   that first apply embeds the whole corpus into the per-SHA cache, as
   a live service over a store-less graph does once per process; a
   graph built or loaded with a pipeline store reads those vectors
   from it instead;
3. applies a second batch at steady state and then reads the graph's
   query indexes. That pair is one service refresh, the number that
   matters for a continuously-ingesting service, and it is printed as
   ``delta apply + index patch`` next to its two parts: the apply
   (``delta_apply_s``) updates the graph, and the read
   (``index_patch_s``) patches the snapshot read before the batch from
   the batch's index patch, re-deriving the DG/DeG/SG/CG groups the
   batch touched;
4. cold-rebuilds from the post-events collection and byte-compares the
   canonical serialisations, and checks the patched query indexes
   against ``build_indexes`` over the evolved graph
   (``index_build_s``): equal tables, groups included, and every
   node's ``neighbors()`` (each edge type alone and all together, in
   each direction) and ``related()`` answers equal.

The equivalence gates (byte-identity with a cold rebuild after every
batch, and the patched snapshot answering like a cold index build)
always run. At scales >= 10 the steady-state delta apply must
additionally be >= 10x faster than the full rebuild it replaces. Each
scale also records the process's peak RSS so far (VmHWM) as
``peak_rss_mb``; scales run in order in one process, so a larger
scale's figure is its own peak.

``--record FILE`` appends the numbers to a JSON trajectory file
(``BENCH_incremental.json`` at the repo root holds the reference run).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro.collection.records import CollectedReport, DatasetEntry, SourceClaim
from repro.core.delta import GraphEvent, apply_events_to_dataset
from repro.core.edges import node_id
from repro.core.graph import EdgeType
from repro.core.malgraph import MalGraph
from repro.core.query import build_indexes
from repro.ecosystem.package import PackageId, make_artifact
from repro.io.malgraphs import canonical_malgraph_json
from repro.service.index import IntelIndex
from repro.world import WorldConfig, build_world, collect

#: required delta-over-rebuild advantage at scales >= SPEEDUP_AT_SCALE
SPEEDUP_FLOOR = 10.0
SPEEDUP_AT_SCALE = 10.0

#: event batches stay below this fraction of the corpus
BATCH_FRACTION = 0.01

#: the GraphIndexes fields a patched snapshot must share with a cold build
INDEX_FIELDS = ("nodes", "attrs", "adjacency", "out", "into", "by_attr",
                "group_members", "groups_of")
#: every ``neighbors()`` types argument checked: each type alone, then all
TYPE_CHOICES = tuple((t,) for t in EdgeType) + ((),)


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _assert_same_answers(head: MalGraph, patched, cold) -> None:
    """The patched snapshot answers every neighbour question like the
    cold build: equal tables, every node's ``neighbors()`` for each
    type alone and all together in each direction, and ``related()``."""
    for name in INDEX_FIELDS:
        assert getattr(patched, name) == getattr(cold, name), (
            f"batch 2: patched query indexes differ from a cold build in {name}"
        )
    for node in cold.nodes:
        for types in TYPE_CHOICES:
            for direction in ("any", "out", "in"):
                assert patched.neighbors(node, types, direction) == cold.neighbors(
                    node, types, direction
                ), f"batch 2: neighbors({node!r}, {types}, {direction!r}) differ"
    related = IntelIndex.build(head)  # serves the patched snapshot
    assert related.indexes is patched
    for entry in head.dataset.entries:
        assert related.related(entry.package) == cold.neighbors(
            node_id(entry.package)
        )[:25], f"batch 2: related({entry.package}) differs"


def _clone_with_downloads(entry: DatasetEntry, downloads: int) -> DatasetEntry:
    return DatasetEntry(
        package=entry.package,
        claims=list(entry.claims),
        artifact=entry.artifact,
        artifact_origin=entry.artifact_origin,
        release_day=entry.release_day,
        removal_day=entry.removal_day,
        detection_day=entry.detection_day,
        downloads=downloads,
        campaign_id=entry.campaign_id,
        actor=entry.actor,
        archetype=entry.archetype,
        behavior_key=entry.behavior_key,
    )


def _published_entry(template: DatasetEntry, name: str) -> DatasetEntry:
    """A newly published package reusing an existing payload (so the
    batch exercises duplicated and similar surgery, not just node adds)."""
    eco = template.package.ecosystem
    artifact = make_artifact(eco, name, "1.0", dict(template.artifact.files))
    return DatasetEntry(
        package=PackageId(eco, name, "1.0"),
        claims=[SourceClaim(source="snyk", report_day=30, shares_artifact=True)],
        artifact=artifact,
        artifact_origin="source:delta-bench",
        release_day=28,
        downloads=3,
    )


def _batch(dataset, rng: random.Random, round_no: int):
    """One realistic event batch: k removals, k detections, k publishes
    and a report, with k sized so the batch stays <= ~1% of the corpus."""
    entries = list(dataset.entries)
    k = max(1, len(entries) // 2000)
    available = [e for e in entries if e.artifact is not None]
    picks = rng.sample(available, min(3 * k, len(available)))
    removed, detected, templates = picks[:k], picks[k : 2 * k], picks[2 * k :]
    events = []
    for held in removed:
        events.append(GraphEvent.package_removed(held.package))
    for held in detected:
        events.append(
            GraphEvent.package_detected(
                _clone_with_downloads(held, held.downloads + 10)
            )
        )
    published = []
    for i, template in enumerate(templates or available[:1]):
        fresh = _published_entry(template, f"delta-pkg-{round_no}-{i}")
        published.append(fresh)
        events.append(GraphEvent.package_added(fresh))
    survivors = [e for e in detected if e not in removed] + published
    if len(survivors) >= 2:
        events.append(
            GraphEvent.report_ingested(
                CollectedReport(
                    report_id=f"r-delta-{round_no}",
                    url=f"https://intel.example/r-delta-{round_no}",
                    site="intel.example",
                    category="Security org.",
                    source="snyk",
                    publish_day=31,
                    packages=[e.package for e in survivors[:2]],
                )
            )
        )
    return events


def bench_scale(scale: float, record: list) -> None:
    print(f"\n== scale {scale:g} ==")
    rng = random.Random(13)
    world = build_world(WorldConfig(seed=7, scale=scale))
    dataset = collect(world).dataset
    print(f"dataset: {len(dataset.entries)} entries")

    started = time.perf_counter()
    base = MalGraph.build(dataset)
    cold_s = time.perf_counter() - started
    print(f"cold build: {cold_s:8.2f} s")

    # -- first batch: pays the one-time DeltaState bootstrap ---------------
    batch1 = _batch(dataset, rng, 1)
    fraction = len(batch1) / max(1, len(dataset.entries))
    assert fraction <= max(BATCH_FRACTION, 5 / len(dataset.entries)), fraction
    started = time.perf_counter()
    evolved, delta1 = base.apply_delta(batch1)
    bootstrap_s = time.perf_counter() - started
    print(
        f"delta apply #1: {bootstrap_s:6.2f} s  "
        f"({len(batch1)} events, {fraction * 100:.2f}% of corpus; "
        "includes one-time bootstrap)"
    )
    mid_dataset = apply_events_to_dataset(dataset, batch1)
    assert canonical_malgraph_json(evolved) == canonical_malgraph_json(
        MalGraph.build(mid_dataset)
    ), "batch 1: delta apply diverged from the cold rebuild"

    # -- second batch: steady state (what a live service pays) ---------------
    evolved.query_indexes()  # the snapshot a service holds before the batch
    batch2 = _batch(mid_dataset, rng, 2)
    started = time.perf_counter()
    head, delta2 = evolved.apply_delta(batch2)
    delta_s = time.perf_counter() - started
    started = time.perf_counter()
    patched = head.query_indexes()
    index_patch_s = time.perf_counter() - started
    started = time.perf_counter()
    cold_indexes = build_indexes(head.graph, head)
    index_build_s = time.perf_counter() - started
    _assert_same_answers(head, patched, cold_indexes)
    final_dataset = apply_events_to_dataset(mid_dataset, batch2)
    started = time.perf_counter()
    rebuilt = MalGraph.build(final_dataset)
    rebuild_s = time.perf_counter() - started
    assert canonical_malgraph_json(head) == canonical_malgraph_json(rebuilt), (
        "batch 2: delta apply diverged from the cold rebuild"
    )
    speedup = rebuild_s / delta_s if delta_s > 0 else float("inf")
    print(
        f"delta apply #2: {delta_s:6.2f} s  ({len(batch2)} events, steady state)"
    )
    print(f"full rebuild:   {rebuild_s:6.2f} s   speedup {speedup:6.1f}x")
    print(
        f"index patch:    {index_patch_s:8.4f} s  "
        f"(cold index build {index_build_s:.4f} s)"
    )
    print(
        f"delta apply + index patch: {delta_s + index_patch_s:8.4f} s  "
        "(one steady-state refresh)"
    )
    print("equivalence gate: byte-identical after both batches  OK")
    print("index gate: patched snapshot answers like a cold index build  OK")
    peak_rss_mb = _peak_rss_mb()
    print(f"peak RSS so far: {peak_rss_mb:8.1f} MiB (VmHWM)")

    record.append(
        {
            "scale": scale,
            "entries": len(dataset.entries),
            "batch_events": len(batch2),
            "batch_fraction": round(len(batch2) / len(dataset.entries), 5),
            "cold_build_s": round(cold_s, 4),
            "bootstrap_apply_s": round(bootstrap_s, 4),
            "delta_apply_s": round(delta_s, 4),
            "index_patch_s": round(index_patch_s, 4),
            "index_build_s": round(index_build_s, 4),
            "rebuild_s": round(rebuild_s, 4),
            "speedup": round(speedup, 2),
            "peak_rss_mb": round(peak_rss_mb, 1),
            "equivalent": True,
        }
    )

    if scale >= SPEEDUP_AT_SCALE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"delta apply only {speedup:.1f}x faster than a full rebuild "
            f"at scale {scale:g} (need >= {SPEEDUP_FLOOR:g}x)"
        )
        print(f"speedup gate: {speedup:.1f}x >= {SPEEDUP_FLOOR:g}x  OK")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[1.0, 10.0],
        help="world scales to bench (default: 1 and 10)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI mode: small scale (equivalence gates only)",
    )
    parser.add_argument(
        "--record",
        default=None,
        metavar="FILE",
        help="write the measurements to this JSON trajectory file",
    )
    args = parser.parse_args(argv)
    if args.fast:
        args.scales = [0.15]

    print(f"scales={args.scales}")
    record: list = []
    for scale in args.scales:
        bench_scale(scale, record)
    if args.record:
        Path(args.record).write_text(
            json.dumps({"bench": "incremental_malgraph", "runs": record},
                       indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote {args.record}")
    print("\nall correctness gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
