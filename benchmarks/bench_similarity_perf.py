"""Similar-edge stage performance: serial vs parallel, cold vs warm.

Standalone script (not a pytest bench) so CI can run it in fast mode:

    PYTHONPATH=src python benchmarks/bench_similarity_perf.py --fast

Four comparisons, each with a hard correctness gate before any number
is reported:

1. **serial vs parallel** ``MalGraph.build`` — the parallel graph must
   serialise byte-identically to the serial one (``jobs`` is an
   execution knob, never a result knob);
2. **cold vs warm embedding cache** — a similarity-knob sweep over a
   warmed cache must skip 100% of re-embeds and produce the same
   groups; and the delta engine's ``IncrementalSimilarStage``, run on
   a memory-only store a cold build just filled, must embed nothing
   and return the same groups, labels and ``kmeans_k``;
3. **first delta on a graph loaded from disk** — one
   ``PipelineRuntime`` warms a temporary disk store and a second one,
   with a fresh ``ArtifactStore`` over it, loads the MALGRAPH (as a new
   process serving a cached corpus does). That graph's first
   ``apply_delta``, given no store, must embed nothing (every vector
   comes from the disk tier of the store the graph records) and must
   equal the same batch applied to a graph built without a store, byte
   for byte after canonical serialisation;
4. **cold vs warm-start** ``grow_kmeans`` — on recoverable structure the
   warm-started growth loop must reach the identical partition, in no
   more total Lloyd iterations.

Speedups depend on the host (a single-core runner cannot show a
parallel win); the correctness gates do not.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.delta import GraphEvent
from repro.core.delta.similar import IncrementalSimilarStage
from repro.core.kmeans import grow_kmeans
from repro.core.malgraph import MalGraph
from repro.core.similarity import SimilarityConfig, cluster_artifacts
from repro.io.malgraphs import canonical_malgraph_json, malgraph_to_dict
from repro.pipeline import PipelineReport, PipelineRuntime
from repro.pipeline.store import ArtifactStore
from repro.world import WorldConfig, build_world, collect


def _timed(fn, rounds: int):
    best, result = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _canonical(malgraph: MalGraph) -> bytes:
    return json.dumps(malgraph_to_dict(malgraph), sort_keys=True).encode()


def bench_serial_vs_parallel(dataset, jobs: int, rounds: int) -> None:
    print(f"\n== serial vs parallel MalGraph.build (jobs={jobs}) ==")
    serial_s, serial = _timed(
        lambda: MalGraph.build(dataset, SimilarityConfig(jobs=1)), rounds
    )
    parallel_s, parallel = _timed(
        lambda: MalGraph.build(dataset, SimilarityConfig(jobs=jobs)), rounds
    )
    assert _canonical(serial) == _canonical(parallel), (
        "parallel build is not byte-identical to serial"
    )
    print(f"serial   {serial_s:8.3f}s")
    print(
        f"parallel {parallel_s:8.3f}s   speedup {serial_s / parallel_s:5.2f}x"
        "   (byte-identical: yes)"
    )


def bench_embedding_cache(entries, rounds: int) -> None:
    print("\n== cold vs warm embedding cache (min_similarity sweep) ==")
    artifacts = [e.artifact for e in entries]
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-embed-cache-"))
    try:
        cold_s, cold = _timed(
            lambda: cluster_artifacts(
                artifacts,
                SimilarityConfig(),
                store=ArtifactStore(cache_dir=cache_dir),
            ),
            1,
        )
        sweep_s, sweep = _timed(
            lambda: cluster_artifacts(
                artifacts,
                SimilarityConfig(min_similarity=0.5),
                store=ArtifactStore(cache_dir=cache_dir),
            ),
            rounds,
        )
        same_knobs_s, warm = _timed(
            lambda: cluster_artifacts(
                artifacts,
                SimilarityConfig(),
                store=ArtifactStore(cache_dir=cache_dir),
            ),
            rounds,
        )
        assert sweep.timings.cache_misses == 0, "sweep re-embedded vectors"
        assert warm.timings.cache_misses == 0, "warm run re-embedded vectors"
        assert warm.groups == cold.groups, "warm groups differ from cold"
        unique = cold.timings.unique_artifacts
        print(
            f"cold  {cold_s:8.3f}s   ({cold.timings.cache_misses}/{unique} embedded)"
        )
        print(
            f"sweep {sweep_s:8.3f}s   speedup {cold_s / sweep_s:5.2f}x"
            f"   (re-embeds skipped: {unique}/{unique})"
        )
        print(
            f"warm  {same_knobs_s:8.3f}s   speedup {cold_s / same_knobs_s:5.2f}x"
            "   (identical groups: yes)"
        )

        # the delta stage fills its vectors from the same store tiers
        memory = ArtifactStore(disk_enabled=False)
        built = cluster_artifacts(artifacts, SimilarityConfig(), store=memory)
        stage_s, stage = _timed(
            lambda: IncrementalSimilarStage(SimilarityConfig()).recompute(
                entries, store=memory
            ),
            rounds,
        )
        assert stage.timings.cache_misses == 0, "delta stage re-embedded vectors"
        assert stage.groups == built.groups, "delta stage groups differ"
        assert np.array_equal(stage.labels, built.labels), "delta labels differ"
        assert stage.kmeans_k == built.kmeans_k, "delta stage k differs"
        print(
            f"stage {stage_s:8.3f}s   speedup {cold_s / stage_s:5.2f}x"
            f"   (memory tier, re-embeds skipped: {unique}/{unique},"
            " identical groups/labels/k: yes)"
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench_loaded_graph_delta(config: WorldConfig) -> None:
    print("\n== first delta on a graph loaded from a warm disk store ==")
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-loaded-graph-"))

    def runtime() -> PipelineRuntime:
        return PipelineRuntime(
            config,
            store=ArtifactStore(cache_dir=cache_dir, disk_enabled=True),
            report=PipelineReport(),
        )

    try:
        runtime().warm()
        fresh = runtime()
        loaded = fresh.malgraph()
        assert loaded.store is fresh.store, "the loaded graph lost its store"
        # a removal and a detection: the batch publishes no new payload
        gone, seen = [
            e for e in loaded.dataset.available_entries() if e.artifact.code_files()
        ][:2]
        events = [
            GraphEvent.package_removed(gone.package),
            GraphEvent.package_detected(
                dataclasses.replace(seen, downloads=seen.downloads + 1)
            ),
        ]
        storeless = MalGraph.build(loaded.dataset)
        storeless_s, (expected, storeless_delta) = _timed(
            lambda: storeless.apply_delta(events), 1
        )
        loaded_s, (evolved, delta) = _timed(lambda: loaded.apply_delta(events), 1)
        assert delta.embed_cache_misses == 0, "a loaded graph re-embedded vectors"
        assert canonical_malgraph_json(evolved) == canonical_malgraph_json(
            expected
        ), "a loaded graph's delta differs from a store-less one"
        unique = delta.embed_cache_hits
        print(
            f"store-less first apply {storeless_s:8.3f}s"
            f"   ({storeless_delta.embed_cache_misses}/{unique} embedded)"
        )
        print(
            f"loaded     first apply {loaded_s:8.3f}s"
            f"   speedup {storeless_s / loaded_s:5.2f}x"
            f"   (disk tier, re-embeds skipped: {unique}/{unique},"
            " byte-identical: yes)"
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench_warm_start(rounds: int) -> None:
    print("\n== cold vs warm-start grow_kmeans (separable structure) ==")

    def blobs(seed: int, centers=6, per=200, dim=64, noise=0.01):
        rng = np.random.default_rng(seed)
        points = []
        for _ in range(centers):
            center = rng.normal(size=dim)
            center /= np.linalg.norm(center)
            blob = center + noise * rng.normal(size=(per, dim))
            points.append(blob / np.linalg.norm(blob, axis=1, keepdims=True))
        return np.vstack(points)

    X = blobs(0)
    cold_s, (cold, cold_trace) = _timed(
        lambda: grow_kmeans(X, start_k=3, seed=0, max_k=6), rounds
    )
    warm_s, (warm, warm_trace) = _timed(
        lambda: grow_kmeans(X, start_k=3, seed=0, max_k=6, warm_start=True),
        rounds,
    )
    parts = lambda r: sorted(tuple(sorted(m.tolist())) for m in r.clusters())
    assert parts(cold) == parts(warm), "warm start changed the partition"
    cold_iters = sum(t.iterations for t in cold_trace)
    warm_iters = sum(t.iterations for t in warm_trace)
    assert warm_iters <= cold_iters, "warm start took more Lloyd iterations"
    print(f"cold  {cold_s:8.3f}s   {cold_iters:3d} Lloyd iterations")
    print(
        f"warm  {warm_s:8.3f}s   {warm_iters:3d} Lloyd iterations"
        f"   speedup {cold_s / warm_s:5.2f}x   (identical partition: yes)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI mode: 1 round at a small scale",
    )
    args = parser.parse_args(argv)
    if args.fast:
        args.scale, args.rounds = 0.15, 1

    print(f"scale={args.scale} jobs={args.jobs} rounds={args.rounds}")
    config = WorldConfig(seed=7, scale=args.scale)
    world = build_world(config)
    dataset = collect(world).dataset
    entries = [e for e in dataset.available_entries() if e.artifact.code_files()]
    print(f"dataset: {len(dataset.entries)} entries, {len(entries)} embeddable")

    bench_serial_vs_parallel(dataset, args.jobs, args.rounds)
    bench_embedding_cache(entries, args.rounds)
    bench_loaded_graph_delta(config)
    bench_warm_start(args.rounds)
    print("\nall correctness gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
