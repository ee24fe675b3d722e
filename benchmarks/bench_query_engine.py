"""Query engine performance: index build cost, query throughput, and
the indexed-vs-naive-scan speedup.

Standalone script (not a pytest bench) so CI can run it in fast mode:

    PYTHONPATH=src python benchmarks/bench_query_engine.py --fast

For each world scale it measures:

1. **index build time** — one ``build_indexes`` pass over the built
   MALGRAPH (the cost the per-graph cache amortises away);
2. **queries/sec and p95 latency** for 1-, 2- and 3-hop patterns seeded
   from an indexed name filter (the planner's fast path), plus "2-hop
   clique" and "3-hop clique" patterns seeded from the name with the
   most similar neighbours: a large similar group makes their results
   the largest, the shape of the slowest ``/v1/query`` requests a
   server sees;
3. **indexed vs naive-scan speedup** — the same patterns executed with
   planning disabled (full node scan from the leftmost variable).

Every pattern passes a hard correctness gate before any number is
reported: the indexed and naive executors must return identical row
sets (both surfaces canonically order rows, so tuple equality). The
two share the hop traversal, so the variable-length patterns must also
equal the rows of an independent per-node breadth-first search over
``neighbors()`` (:func:`_bfs_rows`). At scales >= 10 the indexed path
must additionally be >= 10x faster than the naive scan on at least one
pattern.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.core.malgraph import MalGraph
from repro.core.query import QueryEngine, build_indexes
from repro.world import WorldConfig, build_world, collect

#: required indexed-over-naive advantage at scales >= SPEEDUP_AT_SCALE
SPEEDUP_FLOOR = 10.0
SPEEDUP_AT_SCALE = 10.0


def _p95(samples) -> float:
    ordered = sorted(samples)
    return ordered[int(0.95 * (len(ordered) - 1))]


def _bfs_rows(indexes, name: str, types, max_hops: int):
    """The rows of ``MATCH (a)-[types*1..max_hops]-(b) WHERE a.name =
    name RETURN b``, from a per-node breadth-first search that reads
    every visited node's whole ``neighbors()`` (no executor code)."""
    bindings = []
    for a in indexes.lookup("name", name):
        seen = {a}
        frontier = [a]
        for _ in range(max_hops):
            found = set()
            for node in frontier:
                found.update(n for n in indexes.neighbors(node, types) if n not in seen)
            seen |= found
            frontier = sorted(found)
            bindings.extend((a, b) for b in frontier)
    return [(b,) for _, b in sorted(bindings)]


def _patterns(engine: QueryEngine):
    """(label, query, BFS rows or None) triples seeded from names that
    actually have edges."""
    from repro.core.graph import EdgeType

    indexes = engine.indexes()
    degree = {
        node: len(indexes.neighbors(node, (EdgeType.SIMILAR,)))
        for node in indexes.nodes
    }
    seeds = [
        indexes.node_attrs(node)["name"] for node in indexes.nodes if degree[node]
    ]
    if not seeds:
        raise SystemExit("no similar edges at this scale; nothing to bench")
    name = seeds[len(seeds) // 2]
    clique = indexes.node_attrs(max(indexes.nodes, key=degree.__getitem__))["name"]
    two_hop = "MATCH (a)-[similar]-(b)-[coexisting]-(c) WHERE a.name = '{}' RETURN c"
    three_hop = "MATCH (a)-[similar*1..3]-(b) WHERE a.name = '{}' RETURN b"
    similar = (EdgeType.SIMILAR,)
    # selectivity lives in WHERE: the planner seeds from the name index,
    # the naive baseline scans every node and filters at the end
    return [
        ("1-hop", f"MATCH (a)-[similar]-(b) WHERE a.name = '{name}' RETURN b", None),
        ("2-hop", two_hop.format(name), None),
        ("3-hop", three_hop.format(name), _bfs_rows(indexes, name, similar, 3)),
        ("2-hop clique", two_hop.format(clique), None),
        ("3-hop clique", three_hop.format(clique), _bfs_rows(indexes, clique, similar, 3)),
    ]


def bench_scale(scale: float, repeats: int, naive_rounds: int) -> None:
    print(f"\n== scale {scale:g} ==")
    world = build_world(WorldConfig(seed=7, scale=scale))
    dataset = collect(world).dataset
    malgraph = MalGraph.build(dataset)
    print(f"dataset: {len(dataset.entries)} entries")

    started = time.perf_counter()
    indexes = build_indexes(malgraph.graph, malgraph)
    build_s = time.perf_counter() - started
    print(
        f"index build: {build_s * 1000:8.1f} ms"
        f"   ({len(indexes.nodes)} nodes, "
        f"{sum(len(v) for v in indexes.by_attr.values())} index buckets)"
    )

    engine = QueryEngine(malgraph)
    engine.indexes()  # warm the per-graph cache
    best_speedup = 0.0
    for label, query, bfs_rows in _patterns(engine):
        indexed_result = engine.run(query)
        t0 = time.perf_counter()
        naive_result = engine.run(query, naive=True)
        first_naive = time.perf_counter() - t0
        assert indexed_result.rows == naive_result.rows, (
            f"{label}: indexed and naive row sets differ"
        )
        if bfs_rows is not None:
            assert list(indexed_result.rows) == bfs_rows, (
                f"{label}: rows differ from a per-node BFS over neighbors()"
            )

        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine.run(query)
            samples.append(time.perf_counter() - t0)
        indexed_s = statistics.median(samples)

        # a naive round that already takes seconds needs no repetition
        naive_samples = [first_naive]
        if first_naive < 2.0:
            for _ in range(naive_rounds):
                t0 = time.perf_counter()
                engine.run(query, naive=True)
                naive_samples.append(time.perf_counter() - t0)
        naive_s = statistics.median(naive_samples)

        speedup = naive_s / indexed_s if indexed_s > 0 else float("inf")
        best_speedup = max(best_speedup, speedup)
        print(
            f"{label:>12}: {1.0 / indexed_s:9.0f} q/s"
            f"   p95 {_p95(samples) * 1000:7.3f} ms"
            f"   naive {naive_s * 1000:8.3f} ms"
            f"   speedup {speedup:7.1f}x"
            f"   ({indexed_result.row_count} rows, identical: yes"
            f"{', equal to BFS' if bfs_rows is not None else ''})"
        )

    if scale >= SPEEDUP_AT_SCALE:
        assert best_speedup >= SPEEDUP_FLOOR, (
            f"indexed executor only {best_speedup:.1f}x faster than naive "
            f"scan at scale {scale:g} (need >= {SPEEDUP_FLOOR:g}x)"
        )
        print(f"speedup gate: {best_speedup:.1f}x >= {SPEEDUP_FLOOR:g}x  OK")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[1.0, 10.0],
        help="world scales to bench (default: 1 and 10)",
    )
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--naive-rounds", type=int, default=5)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI mode: small scale, few repeats (correctness gates only)",
    )
    args = parser.parse_args(argv)
    if args.fast:
        args.scales, args.repeats, args.naive_rounds = [0.15], 30, 2

    print(f"scales={args.scales} repeats={args.repeats}")
    for scale in args.scales:
        bench_scale(scale, args.repeats, args.naive_rounds)
    print("\nall correctness gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
