"""Repo benchmark: one command runs one workload and prints every metric.

    python3 perfbench/run.py --workload cold_chain --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``cold_chain``    — world -> collect -> columnar -> MALGRAPH -> every
  experiment, in one fresh process (``chain.py``);
* ``serve_mixed``   — closed-loop mixed reads against a warm server;
* ``ingest_refresh``— event batches applied back to back while an
  open-loop read stream continues.

Every workload reports the same end-to-end metrics (``--trace 0``):
``setup_s``, ``peak_rss_mb``, ``chain_s`` (wall time of the workload's
fixed seeded work) and ``read_p50_ms`` (median latency of one result a
user waits for). Times are scaled to a nominal machine speed measured
by reference bursts taken during the run (``common.SpeedProbe``); the
raw values are in the breakdown. ``--trace 1`` runs the workload with
spans around every layer and reports the per-layer metrics instead,
writing a Chrome trace-event file and a self-time table to
``perfbench/.out/``. The last stdout line is the result JSON; the line
before it breaks the run down by operation kind, failure kind and the
workload's own figures (tail latencies, freshness, hit ratio, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request
from collections import Counter
from typing import Dict, List

from common import (
    BENCH_DIR,
    CACHE_ROOT,
    OUT_DIR,
    ROOT,
    REFERENCE_NOMINAL_S,
    SRC,
    WORLD,
    BenchError,
    SpeedProbe,
    finish,
    median,
    now_ns,
    peak_rss_kb,
    percentile,
    read_json,
    read_message,
    send,
    source_digest,
    spawn,
    steal_ticks,
    stop_all,
    write_json,
)
from tracer import chrome_trace, durations_ms, layer_self_table, self_table, self_times, total_s

#: set-ups per server run; setup_s is their median
SETUP_REPEATS = 3
#: cold chains per run, each in a fresh process; each metric is the median
#: over them (also the set-ups, one per chain)
CHAINS = 5
#: event batches per measured second (80 at 20 s, about 25 s of refreshes
#: at the seed commit)
INGEST_BATCHES_PER_SECOND = 4
#: the chain's slowest experiments at the seed commit, traced by name
SLOW_EXPERIMENTS = ("table6", "table1", "fig12")


def metric_specs() -> Dict[str, List[Dict]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def ms(ns: int) -> float:
    return ns / 1e6


# -- cold_chain ------------------------------------------------------------------
def run_cold_chain(args, out):
    """CHAINS fresh processes, each one whole chain; medians over them."""
    setups = []
    results = []
    for chain in range(CHAINS):
        path = out / f"chain-{chain}.json"
        spawned = now_ns()
        proc = spawn(
            "chain.py",
            ["--seed", str(args.seed * CHAINS + chain), "--trace", str(args.trace), "--out", str(path)],
        )
        try:
            setups.append((read_message(proc, "ready")["ns"] - spawned) / 1e9)
            read_message(proc, "done")
            finish(proc)
        finally:
            stop_all([proc])
        results.append(read_json(path))
    pinned = read_json(BENCH_DIR / "pinned.json")
    failures = Counter()
    for res in results:
        for name, digest in res["digests"].items():
            if digest != pinned[name]:
                failures[f"check_{name}_digest"] += 1
        if res["read_mismatches"]:
            failures["check_reread_differs"] += res["read_mismatches"]
    mismatches = failures["check_reread_differs"]
    ops = {
        "stage": (sum(len(r["stage_s"]) for r in results), 0),
        "render": (sum(len(r["first_render_s"]) for r in results), 0),
        "read": (sum(len(r["reads_ms"]) for r in results), mismatches),
        "digest_check": (
            sum(len(r["digests"]) for r in results),
            sum(failures.values()) - mismatches,
        ),
    }
    # Each chain is scaled by its own process's reference bursts.
    speeds = [REFERENCE_NOMINAL_S / median(r["bursts"]) for r in results]

    def chain_metrics(factors):
        """End-to-end metrics with each chain's times scaled by its factor,
        plus the p90 read latency (reported in the breakdown only)."""
        # a read is one pass rendering every experiment on the built
        # graph, as ``repro tables`` does on a warm process
        reads = [v * f for r, f in zip(results, factors) for v in r["reads_ms"]]
        return {
            "setup_s": median([s * f for s, f in zip(setups, factors)]),
            "peak_rss_mb": median([r["peak_kb"] for r in results]) / 1024,
            "chain_s": median([r["chain_s"] * f for r, f in zip(results, factors)]),
            "read_p50_ms": percentile(reads, 50),
        }, percentile(reads, 90)

    e2e, _ = chain_metrics(speeds)
    raw, read_p90_ms = chain_metrics([1.0] * CHAINS)
    # The chain with the median scaled time supplies the breakdown and trace.
    order = sorted(range(CHAINS), key=lambda i: results[i]["chain_s"] * speeds[i])
    middle = results[order[CHAINS // 2]]
    breakdown = {
        "entries": middle["entries"],
        "world": WORLD,
        "chains": CHAINS,
        "chain_s_all": [r["chain_s"] for r in results],
        "read_p90_ms": read_p90_ms,
        "speed_factors": speeds,
        "end_to_end_raw": raw,
        "stage_s": middle["stage_s"],
        "stage_rss_mb": {k: v / 1024 for k, v in middle["rss_kb"].items()},
        "tables_s": sum(middle["first_render_s"].values()),
        "chain_cpu_s": middle["chain_cpu_s"],
        "digests": middle["digests"],
    }
    layers = chain_layers(middle) if args.trace else None
    traces = {"chain": middle["trace"]["spans"]} if args.trace else None
    return e2e, ops, failures, breakdown, layers, traces


def chain_layers(res) -> Dict[str, float]:
    trace, books = res["trace"], res["books"]
    spans, counts, totals = trace["spans"], trace["counts"], trace["totals"]
    selfs = self_times(spans)

    def self_s(name):
        return sum(selfs[s[0]] for s in spans if s[2] == name) / 1e9

    rss = res["rss_kb"]
    first = res["first_render_s"]
    return {
        "malware.corpus_s": total_s(spans, "malware.build_corpus"),
        "ecosystem.publish_s": total_s(spans, "ecosystem.publish"),
        "ecosystem.publishes": len(durations_ms(spans, "ecosystem.publish")),
        "ecosystem.mirror_sync_s": total_s(spans, "ecosystem.mirror_sync"),
        "ecosystem.mirror_syncs": len(durations_ms(spans, "ecosystem.mirror_sync")),
        "ecosystem.live_snapshot_calls": counts.get("ecosystem.live_snapshot", 0),
        "intel.attribute_s": total_s(spans, "intel.attribute"),
        "intel.reports_s": total_s(spans, "intel.reports"),
        "intel.web_s": total_s(spans, "intel.build_web", "intel.build_feed"),
        "world.self_s": self_s("world.build_world"),
        "world.rss_mb": rss["world"] / 1024,
        "connectors.pull_s": total_s(spans, "connectors.pull"),
        "connectors.records": totals.get("connectors.records", 0),
        "crawler.crawl_s": total_s(spans, "crawler.crawl"),
        "crawler.pages_fetched": books["pages_fetched"],
        "crawler.reports_per_page": books["reports_extracted"] / max(1, books["pages_fetched"]),
        "collection.recover_s": total_s(spans, "collection.recover"),
        "collection.recovery_ratio": books["recovery_recovered"] / max(1, books["recovery_attempted"]),
        "collection.self_s": self_s("collection.collect"),
        "collection.rss_mb": rss["collection"] / 1024,
        "columnar.encode_s": total_s(spans, "columnar.encode"),
        "columnar.rss_mb": rss["columnar"] / 1024,
        "embedding.embed_s": total_s(spans, "embedding.embed_many"),
        "embedding.unique": books["unique_artifacts"],
        "embedding.dedup_ratio": books["unique_artifacts"] / max(1, books["artifacts"]),
        "similarity.cluster_s": total_s(spans, "similarity.grow_kmeans"),
        "similarity.kmeans_iters": totals.get("similarity.kmeans_iters", 0),
        "similarity.split_s": books["split_s"],
        "malgraph.self_s": self_s("malgraph.build"),
        "malgraph.rss_mb": rss["malgraph"] / 1024,
        "analysis.tables_s": sum(first.values()),
        **{f"analysis.{key}_s": first[key] for key in SLOW_EXPERIMENTS},
    }


# -- the two server workloads -------------------------------------------------------
def ensure_warm():
    """The benchmark's own artifact cache for this source tree, warmed once."""
    cache = CACHE_ROOT / source_digest()
    if not (cache / "universe.json").is_file():
        proc = spawn("server.py", ["warm", "--cache", str(cache)])
        try:
            read_message(proc, "done")
            finish(proc)
        finally:
            stop_all([proc])
    return cache


def start_server(mode, cache, args, out, batches):
    spawned = now_ns()
    proc = spawn(
        "server.py",
        [mode, "--cache", str(cache), "--seed", str(args.seed), "--batches", str(batches),
         "--trace", str(args.trace), "--manifest", str(out / "manifest.json"),
         "--out", str(out / "server.json")],
    )
    try:
        ready = read_message(proc, "ready")
    except BaseException:
        stop_all([proc])
        raise
    return proc, ready, (spawned, ready["ns"])


def run_server_workload(args, out, mode):
    cache = ensure_warm()
    batches = round(args.seconds * INGEST_BATCHES_PER_SECOND) if mode == "ingest" else 0
    procs = []
    setups = []
    probe = SpeedProbe()
    try:
        probe.start()
        for _ in range(SETUP_REPEATS - 1):
            proc, _, setup = start_server(mode, cache, args, out, batches)
            procs.append(proc)
            setups.append(setup)
            send(proc, "quit")
            finish(proc)
        server, ready, setup = start_server(mode, cache, args, out, batches)
        procs.append(server)
        setups.append(setup)
        gen = spawn(
            "loadgen.py",
            [mode, "--port", str(ready["port"]), "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--universe", str(cache / "universe.json"),
             "--manifest", str(out / "manifest.json"), "--out", str(out / "gen.json")],
        )
        procs.append(gen)
        read_message(gen, "ready")
        if mode == "ingest":
            send(server, "go")
        send(gen, "go")
        if mode == "ingest":
            read_message(server, "writer_done")
            send(gen, "stop")
        read_message(gen, "done")
        finish(gen)
        peak_kb = peak_rss_kb(ready["pid"])
        with urllib.request.urlopen(
            f"http://127.0.0.1:{ready['port']}/v1/stats", timeout=30
        ) as reply:
            stats = json.loads(reply.read())
        probe.stop()
        send(server, "stop")
        read_message(server, "done")
        finish(server)
    finally:
        probe.stop()
        stop_all(procs)
    srv = read_json(out / "server.json")
    gen_res = read_json(out / "gen.json")
    records = gen_res["records"]
    failures = Counter(r[5] for r in records if r[5])
    ops = {}
    for kind in sorted({r[0] for r in records}):
        mine = [r for r in records if r[0] == kind]
        ops[kind] = (len(mine), sum(1 for r in mine if r[5]))
    latency = [ms(r[4] - r[2]) for r in records]
    cache_stats = stats["cache"]
    lookups = cache_stats["hits"] + cache_stats["misses"]
    breakdown = {
        "entries": srv["entries"],
        "world": WORLD,
        "loop": gen_res["loop"],
        "connections": gen_res["connections"],
        "indicator_shares": {
            k: v / max(1, sum(gen_res["shapes"].values())) for k, v in gen_res["shapes"].items()
        },
        "request_shares": {k: v[0] / max(1, len(records)) for k, v in ops.items()},
        "cache_hit_ratio": cache_stats["hits"] / max(1, lookups),
        "cache_evictions": cache_stats["evictions"],
        "read_p90_ms": percentile(latency, 90),
        "read_p99_ms": percentile(latency, 99),
    }
    for kind in ("enrich", "batch", "query", "feed", "published"):
        mine = [ms(r[4] - r[2]) for r in records if r[0] == kind]
        if mine:
            breakdown[f"{kind}_p50_ms"] = percentile(mine, 50)
            breakdown[f"{kind}_p99_ms"] = percentile(mine, 99)
    if mode == "serve":
        window = (min(r[3] for r in records), max(r[4] for r in records))
        breakdown["req_per_s"] = len(records) / ((window[1] - window[0]) / 1e9)
    else:
        writer = srv["writer"]
        window = (writer[0][0], writer[-1][1])
        freshness = [ms(done - handed) for handed, done, _ in writer]
        breakdown.update(
            batches=len(writer),
            events_per_batch=writer[0][2],
            freshness_p50_ms=percentile(freshness, 50),
            freshness_p90_ms=percentile(freshness, 90),
            read_rate_per_s=gen_res["rate"],
            gen_late_p99_ms=percentile([ms(r[3] - r[2]) for r in records], 99),
        )
        ops["batch_refresh"] = (len(writer), 0)
        for name, passed in srv["checks"].items():
            ops[name] = (1, 0 if passed else 1)
            if not passed:
                failures[f"check_{name}"] += 1
    raw = {
        "setup_s": median([(end - start) / 1e9 for start, end in setups]),
        "peak_rss_mb": peak_kb / 1024,
        "chain_s": (window[1] - window[0]) / 1e9,
        "read_p50_ms": percentile(latency, 50),
    }
    # Server and generator share both cores, so the probe thread's bursts
    # time the machine the workload ran on: set-ups are scaled by the speed
    # over the set-up phase, the timed window's figures by the speed in it.
    # Reads beside the writer are not: they mostly wait for the writer to
    # hand over the GIL, on the interpreter's wall-clock switch interval.
    speed = probe.factor(*window)
    e2e = {
        "setup_s": raw["setup_s"] * probe.factor(setups[0][0], setups[-1][1]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "chain_s": raw["chain_s"] * speed,
        "read_p50_ms": raw["read_p50_ms"] * (speed if mode == "serve" else 1.0),
    }
    breakdown.update(speed_factor=speed, speed_samples=len(probe.samples), end_to_end_raw=raw)
    layers = traces = None
    if args.trace:
        layers = server_layers(srv, gen_res, stats)
        traces = {
            "server": srv["trace"]["spans"],
            "generator": [
                (i, 0, f"gen.{r[0]}", r[3], r[4], 0, r[1]) for i, r in enumerate(records, 1)
            ],
        }
    return e2e, ops, failures, breakdown, layers, traces


def server_layers(srv, gen_res, stats) -> Dict[str, float]:
    trace = srv["trace"]
    spans, totals = trace["spans"], trace["totals"]
    selfs = self_times(spans)
    batch_spans = [s for s in spans if s[6] and s[6].startswith("batch-")]

    def pct(name, p, among=spans):
        return percentile(durations_ms(among, name), p)

    handler = {s[6]: s for s in spans if s[2] == "server.request"}
    waits = [
        ms(r[4] - r[3]) - ms(handler[r[1]][4] - handler[r[1]][3])
        for r in gen_res["records"]
        if r[1] in handler
    ]
    index_builds = durations_ms(spans, "query.build_indexes") + durations_ms(
        spans, "query.patch_indexes"
    )
    refreshes = [s for s in batch_spans if s[2] == "refresh.batch"]
    writer = srv["writer"]
    wall_ns = (writer[-1][1] - writer[0][0]) if writer else 0
    cache_stats = stats["cache"]
    lookups = cache_stats["hits"] + cache_stats["misses"]
    return {
        "embedding.embed_s": total_s(spans, "embedding.embed_many"),
        "similarity.cluster_s": total_s(spans, "similarity.grow_kmeans"),
        "similarity.kmeans_iters": totals.get("similarity.kmeans_iters", 0),
        "io.collection_load_s": total_s(spans, "io.collection_load"),
        "io.malgraph_load_s": total_s(spans, "io.malgraph_load"),
        "index.build_s": total_s(spans, "index.build"),
        "index.near_names_p50_ms": pct("index.near_names", 50),
        "index.near_names_p99_ms": pct("index.near_names", 99),
        "index.near_names_calls": len(durations_ms(spans, "index.near_names")),
        "index.related_p50_ms": pct("index.related", 50),
        "index.clone_p50_ms": pct("index.clone", 50, batch_spans),
        "index.replace_groups_p50_ms": pct("index.replace_groups", 50, batch_spans),
        "enrich.engine_p50_ms": pct("enrich.engine", 50),
        "enrich.engine_p99_ms": pct("enrich.engine", 99),
        "cache.hit_ratio": cache_stats["hits"] / max(1, lookups),
        "cache.evictions": cache_stats["evictions"],
        "server.self_p50_ms": percentile(
            [selfs[s[0]] / 1e6 for s in handler.values()], 50
        ),
        "server.self_p99_ms": percentile(
            [selfs[s[0]] / 1e6 for s in handler.values()], 99
        ),
        "server.wait_p50_ms": percentile(waits, 50),
        "feed.page_p50_ms": pct("feed.page", 50),
        "query.run_p50_ms": pct("query.run", 50),
        "query.run_p99_ms": pct("query.run", 99),
        "query.index_build_p50_ms": percentile(index_builds, 50),
        "query.index_builds": len(index_builds),
        "delta.apply_p50_ms": pct("delta.apply", 50, batch_spans),
        "delta.apply_p90_ms": pct("delta.apply", 90, batch_spans),
        "delta.events": totals.get("delta.events", 0),
        "delta.embedded": totals.get("delta.embedded", 0),
        "refresh.self_p50_ms": percentile([selfs[s[0]] / 1e6 for s in refreshes], 50),
        "refresh.publish_p50_ms": pct("refresh.publish", 50, batch_spans),
        "refresh.busy_share": sum(s[4] - s[3] for s in refreshes) / wall_ns if wall_ns else 0.0,
        "gen.late_p99_ms": percentile(
            [ms(r[3] - r[2]) for r in gen_res["records"]], 99
        ) if gen_res["loop"] == "open" else 0.0,
    }


WORKLOADS = {
    "cold_chain": run_cold_chain,
    "serve_mixed": lambda args, out: run_server_workload(args, out, "serve"),
    "ingest_refresh": lambda args, out: run_server_workload(args, out, "ingest"),
}


def write_trace(args, traces) -> None:
    """Chrome trace plus self-time tables; span ids are per process."""
    label = f"{args.workload}-{args.seed}"
    write_json(OUT_DIR / f"trace-{label}.json", chrome_trace(traces))
    write_json(
        OUT_DIR / f"selftime-{label}.json",
        {
            process: {"layers": layer_self_table(spans), "spans": self_table(spans)}
            for process, spans in traces.items()
        },
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'repro'}")
        specs = metric_specs()
        out = OUT_DIR / f"{args.workload}-trace{args.trace}"
        out.mkdir(parents=True, exist_ok=True)
        stolen = steal_ticks()
        e2e, ops, failures, breakdown, layers, traces = WORKLOADS[args.workload](args, out)
        # Time the hypervisor gave to other machines during the run: a
        # run that lost much of it measured a contended machine.
        breakdown["host_steal_s"] = (steal_ticks() - stolen) / os.sysconf("SC_CLK_TCK")
    except (BenchError, OSError, ValueError, KeyError) as failure:
        print(f"perfbench: {type(failure).__name__}: {failure}", file=sys.stderr)
        return 2

    if args.trace:
        write_trace(args, traces)
        values = {**{spec["name"]: 0.0 for spec in specs["per_layer"]}, **layers}
        values.update({f"traced.{name}": value for name, value in e2e.items()})
        chosen = specs["per_layer"]
    else:
        values = e2e
        chosen = specs["end_to_end"]
    attempted = sum(a for a, _ in ops.values())
    failed = sum(f for _, f in ops.values())
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "operations": {k: {"attempted": a, "failed": f} for k, (a, f) in ops.items()},
                "failures": dict(failures),
                "end_to_end": e2e,
                "breakdown": breakdown,
            },
            sort_keys=True,
        )
    )
    # ``correct`` is about the answers: a failed check (a wrong verdict, a
    # stale read, a digest or graph mismatch) makes it false. A request that
    # got no answer (HTTP error) is a failed operation but no wrong answer.
    wrong = sum(n for kind, n in failures.items() if not kind.startswith(("http_", "error_")))
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                    for spec in chosen
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
