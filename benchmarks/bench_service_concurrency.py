"""Concurrent-load benchmark for the enrichment HTTP server (not a paper
table).

Two surfaces:

1. **pytest mode** (``pytest benchmarks/bench_service_concurrency.py``)
   boots the server on an ephemeral port over the default-world service,
   then sweeps threads x batch-size combinations driving real HTTP
   traffic from a thread pool: single-indicator ``GET /v1/enrich`` for
   batch size 1, ``POST /v1/enrich/batch`` otherwise. Reports
   requests/sec and client-observed tail latency (p50/p95/p99) per
   combination, and asserts the server's own ``/v1/metrics`` accounting
   matches the traffic sent — a lost request or a swallowed error fails
   the bench.

2. **standalone mode** (what CI runs)::

       PYTHONPATH=src python benchmarks/bench_service_concurrency.py --fast

   sweeps worker counts over the in-process read path twice — once
   against the lock-free snapshot service, once against a baseline that
   recreates the pre-snapshot design (one service-wide lock across
   every read). Each enrichment carries a fixed GIL-releasing stall
   emulating the downstream I/O a production lookup waits on; the
   contrast the gates enforce is whether those waits overlap:

   * lock-free req/s at the top worker count must scale >= 3x over one
     worker, while the locked baseline stays < 2x (the lock serialises
     the stalls, so adding workers buys ~nothing);
   * lock-free p99 latency must stay flat (within a small factor of the
     single-worker p99) — no convoy behind a service lock;
   * shard-summed cache books must be exact for every combination
     (``hits + misses == gets``);
   * a refresh-under-load pass must show no torn generations: two
     packages published together by one delta-engine batch are always
     both visible or both absent, to batch enrichment and to 1-hop
     ``/v1/query`` alike, while every read also asks for a package whose
     neighbours each batch rewrites; each reader sends its queries over
     one persistent connection that stays open while generations are
     published; no read may raise, and the cache and request books stay
     exact.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

import pytest

from repro.collection.records import (
    DatasetEntry,
    MalwareDataset,
    SourceClaim,
)
from repro.core.delta.events import GraphEvent
from repro.core.malgraph import MalGraph
from repro.ecosystem.package import PackageId, make_artifact
from repro.service.cache import EnrichmentService, build_service
from repro.service.enrich import EnrichmentEngine, Indicator
from repro.service.index import IntelIndex
from repro.service.refresh import refresh_from_events
from repro.service.server import create_server, server_address

#: lock-free req/s at the top worker count vs one worker (the tentpole gate)
SCALING_FLOOR = 3.0
#: the locked baseline must stay below this (it serialises the stalls)
LOCKED_CEILING = 2.0
#: lock-free p99 at the top worker count may grow at most this much
P99_FLAT_FACTOR = 5.0

THREAD_SWEEP = (1, 4, 8)
BATCH_SIZES = (1, 32)
REQUESTS_PER_COMBO = 200


@pytest.fixture(scope="module")
def live_server(artifacts):
    """The default-world service behind a real socket; yields the URL."""
    service = build_service(artifacts.malgraph, capacity=65_536)
    server = create_server(service, port=0)
    host, port = server_address(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", service, server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def names(artifacts) -> List[str]:
    return [e.package.name for e in artifacts.dataset.entries[:512]]


def _request(base: str, names: List[str], batch_size: int, i: int) -> Tuple[int, float]:
    """One timed request; returns (status, seconds)."""
    started = time.perf_counter()
    if batch_size == 1:
        url = f"{base}/v1/enrich?name={names[i % len(names)]}"
        with urllib.request.urlopen(url, timeout=30) as response:
            status = response.status
            response.read()
    else:
        payload = {
            "indicators": [
                {"name": names[(i + j) % len(names)]} for j in range(batch_size)
            ]
        }
        request = urllib.request.Request(
            f"{base}/v1/enrich/batch",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            status = response.status
            response.read()
    return status, time.perf_counter() - started


def _percentile(sorted_values: List[float], p: float) -> float:
    index = min(len(sorted_values) - 1, int(p * len(sorted_values)))
    return sorted_values[index]


def test_concurrent_load_sweep(live_server, names, show):
    base, _, server = live_server
    lines = [
        f"{'threads':>7} {'batch':>5} {'req/s':>10} "
        f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8}"
    ]
    sent = 0
    for batch_size in BATCH_SIZES:
        for threads in THREAD_SWEEP:
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = list(
                    pool.map(
                        lambda i: _request(base, names, batch_size, i),
                        range(REQUESTS_PER_COMBO),
                    )
                )
            elapsed = time.perf_counter() - started
            sent += REQUESTS_PER_COMBO
            assert all(status == 200 for status, _ in outcomes)
            latencies = sorted(seconds for _, seconds in outcomes)
            lines.append(
                f"{threads:>7} {batch_size:>5} "
                f"{REQUESTS_PER_COMBO / elapsed:>10.0f} "
                f"{_percentile(latencies, 0.50) * 1000:>8.2f} "
                f"{_percentile(latencies, 0.95) * 1000:>8.2f} "
                f"{_percentile(latencies, 0.99) * 1000:>8.2f}"
            )
    show("Service concurrent load (requests/sec, client latency)", "\n".join(lines))

    # the server accounted for every request we sent, none dropped
    snapshot = server.metrics.snapshot()
    assert snapshot["total_requests"] == sent
    by_endpoint = snapshot["endpoints"]
    assert by_endpoint["/v1/enrich"]["status"] == {
        "200": len(THREAD_SWEEP) * REQUESTS_PER_COMBO
    }
    assert by_endpoint["/v1/enrich/batch"]["status"] == {
        "200": len(THREAD_SWEEP) * REQUESTS_PER_COMBO
    }


def test_single_enrich_http_roundtrip(benchmark, live_server, names):
    """One warmed single-indicator HTTP round-trip (the floor latency)."""
    base, _, _ = live_server
    counter = iter(range(10_000_000))
    result = benchmark(lambda: _request(base, names, 1, next(counter)))
    assert result[0] == 200


# ---------------------------------------------------------------------------
# standalone mode: the lock-free-vs-locked scaling gates CI runs
# ---------------------------------------------------------------------------


def _mk_entry(name: str, code: str) -> DatasetEntry:
    """One synthetic malicious entry (no tests.* imports: CI runs this
    file with only ``src`` on the path)."""
    return DatasetEntry(
        package=PackageId("pypi", name, "1.0"),
        claims=[SourceClaim(source="snyk", report_day=12, shares_artifact=True)],
        artifact=make_artifact("pypi", name, "1.0", {"pkg/main.py": code}),
        artifact_origin="source:bench",
        release_day=10,
        downloads=0,
        campaign_id=None,
    )


def _bench_engine(packages: int) -> EnrichmentEngine:
    entries = [
        _mk_entry(f"corpus-{i}", f"def payload():\n    return {i}\n")
        for i in range(packages)
    ]
    dataset = MalwareDataset(entries=entries, reports=[])
    return EnrichmentEngine(IntelIndex.build(MalGraph.build(dataset)))


class _StallingEngine:
    """Adds a fixed GIL-releasing stall to every engine call, standing in
    for the downstream I/O (feed fetch, artifact read) a production
    lookup waits on. The bench contrasts whether those waits overlap
    across worker threads or serialise behind a service lock."""

    def __init__(self, inner: EnrichmentEngine, stall: float):
        self._inner = inner
        self._stall = stall

    def enrich(self, indicator: Indicator):
        time.sleep(self._stall)
        return self._inner.enrich(indicator)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class _LockedService(EnrichmentService):
    """The pre-snapshot design: one service-wide lock across every read.

    Reuses ``self.lock`` — which the lock-free service holds only for
    writes — exactly the way the old read path did, so the baseline
    differs from the real service by nothing but the lock scope.
    """

    def enrich(self, indicator: Indicator):
        with self.lock:
            return super().enrich(indicator)


def _drive(
    service: EnrichmentService, workers: int, requests: int, tag: str
) -> Tuple[float, float, float]:
    """Drive ``requests`` distinct-name enrichments; (req/s, p50, p99).

    Every name is fresh, so every request takes the miss path through
    the (stalling) engine — the worst case for read-path contention.
    """
    names = [f"{tag}-{i}-ghost" for i in range(requests)]
    latencies: List[float] = []
    collect = threading.Lock()
    counter = itertools.count()
    barrier = threading.Barrier(workers + 1)

    def run() -> None:
        local = []
        barrier.wait(timeout=30)
        while True:
            i = next(counter)
            if i >= requests:
                break
            t0 = time.perf_counter()
            service.enrich(Indicator(name=names[i]))
            local.append(time.perf_counter() - t0)
        with collect:
            latencies.extend(local)

    pool = [threading.Thread(target=run) for _ in range(workers)]
    for t in pool:
        t.start()
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for t in pool:
        t.join()
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)
    return (
        requests / elapsed,
        _percentile(ordered, 0.50) * 1000,
        _percentile(ordered, 0.99) * 1000,
    )


def _sweep(
    label: str,
    engine: EnrichmentEngine,
    locked: bool,
    worker_sweep: Tuple[int, ...],
    requests: int,
) -> Dict[int, Tuple[float, float, float]]:
    """One design's worker sweep; exact-accounting gated per combo."""
    cls = _LockedService if locked else EnrichmentService
    print(f"\n-- {label} --")
    print(f"{'workers':>7} {'req/s':>10} {'p50 ms':>8} {'p99 ms':>8}")
    results: Dict[int, Tuple[float, float, float]] = {}
    for workers in worker_sweep:
        service = cls(engine, capacity=4 * requests)
        rps, p50, p99 = _drive(service, workers, requests, f"{label}-{workers}")
        stats = service.cache.stats()
        # distinct names: every request is exactly one counted miss
        assert stats["hits"] + stats["misses"] == requests, (
            f"{label} workers={workers}: books {stats['hits']}+"
            f"{stats['misses']} != {requests} gets"
        )
        assert stats["misses"] == requests and stats["hits"] == 0
        results[workers] = (rps, p50, p99)
        print(f"{workers:>7} {rps:>10.0f} {p50:>8.2f} {p99:>8.2f}")
    return results


def _refresh_consistency_gate(readers: int, generations: int) -> None:
    """Refresh under live readers: no torn generations, no failed read,
    exact books."""
    base = [
        _mk_entry(f"corpus-{i}", f"def payload():\n    return {i}\n")
        for i in range(8)
    ]
    malgraph = MalGraph.build(MalwareDataset(entries=base, reports=[]))
    service = build_service(malgraph, capacity=1024)
    server = create_server(service, port=0)
    host, port = server_address(server)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    letters = "abcdefgh"[:generations]

    def pair(g: int) -> Tuple[str, str]:
        # letter-tripled stems keep pairs > edit-distance 2 apart, so a
        # near-miss typosquat verdict can never blur present vs absent
        stem = letters[g] * 3
        return f"{stem}pkg-a", f"{stem}pkg-b"

    def decoy(g: int) -> DatasetEntry:
        # a duplicate of corpus-0: each batch swaps corpus-0's neighbours
        return _mk_entry(f"decoy-{g}", "def payload():\n    return 0\n")

    stop = threading.Event()
    failures: List[BaseException] = []
    books = threading.Lock()
    probes = [0]
    queries = [0]

    def refresher() -> None:
        try:
            for g in range(len(letters)):
                left, right = pair(g)
                code = f"def twin():\n    return {g}\n"
                events = [
                    GraphEvent.package_added(_mk_entry(left, code)),
                    GraphEvent.package_added(_mk_entry(right, code)),
                    GraphEvent.package_added(decoy(g)),
                ]
                if g:
                    events.append(GraphEvent.package_removed(decoy(g - 1).package))
                refresh_from_events(
                    service.index, events, service=service, malgraph=malgraph
                )
                time.sleep(0.002)
        except BaseException as failure:  # noqa: BLE001 - gate target
            failures.append(failure)
        finally:
            stop.set()

    def reader(worker: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            rounds = 0
            opened = None
            while not stop.is_set() and rounds < 5000:
                left, right = pair((worker + rounds) % len(letters))
                got = service.batch_enrich(
                    [Indicator(name=left), Indicator(name=right), Indicator(name="corpus-0")]
                )
                verdicts = [r.verdict == "malicious" for r in got]
                assert verdicts[0] == verdicts[1], (
                    f"torn read: {left}={got[0].verdict} "
                    f"{right}={got[1].verdict}"
                )
                assert verdicts[2], f"corpus-0 read {got[2].verdict}"
                conn.request(
                    "POST",
                    "/v1/query",
                    body=json.dumps(
                        {
                            "pattern": f"MATCH (a {{name: '{left}'}})"
                            "-[duplicated]-(b) RETURN b.name"
                        }
                    ),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = response.read()
                assert response.status == 200, (response.status, payload)
                opened = opened or conn.sock
                assert conn.sock is not None and conn.sock is opened, (
                    "the server did not keep the query connection open"
                )
                rows = json.loads(payload)["rows"]
                assert rows in ([], [[right]]), f"torn query: {left} -> {rows}"
                with books:
                    probes[0] += 3
                    queries[0] += 1
                rounds += 1
        except BaseException as failure:  # noqa: BLE001 - gate target
            failures.append(failure)
        finally:
            conn.close()

    pool = [threading.Thread(target=refresher)] + [
        threading.Thread(target=reader, args=(w,)) for w in range(readers)
    ]
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        query_books = server.metrics.snapshot()["endpoints"]["/v1/query"]
    finally:
        server.shutdown()
        server.server_close()
    assert not failures, failures
    stats = service.cache.stats()
    assert stats["hits"] + stats["misses"] == probes[0], (
        f"refresh gate books: {stats['hits']}+{stats['misses']} "
        f"!= {probes[0]} probes"
    )
    assert query_books["status"] == {"200": queries[0]}, (
        f"refresh gate query books: {query_books['status']} != {queries[0]} sent"
    )
    assert service.generation == len(letters)
    assert service.index.package_count == 8 + 2 * len(letters) + 1
    print(
        f"refresh consistency: {probes[0]} probes and {queries[0]} 1-hop "
        f"queries on {readers} persistent connections across "
        f"{len(letters)} generations, 0 torn reads, 0 failed reads, "
        f"books exact  OK"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="lock-free vs locked read-path scaling gates"
    )
    parser.add_argument("--stall", type=float, default=0.005)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--packages", type=int, default=48)
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4, 8]
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI mode: shorter stall and fewer requests (gates still run)",
    )
    args = parser.parse_args(argv)
    if args.fast:
        args.stall, args.requests, args.packages = 0.003, 160, 24
    worker_sweep = tuple(sorted(set(args.workers)))
    low, high = worker_sweep[0], worker_sweep[-1]

    print(
        f"stall={args.stall * 1000:g}ms requests={args.requests} "
        f"workers={list(worker_sweep)}"
    )
    engine = _bench_engine(args.packages)
    stalling = _StallingEngine(engine, args.stall)

    lockfree = _sweep(
        "lock-free snapshots", stalling, False, worker_sweep, args.requests
    )
    locked = _sweep(
        "locked baseline", stalling, True, worker_sweep, args.requests
    )

    free_speedup = lockfree[high][0] / lockfree[low][0]
    locked_speedup = locked[high][0] / locked[low][0]
    p99_growth = lockfree[high][2] / max(lockfree[low][2], 1e-9)
    print(
        f"\nscaling at {high} workers: lock-free {free_speedup:.1f}x, "
        f"locked {locked_speedup:.1f}x; lock-free p99 x{p99_growth:.1f}"
    )
    assert free_speedup >= SCALING_FLOOR, (
        f"lock-free read path only {free_speedup:.1f}x at {high} workers "
        f"(need >= {SCALING_FLOOR:g}x)"
    )
    assert locked_speedup < LOCKED_CEILING, (
        f"locked baseline scaled {locked_speedup:.1f}x — the stall is no "
        f"longer serialised, so the comparison proves nothing"
    )
    assert p99_growth <= P99_FLAT_FACTOR, (
        f"lock-free p99 grew {p99_growth:.1f}x at {high} workers "
        f"(cap {P99_FLAT_FACTOR:g}x)"
    )
    print(
        f"scaling gate: {free_speedup:.1f}x >= {SCALING_FLOOR:g}x "
        f"(locked {locked_speedup:.1f}x < {LOCKED_CEILING:g}x)  OK"
    )

    _refresh_consistency_gate(readers=3, generations=4 if args.fast else 6)
    print("\nall concurrency gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
