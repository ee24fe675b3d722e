"""Concurrency hardening: thread hammer on the service, HTTP load with
exact metrics accounting over a real socket. Bounded iterations keep the
whole module inside the tier-1 budget (< 5 s)."""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import pytest

from repro.core.delta.events import GraphEvent
from repro.core.malgraph import MalGraph
from repro.service.cache import EnrichmentService, build_service
from repro.service.enrich import Indicator
from repro.service.refresh import refresh_from_events, refresh_index
from repro.service.server import create_server, server_address

from tests.core.helpers import dataset, entry

THREADS = 8
ROUNDS = 25


def _mini_service() -> Tuple[EnrichmentService, MalGraph]:
    """A hand-built eight-package service (no world simulation) and the
    graph its refreshes evolve."""
    entries = [
        entry(f"pkg-{i}", code=f"def payload():\n    return {i}\n")
        for i in range(8)
    ]
    malgraph = MalGraph.build(dataset(entries))
    return build_service(malgraph, capacity=64), malgraph


def test_thread_hammer_mixed_traffic_exact_accounting():
    """N threads x M rounds of enrich/batch/invalidate/refresh: counters
    stay exact (hits + misses == cache probes) and nothing escapes."""
    service, malgraph = _mini_service()
    extra = dataset(
        [entry("late-pkg", code="def late():\n    return 9\n")]
    )
    failures = []
    probes = threading.Lock()
    expected_probes = [0]
    barrier = threading.Barrier(THREADS)

    def count_probes(n: int) -> None:
        with probes:
            expected_probes[0] += n

    def hammer(worker: int) -> None:
        try:
            barrier.wait(timeout=10)
            for round_no in range(ROUNDS):
                op = (worker + round_no) % 4
                if op == 0:
                    service.enrich(Indicator(name=f"pkg-{round_no % 8}"))
                    count_probes(1)
                elif op == 1:
                    # 3 distinct keys + 1 intra-batch duplicate -> 3 probes
                    batch = [
                        Indicator(name=f"pkg-{(round_no + d) % 8}")
                        for d in range(3)
                    ]
                    results = service.batch_enrich(batch + [batch[0]])
                    assert len(results) == 4
                    count_probes(3)
                elif op == 2:
                    service.invalidate()
                else:
                    refresh_index(
                        service.index, extra, service=service, malgraph=malgraph
                    )
        except Exception as failure:  # noqa: BLE001 - the assertion target
            failures.append(failure)

    pool = [
        threading.Thread(target=hammer, args=(worker,))
        for worker in range(THREADS)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=30)
    assert not failures, failures
    stats = service.cache.stats()
    assert stats["hits"] + stats["misses"] == expected_probes[0]
    # the refreshed package is resolvable and the index stayed coherent
    assert service.enrich(Indicator(name="late-pkg")).verdict == "malicious"
    assert service.index.package_count == 9


def test_refresh_under_load_readers_never_see_a_torn_generation():
    """While a writer publishes generation after generation through the
    delta engine, every read resolves against exactly one snapshot: the
    two packages added together by one batch are always both visible or
    both absent, to ``batch_enrich`` and to 1-hop ``/v1/query`` alike.
    Each batch also removes the previous batch's duplicate of ``pkg-0``,
    whose ``malicious`` verdict (and so its ``related`` neighbours) every
    read asks for. No read raises, and the shard-summed hit/miss books
    and the server's request books stay exact throughout."""
    service, malgraph = _mini_service()
    server = create_server(service, port=0)
    host, port = server_address(server)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    letters = "abcdef"

    def pair(g: int):
        # letter-tripled stems keep every name pair > edit-distance 2
        # from other generations, so near-miss typosquat verdicts can
        # never blur the present/absent distinction the test relies on
        stem = letters[g] * 3
        return f"{stem}pkg-a", f"{stem}pkg-b"

    def decoy(g: int):
        return entry(f"decoy-{g}", code="def payload():\n    return 0\n")

    stop = threading.Event()
    failures = []
    probes = threading.Lock()
    expected_probes = [0]
    queries_sent = [0]

    def refresher() -> None:
        try:
            for g in range(len(letters)):
                left, right = pair(g)
                code = f"def twin():\n    return {g}\n"
                events = [
                    GraphEvent.package_added(entry(left, code=code)),
                    GraphEvent.package_added(entry(right, code=code)),
                    GraphEvent.package_added(decoy(g)),
                ]
                if g:
                    events.append(GraphEvent.package_removed(decoy(g - 1).package))
                refresh_from_events(
                    service.index, events, service=service, malgraph=malgraph
                )
                time.sleep(0.002)  # let readers overlap each generation
        except Exception as failure:  # noqa: BLE001 - the assertion target
            failures.append(failure)
        finally:
            stop.set()

    def reader(worker: int) -> None:
        try:
            rounds = 0
            while not stop.is_set() and rounds < 5000:
                left, right = pair((worker + rounds) % len(letters))
                got = service.batch_enrich(
                    [Indicator(name=left), Indicator(name=right), Indicator(name="pkg-0")]
                )
                verdicts = [r.verdict == "malicious" for r in got]
                assert verdicts[0] == verdicts[1], (
                    f"torn read: {left}={got[0].verdict} "
                    f"{right}={got[1].verdict}"
                )
                assert verdicts[2], got[2].verdict
                with probes:
                    expected_probes[0] += 3
                status, body = _post(
                    f"http://{host}:{port}/v1/query",
                    {"pattern": f"MATCH (a {{name: '{left}'}})-[duplicated]-(b) RETURN b.name"},
                )
                assert status == 200
                assert body["rows"] in ([], [[right]]), body["rows"]
                with probes:
                    queries_sent[0] += 1
                rounds += 1
        except Exception as failure:  # noqa: BLE001 - the assertion target
            failures.append(failure)

    pool = [threading.Thread(target=refresher)] + [
        threading.Thread(target=reader, args=(worker,)) for worker in range(4)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave readers inside each refresh
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in pool)
        assert not failures, failures
        stats = service.cache.stats()
        assert stats["hits"] + stats["misses"] == expected_probes[0]
        query_row = server.metrics.snapshot()["endpoints"]["/v1/query"]
        assert query_row["status"] == {"200": queries_sent[0]}
    finally:
        sys.setswitchinterval(switch)
        server.shutdown()
        server.server_close()
    # once quiet: every generation's pair resolves and nothing was lost
    for g in range(len(letters)):
        for name in pair(g):
            assert service.enrich(Indicator(name=name)).verdict == "malicious"
    related = service.enrich(Indicator(name="pkg-0")).related
    assert [n for n in related if "decoy" in n] == ["pypi:decoy-5@1.0"]
    assert service.index.package_count == 8 + 2 * len(letters) + 1
    assert service.generation == len(letters)


def test_concurrent_lru_is_exact():
    from repro.service.cache import LRUCache

    cache = LRUCache(capacity=32)
    gets = 500

    def churn(worker: int) -> None:
        for i in range(gets):
            cache.get((worker, i % 64))
            cache.put((worker, i % 64), i)

    pool = [threading.Thread(target=churn, args=(w,)) for w in range(THREADS)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == THREADS * gets
    assert stats["size"] <= 32


# -- over a real socket ------------------------------------------------------

@pytest.fixture()
def fresh_server():
    """A per-test server so metrics start from zero."""
    service, _ = _mini_service()
    server = create_server(service, port=0)
    host, port = server_address(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}", service
    server.shutdown()
    server.server_close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.load(response)


def _post(url: str, payload) -> tuple:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


def test_http_load_metrics_sum_to_requests_sent(fresh_server):
    base, _ = fresh_server
    enrich_sent = 24
    batch_sent = 8
    bad_sent = 4

    def one_request(i: int) -> int:
        if i < enrich_sent:
            status, _ = _get(f"{base}/v1/enrich?name=pkg-{i % 8}")
            return status
        if i < enrich_sent + batch_sent:
            status, _ = _post(
                f"{base}/v1/enrich/batch",
                {"indicators": [{"name": f"pkg-{i % 8}"}, {"name": "pkg-0"}]},
            )
            return status
        try:  # malformed item: 400 listing the offending index
            _post(f"{base}/v1/enrich/batch", {"indicators": [{"name": 123}]})
        except urllib.error.HTTPError as failure:
            assert failure.code == 400
            body = json.load(failure)
            assert body["index"] == 0
            assert "name" in body["error"]
            return failure.code
        raise AssertionError("malformed batch item was accepted")

    total = enrich_sent + batch_sent + bad_sent
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        statuses = list(pool.map(one_request, range(total)))
    assert statuses.count(200) == enrich_sent + batch_sent
    assert statuses.count(400) == bad_sent

    status, snap = _get(f"{base}/v1/metrics")
    assert status == 200
    endpoints = snap["endpoints"]
    assert endpoints["/v1/enrich"]["requests"] == enrich_sent
    assert endpoints["/v1/enrich"]["status"] == {"200": enrich_sent}
    batch_row = endpoints["/v1/enrich/batch"]
    assert batch_row["requests"] == batch_sent + bad_sent
    assert batch_row["status"] == {"200": batch_sent, "400": bad_sent}
    assert snap["total_requests"] == total
    for row in (endpoints["/v1/enrich"], batch_row):
        latency = row["latency"]
        assert latency["count"] == row["requests"]
        assert latency["p50_ms"] is not None
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]


def test_metrics_endpoint_counts_itself_on_later_scrapes(fresh_server):
    base, _ = fresh_server
    _get(f"{base}/v1/metrics")
    _, snap = _get(f"{base}/v1/metrics")
    assert snap["endpoints"]["/v1/metrics"]["requests"] == 1
