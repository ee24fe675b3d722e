"""Load generator: one process, at most min(2, nproc) connections.

It takes the workload seed, builds every request before timing starts,
prints ``{"msg": "ready"}``, and starts on ``go``.

* ``serve`` — a closed loop: each connection sends its half of a fixed
  request script, the next request only after the previous reply.
  Latency runs from send to last byte.
* ``ingest`` — an open loop: reads are due at a fixed rate whatever the
  server does, and run until ``stop``. Latency runs from the due time,
  so a stall also counts against the reads queued behind it; lateness
  (send time minus due time) is reported to judge the run.

The request mix and the indicator shapes are assumptions, not measured
traffic; the shares actually drawn are reported with the results.
Outputs are checked as they arrive; a failed check is a failed request.
"""

from __future__ import annotations

import argparse
import bisect
import http.client
import itertools
import json
import os
import random
import string
import sys
import threading
from typing import Dict, List, Optional
from urllib.parse import urlencode

from common import message, now_ns, read_json, write_json, zipf_weights

#: closed-loop script length per measured second, from the seed commit's
#: throughput (~200 requests/s) so a run lasts about ``--seconds``
SERVE_REQUESTS_PER_SECOND = 200
#: open-loop read rate; the seed commit sustains it without a backlog
INGEST_READS_PER_SECOND = 20
#: (share, kind) of the serve_mixed request mix
SERVE_MIX = ((60, "enrich"), (25, "batch"), (10, "query"), (5, "feed"))
#: (share, shape) of the indicators in enrich and batch requests
SHAPES = ((35, "name"), (25, "name_version"), (20, "sha256"), (10, "typo"), (10, "unpublished"))
BATCH_SIZE = 32
FEED_PAGE = 100
QUERY_PATTERNS = (
    ("1hop", "MATCH (a)-[similar]-(b) WHERE a.name = '{}' RETURN b"),
    ("2hop", "MATCH (a)-[similar]-(b)-[coexisting]-(c) WHERE a.name = '{}' RETURN c"),
    ("3hop", "MATCH (a)-[similar*1..3]-(b) WHERE a.name = '{}' RETURN b"),
)
SAFE_NAME = set(string.ascii_letters + string.digits + "._-")


def pick(rng: random.Random, table):
    return rng.choices([k for _, k in table], weights=[w for w, _ in table])[0]


class Indicators:
    """Seeded indicator draws over the served dataset (Zipf over entries)."""

    def __init__(self, universe: Dict, rng: random.Random, avoid=()):
        self.rng = rng
        self.entries = [e for e in universe["entries"] if e[4] not in avoid]
        rng.shuffle(self.entries)  # the seed decides which entries are hot
        self.cumulative = zipf_weights(len(self.entries))
        self.known = {e[1].lower() for e in self.entries}
        self.shapes: Dict[str, int] = {}

    def entry(self, need_sha: bool = False):
        while True:
            at = bisect.bisect_left(
                self.cumulative, self.rng.random() * self.cumulative[-1]
            )
            held = self.entries[min(at, len(self.entries) - 1)]
            if held[3] or not need_sha:
                return held

    def typo(self, name: str) -> str:
        at = self.rng.randrange(len(name))
        letter = self.rng.choice(string.ascii_lowercase)
        edit = self.rng.randrange(3)
        if edit == 0:
            return name[:at] + letter + name[at + 1 :]
        if edit == 1:
            return name[:at] + letter + name[at:]
        return (name[:at] + name[at + 1 :]) or letter

    def unpublished(self) -> str:
        while True:
            name = "np-" + "".join(self.rng.choices(string.ascii_lowercase, k=10))
            if name not in self.known:
                return name

    def draw(self):
        """(indicator params, expected verdict or None, node id or None)."""
        shape = pick(self.rng, SHAPES)
        self.shapes[shape] = self.shapes.get(shape, 0) + 1
        if shape == "sha256":
            eco, name, version, sha, node = self.entry(need_sha=True)
            return {"sha256": sha}, "malicious", node
        eco, name, version, sha, node = self.entry()
        if shape == "name":
            return {"name": name}, "malicious", node
        if shape == "name_version":
            return {"name": name, "version": version, "ecosystem": eco}, "malicious", node
        if shape == "typo":
            return {"name": self.typo(name)}, None, None
        return {"name": self.unpublished()}, "not_malicious", None


def query_body(rng: random.Random, seeds: List[str]):
    label, pattern = rng.choice(QUERY_PATTERNS)
    return label, json.dumps({"pattern": pattern.format(rng.choice(seeds))})


def serve_script(args, universe) -> List[tuple]:
    """(kind, method, path, body, expectation) per request, in send order."""
    rng = random.Random(args.seed)
    indicators = Indicators(universe, rng)
    seeds = [s for s in universe["similar_seeds"] if set(s) <= SAFE_NAME]
    script = []
    for _ in range(max(2, round(args.seconds * SERVE_REQUESTS_PER_SECOND))):
        kind = pick(rng, SERVE_MIX)
        if kind == "enrich":
            params, verdict, node = indicators.draw()
            script.append(("enrich", "GET", "/v1/enrich?" + urlencode(params), None, (verdict, node)))
        elif kind == "batch":
            drawn = [indicators.draw() for _ in range(BATCH_SIZE)]
            body = json.dumps({"indicators": [d[0] for d in drawn]})
            script.append(("batch", "POST", "/v1/enrich/batch", body, [(d[1], d[2]) for d in drawn]))
        elif kind == "query":
            label, body = query_body(rng, seeds)
            script.append(("query", "POST", "/v1/query", body, label))
        else:
            script.append(("feed", "GET", None, None, None))
    return script, indicators.shapes


def check_verdict(result: Dict, verdict: Optional[str], node: Optional[str]) -> Optional[str]:
    if verdict == "malicious":
        if result.get("verdict") != "malicious" or node not in result.get("matches", ()):
            return "check_exact_match"
    elif verdict == "not_malicious" and result.get("verdict") == "malicious":
        return "check_unpublished_not_malicious"
    return None


def check(kind: str, expect, status: int, data: bytes) -> Optional[str]:
    """None when the reply is right, else the failure kind."""
    if not 200 <= status < 300:
        return f"http_{status}"
    payload = json.loads(data)
    if kind == "enrich":
        return check_verdict(payload, *expect)
    if kind == "batch":
        results = payload.get("results", [])
        if len(results) != len(expect):
            return "check_batch_count"
        for result, (verdict, node) in zip(results, expect):
            failure = check_verdict(result, verdict, node)
            if failure:
                return failure
        return None
    if kind == "query":
        if expect == "1hop" and payload.get("row_count", 0) < 1:
            return "check_query_rows"
        return None
    if kind == "feed":
        return None if payload.get("count") == len(payload.get("items", ())) else "check_feed_page"
    if kind == "published":
        if payload.get("verdict") != "malicious" or expect not in payload.get("matches", ()):
            return "stale_read"
    return None


class Client:
    """One connection's worth of requests (HTTP/1.0 server: one TCP
    connection per request, reopened by http.client as needed)."""

    ids = itertools.count(1)

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body=None):
        """(status, body bytes, request id); status 0 = transport error."""
        request_id = str(next(self.ids))
        headers = {"X-Bench-Id": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read(), request_id
        except (OSError, http.client.HTTPException) as failure:
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            return 0, type(failure).__name__.encode(), request_id


def closed_loop(port: int, script, records: List) -> None:
    client = Client(port)
    cursor = None
    for kind, method, path, body, expect in script:
        if kind == "feed":
            params = {"limit": FEED_PAGE, **({"cursor": cursor} if cursor else {})}
            path = "/v1/feed?" + urlencode(params)
        sent = now_ns()
        status, data, request_id = client.request(method, path, body)
        done = now_ns()
        failure = check(kind, expect, status, data) if status else f"error_{data.decode()}"
        if kind == "feed" and failure is None:
            cursor = json.loads(data).get("next_cursor")
        records.append((kind, request_id, sent, sent, done, failure))


def changing_nodes(universe, manifest) -> set:
    """Node ids whose answers the batches change: every node whose name or
    sha256 a batch touches.

    A reader holding an older generation still walks the graph that
    ``refresh_from_events(malgraph=...)`` evolves in place, and a walk that
    meets a node being removed fails with HTTP 500 (the snapshot-isolation
    gap); the base reads steer clear of those nodes."""
    touched = set(manifest["touched"])
    names = {e[1].lower() for e in universe["entries"] if e[4] in touched}
    shas = {e[3] for e in universe["entries"] if e[4] in touched and e[3]}
    return {e[4] for e in universe["entries"] if e[1].lower() in names or e[3] in shas}


def ingest_slots(args, universe, manifest) -> List[tuple]:
    """(kind, payload) per due slot. Half the reads ask for a package a
    batch published, resolved at run time from the epochs the reader has
    seen via a pre-drawn u; the rest use serve_mixed's indicator mix over
    entries whose answers the batches do not change."""
    rng = random.Random(args.seed)
    indicators = Indicators(universe, rng, avoid=changing_nodes(universe, manifest))
    slots = []
    for _ in range(int(INGEST_READS_PER_SECOND * (6 * args.seconds + 30))):
        if rng.random() < 0.5:
            slots.append(("published", rng.random()))
        else:
            params, verdict, node = indicators.draw()
            slots.append(("enrich", ("/v1/enrich?" + urlencode(params), (verdict, node))))
    return slots, indicators.shapes


def open_loop(port: int, slots, manifest, start_ns: int, next_slot, stop, records) -> None:
    client = Client(port)
    published = [
        (batch["epoch"], row) for batch in manifest["batches"] for row in batch["published"]
    ]
    epochs = [epoch for epoch, _ in published]
    interval = 1e9 / INGEST_READS_PER_SECOND
    while not stop.is_set():
        at = next(next_slot)
        if at >= len(slots):
            return
        due = start_ns + int(at * interval)
        wait = (due - now_ns()) / 1e9
        if wait > 0 and stop.wait(wait):
            return
        kind, payload = slots[at]
        sent = now_ns()
        if kind == "published":
            # Only packages of batches whose epoch this reader has seen
            # may be asked for; the warm-up batch's epoch is always seen.
            status, data, request_id = client.request("GET", "/v1/healthz")
            expect = None
            if status == 200:
                seen = bisect.bisect_right(epochs, json.loads(data)["epoch"])
                eco, name, version, expect = published[int(payload * seen)][1]
                params = {"name": name, "version": version, "ecosystem": eco}
                status, data, request_id = client.request("GET", "/v1/enrich?" + urlencode(params))
        else:
            path, expect = payload
            status, data, request_id = client.request("GET", path)
        failure = check(kind, expect, status, data) if status else f"error_{data.decode()}"
        records.append((kind, request_id, due, sent, now_ns(), failure))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serve", "ingest"))
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--universe", required=True)
    parser.add_argument("--manifest", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    connections = min(2, os.cpu_count() or 1)
    universe = read_json(args.universe)
    if args.mode == "serve":
        script, shapes = serve_script(args, universe)
    else:
        manifest = read_json(args.manifest)
        slots, shapes = ingest_slots(args, universe, manifest)
    message("ready")
    if sys.stdin.readline().strip() != "go":
        return 1
    records: List[tuple] = []
    if args.mode == "serve":
        workers = [
            threading.Thread(target=closed_loop, args=(args.port, script[i::connections], records))
            for i in range(connections)
        ]
    else:
        stop = threading.Event()
        shared = (args.port, slots, manifest, now_ns(), itertools.count(), stop, records)
        workers = [threading.Thread(target=open_loop, args=shared) for _ in range(connections)]
    for worker in workers:
        worker.start()
    if args.mode == "ingest":
        sys.stdin.readline()  # "stop": the writer has finished
        stop.set()
    for worker in workers:
        worker.join()
    write_json(
        args.out,
        {"records": records, "connections": connections, "shapes": shapes,
         "loop": "closed" if args.mode == "serve" else "open",
         "rate": INGEST_READS_PER_SECOND if args.mode == "ingest" else None},
    )
    message("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
