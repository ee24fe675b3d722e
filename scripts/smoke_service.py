#!/usr/bin/env python
"""Smoke test for the enrichment HTTP server.

Builds a small world, boots the server on an ephemeral port, performs
one single-indicator enrich and one batch enrich over real HTTP, and
asserts the JSON response schema. The batch also carries three names
only the squat fallback flags; each must answer as the in-process
engine answers. It then refreshes the live service with one event
batch that publishes a copy of a known artifact under a new name, and
checks over HTTP that the new generation serves it with the families a
cold index build gives. Every request goes over one persistent HTTP/1.1
connection, and the script asserts the server kept it open throughout,
across the refresh. Exits nonzero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_service.py [--seed N] [--scale F]
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import sys
import threading
from urllib.parse import quote

from repro.core.delta import GraphEvent
from repro.core.malgraph import MalGraph
from repro.ecosystem.package import PackageId, make_artifact
from repro.service import build_service
from repro.service.enrich import Indicator
from repro.service.index import IntelIndex
from repro.service.refresh import refresh_from_events
from repro.service.server import create_server, server_address
from repro.world import WorldConfig, build_world, collect

RESULT_KEYS = {
    "indicator",
    "verdict",
    "matches",
    "families",
    "campaigns",
    "actors",
    "related",
    "sources",
    "first_seen_day",
    "last_seen_day",
    "squat",
    "confidence",
}


class Client:
    """One HTTP/1.1 connection; remembers the socket each reply came on."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.sockets = []

    def fetch(self, path: str, payload=None):
        self.conn.request(
            "GET" if payload is None else "POST",
            path,
            body=None if payload is None else json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        body = response.read()
        assert response.status == 200, (path, response.status, body)
        self.sockets.append(self.conn.sock)
        return json.loads(body)

    def reused(self) -> bool:
        """True when every reply so far came on the first socket."""
        return self.sockets[0] is not None and all(
            held is self.sockets[0] for held in self.sockets
        )


def check_result(body: dict, context: str) -> None:
    assert set(body) == RESULT_KEYS, f"{context}: unexpected keys {sorted(body)}"
    assert body["verdict"] in ("malicious", "suspicious", "unknown"), context
    for key in ("matches", "families", "campaigns", "actors", "related", "sources"):
        assert isinstance(body[key], list), f"{context}: {key} is not a list"


#: one-edit typos of popular names (requests, lodash, flask, axios)
POPULAR_TYPOS = ("reqursts", "lodahs", "flaks", "axois")


def popular_typo(service) -> str:
    """The first of :data:`POPULAR_TYPOS` no collected name is near, so
    that the popular-name index, not the corpus, flags it."""
    for name in POPULAR_TYPOS:
        if not service.index.near_names(name):
            return name
    raise AssertionError(f"every one of {POPULAR_TYPOS} is near a collected name")


def corpus_typo(name: str, dataset) -> str:
    """``name`` with its last character replaced: one edit from a corpus
    name and itself no collected name."""
    taken = {entry.package.name.lower() for entry in dataset.entries}
    for letter in "qxzjkv":
        typo = name[:-1] + letter
        if typo.lower() not in taken:
            return typo
    raise AssertionError(f"no one-edit typo of {name!r} is free")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.1)
    args = parser.parse_args(argv)

    dataset = collect(build_world(WorldConfig(seed=args.seed, scale=args.scale))).dataset
    malgraph = MalGraph.build(dataset)
    service = build_service(malgraph)
    server = create_server(service, port=0)
    host, port = server_address(server)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(
        f"server up at http://{host}:{port} "
        f"over {service.index.package_count} packages"
    )
    client = Client(host, port)

    try:
        health = client.fetch("/v1/healthz")
        assert health["status"] == "ok", health
        assert health["packages"] == len(dataset), health

        known = dataset.entries[0].package
        single = client.fetch(
            f"/v1/enrich?name={quote(known.name)}"
            f"&version={quote(known.version)}&ecosystem={known.ecosystem}"
        )
        check_result(single, "single enrich")
        assert single["verdict"] == "malicious", single["verdict"]
        assert str(known) in single["matches"], single["matches"]
        print(f"enrich {known}: {single['verdict']} "
              f"({len(single['families'])} families, {len(single['sources'])} sources)")

        sha = dataset.available_entries()[0].sha256()
        # the squat fallback: a bare one-edit typo of a popular name, a
        # one-edit typo of a corpus name, and a name popular in one
        # ecosystem that squats another's
        squats = [
            {"name": popular_typo(service)},
            {"name": corpus_typo(known.name, dataset)},
            {"name": "redis"},
        ]
        indicators = [
            {"name": known.name},
            {"sha256": sha},
            {"name": "smoke-test-surely-unknown"},
            *squats,
        ]
        batch = client.fetch("/v1/enrich/batch", {"indicators": indicators})
        assert batch["count"] == len(indicators), batch
        for i, row in enumerate(batch["results"]):
            check_result(row, f"batch result {i}")
        verdicts = [row["verdict"] for row in batch["results"]]
        assert verdicts[:3] == ["malicious", "malicious", "unknown"], verdicts
        for raw, row in zip(squats, batch["results"][3:]):
            local = service.engine.enrich(Indicator.from_dict(raw)).to_dict()
            assert row == local, (raw, row, local)
        kinds = [(row["squat"] or {}).get("kind") for row in batch["results"][3:]]
        assert kinds == ["typo", "near-known", "typo"], kinds
        print(f"batch of {batch['count']}: verdicts {verdicts}")

        stats = client.fetch("/v1/stats")
        assert stats["cache"]["size"] > 0, stats

        # healthz + enrich + batch + stats == 4 observed requests
        metrics = client.fetch("/v1/metrics")
        assert metrics["total_requests"] == 4, metrics
        enrich_row = metrics["endpoints"]["/v1/enrich"]
        assert enrich_row["status"] == {"200": 1}, metrics
        assert enrich_row["latency"]["p99_ms"] is not None, metrics
        print(f"metrics: {metrics['total_requests']} requests accounted")

        # one refresh: a new name carrying a known artifact joins its
        # duplicated family in the next generation
        template = dataset.available_entries()[0]
        eco = template.package.ecosystem
        published = dataclasses.replace(
            template,
            package=PackageId(eco, "smoke-refresh-published", "1.0"),
            artifact=make_artifact(
                eco, "smoke-refresh-published", "1.0", dict(template.artifact.files)
            ),
        )
        refresh_from_events(
            service.index,
            [GraphEvent.package_added(published)],
            service=service,
            malgraph=malgraph,
        )
        health = client.fetch("/v1/healthz")
        assert health["epoch"] == 1, health
        assert health["packages"] == len(dataset) + 1, health
        fresh = client.fetch(
            f"/v1/enrich?name={published.package.name}"
            f"&version={published.package.version}&ecosystem={eco}"
        )
        check_result(fresh, "enrich after refresh")
        assert fresh["verdict"] == "malicious", fresh["verdict"]
        cold = IntelIndex.build(malgraph).families_of(published.package)
        assert fresh["families"] == cold and cold, (fresh["families"], cold)
        print(f"refresh to epoch {health['epoch']}: {published.package} "
              f"{fresh['verdict']} in {fresh['families']}")
        assert client.reused(), "the server did not keep the connection open"
        print(f"{len(client.sockets)} requests over one persistent connection")
        print("smoke OK")
        return 0
    finally:
        client.conn.close()
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
