#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every ``repro`` module, collects public classes and functions
(honouring ``__all__`` where defined) and emits a markdown reference:
one section per module, one entry per public item with its signature
and the first paragraph of its docstring.

Run from the repository root::

    python scripts/gen_api_docs.py            # writes docs/API.md
    python scripts/gen_api_docs.py --check    # exit 1 if out of date
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

import repro

HTTP_API = """\
## HTTP API contract

The enrichment server (`repro serve`, `repro.service.server`) speaks
JSON over seven endpoints:

| Endpoint | Method | Payload |
|---|---|---|
| `/v1/healthz` | GET | `{"status": "ok" or "degraded", "packages": N}` |
| `/v1/stats` | GET | `{"cache": {...}, "index": {...}, "generation": N, "collection": {"degraded": bool}}` |
| `/v1/metrics` | GET | see below |
| `/v1/enrich?name=&version=&sha256=&ecosystem=` | GET | one `EnrichmentResult` |
| `/v1/enrich/batch` | POST | `{"count": N, "results": [...]}` |
| `/v1/query` | POST | `{"pattern": "<query>"}` → query result, see below |
| `/v1/feed?cursor=&limit=` | GET | one page of the detection feed, see below |

### `GET /v1/metrics`

Per-endpoint request counters, status-code counts, returned-row
totals, and latency percentiles estimated from a fixed-bucket
histogram (`repro.service.metrics`):

```json
{
  "endpoints": {
    "/v1/enrich": {
      "requests": 1204,
      "status": {"200": 1200, "400": 4},
      "rows_returned": 0,
      "latency": {
        "count": 1204, "sum_seconds": 1.73, "max_ms": 21.5,
        "p50_ms": 1.0, "p95_ms": 2.5, "p99_ms": 10.0
      }
    }
  },
  "total_requests": 1204
}
```

`rows_returned` accumulates the row counts of successful `/v1/query`
responses and the item counts of `/v1/feed` pages (always `0` for
the other endpoints).

Requests to paths outside the known set pool under the `"other"`
endpoint; status `0` counts clients that disconnected before a reply
could be sent.

`/v1/healthz` reports `"degraded"` (still HTTP `200` — the service
itself is healthy) when the backing collection artifact was built
under a fault plan and lost data; see `repro.reliability`. When the
artifact carries per-source connector lifecycle health
(`repro.connectors`), the body grows a `"sources"` map of
`{"<source>": "healthy" | "degraded" | "dark" | "recovering"}`; the
key is absent for artifacts that predate connectors.

`/v1/stats` additionally carries `"generation"` — the monotonically
increasing id of the published service snapshot, bumped by every
refresh (`repro.service.refresh`). The `"cache"` section reports the
shard-summed books of the N-way sharded LRU (`"shards"` included);
`hits + misses` always equals the number of cache probes, across
shards and across refreshes. Connector-era services also carry a
`"sources"` section with each connector's full
`SourceHealth.to_dict()` (state, failure/quarantine counters,
transition ledger).

When source health is present, `GET /v1/metrics` grows a top-level
`"connectors"` section: the same per-source health dicts plus the
feed exporter's pagination books (`pages_served`,
`cursors_expired`, `generations_cached`). A service built with a
webhook dispatcher adds a `"webhooks"` section with its exact
delivery books (`enqueued == delivered + dead_lettered + pending`).

### Rate limiting

With `repro serve --rate-limit REQ_PER_S` (or
`create_server(rate_limit=...)`), every request outside `/v1/healthz`
first passes a per-client token bucket (`repro.service.ratelimit`):
continuous refill at the configured rate up to a burst ceiling
(`--burst`, default = the rate, floor 1). Clients are identified by
the `X-Client-Id` header when present, else the peer address.

A client over budget receives `429` with a `Retry-After` header
(whole seconds, rounded up) and body:

```json
{"error": "rate limit exceeded", "retry_after_seconds": 2}
```

Liveness probes are exempt: `/v1/healthz` never answers `429`. When a
limiter is configured, `GET /v1/metrics` grows a top-level
`"rate_limiter"` section with exact books
(`allowed + rejected ==` checks):

```json
{
  "rate_limiter": {
    "rate_per_client": 50.0, "burst": 50.0,
    "clients": 3, "allowed": 1200, "rejected": 17
  }
}
```

### Request framing

* Connections are persistent (HTTP/1.1): a client may send request
  after request, pipelined or not, on one socket, and the server keeps
  it open until the client closes it, sends `Connection: close` or
  speaks HTTP/1.0, or leaves it idle for 30 seconds. A reply carries
  `Connection: close`, and the server then closes the socket, when the
  request declared a body (a `Content-Length` other than 0, or any
  `Transfer-Encoding`) that was not read in full: those bytes are never
  parsed as a next request. `Expect: 100-continue` gets `100 Continue`
  only when the declared length is accepted; otherwise the `400` or
  `413` comes at once.
* `Content-Length` is validated before the body is touched: a
  non-numeric header answers a structured `400`, a negative one
  answers `400` (never a read-to-EOF hang), and conflicting duplicate
  headers answer `400`.
* POST bodies are capped (`create_server(max_body_bytes=...)`,
  default 16 MiB): an over-cap `Content-Length` answers `413` before
  a single payload byte is read, and the connection is closed.
* `/v1/enrich` query strings are strict: unknown parameter names,
  repeated parameters, and blank values (`?name=&sha256=x`) each
  answer `400` instead of being silently ignored, first-wins, or
  dropped.

### `POST /v1/query`

Runs one graph query (`repro.core.query`) against the service's
MALGRAPH. Request body: `{"pattern": "<query>"}` — `pattern` must be a
non-empty string no longer than the server's query-length cap
(default 4096 characters, `create_server(max_query_length=...)`).
Success is `200` with:

```json
{
  "columns": ["a.name", "b.name"],
  "rows": [["left-pad", "1eft-pad"]],
  "row_count": 1,
  "elapsed_ms": 0.41,
  "plan": "seed (a) from index name='left-pad' (~1 candidates)"
}
```

Validation failures are `400`: non-object bodies, missing or
non-string `pattern`, over-cap patterns, and semantic errors return
`{"error": "<message>"}`; syntax errors additionally carry the
character offset and a caret-rendered excerpt as
`{"error": ..., "offset": N, "detail": "..."}`. A server whose
backing service was built without a query engine replies `503`.

#### Query grammar

One statement per request, either `MATCH` or `CALL`:

```
MATCH (a {ecosystem: 'npm'})-[similar*1..2]-(b)-[coexisting]-(c)
WHERE c.campaign = 'CAMP-07' AND NOT b.family IS NULL
RETURN b.name, c.campaign ORDER BY b.name LIMIT 20

CALL shortest_path('actor:lofygang', 'npm:left-pad', 'dependency')
CALL neighborhood('cg:CG-0012', 2)
```

* **Node pattern** — `(var)` or `(var {attr: value, ...})`; inline
  properties are equality filters.
* **Edge pattern** — `-[type|type2*lo..hi]->`, `<-[...]-` or
  undirected `-[...]-`. Types are `duplicated`, `dependency`,
  `similar`, `coexisting`; omitting the type spans all of them.
  `*` repeats a hop: `*n` exactly, `*lo..hi` a range, `*lo..`
  unbounded above (a node matches at its *shortest* distance).
  Direction only constrains `dependency` edges; the other relations
  are symmetric.
* **WHERE** — comparisons `= != < <= > >=` over `var.attr`,
  `IS NULL` / `IS NOT NULL`, combined with `AND`/`OR`/`NOT` and
  parentheses. `AND` binds tighter than `OR`.
* **RETURN** — variables (`a` → node id) or attributes (`a.name`),
  or `count(*)`; `ORDER BY <item> [DESC]` and `LIMIT n` optional.
* **CALL procedures** — `shortest_path(a, b[, edge_types])` and
  `neighborhood(x, k[, edge_types])`. Node selectors accept an exact
  node id, a bare package name, or `attr:value` over any indexed
  attribute (including group ids such as `cg:CG-0003` and
  `actor:<alias>`); `edge_types` is a `|`-separated list.

### `GET /v1/feed`

A STIX-ish export of every detection the service holds
(`repro.service.feed`), paginated with opaque cursors that survive
index refreshes. Also available offline as `repro feed` (same JSON,
same cursors). A page:

```json
{
  "generation": 4,
  "total": 434,
  "offset": 0,
  "count": 100,
  "items": [
    {
      "type": "indicator",
      "id": "indicator--npm--left-pad--1.0.0",
      "name": "Malicious package npm/left-pad@1.0.0",
      "labels": ["malicious-activity"],
      "pattern": "[package:ecosystem = 'npm' AND package:name = 'left-pad' AND package:version = '1.0.0']",
      "pattern_type": "package-coordinate",
      "valid_from_day": 100,
      "detected_day": 120,
      "removed_day": null,
      "sha256": "…",
      "external_references": [
        {"source_name": "maloss", "report_day": 120, "shares_artifact": true}
      ]
    }
  ],
  "next_cursor": "eyJnIjo0LCJvIjoxMDB9"
}
```

* **Cursors are generation-tagged.** Each cursor encodes the snapshot
  generation it was minted against, and the server keeps the last few
  generations' item lists immutable — so a walk started before a
  refresh keeps seeing exactly the items of its own generation: zero
  duplicated, zero missed, even with a publish landing between every
  pair of page requests. A fresh walk (no cursor) always starts on
  the current generation. Follow `next_cursor` until it is `null`.
* **Expiry is explicit.** A cursor whose generation has been evicted
  answers `410 Gone` — never a silently wrong page:

  ```json
  {
    "error": "…",
    "expired_generation": 0,
    "current_generation": 5,
    "restart": "/v1/feed"
  }
  ```

* **Validation.** `limit` must be an integer in `[1, 1000]`; unknown,
  repeated, or blank query parameters and malformed cursors answer
  `400`. A service built without a feed exporter replies `503`.

### Webhook push

`repro serve --webhook URL` (or
`build_service(..., webhook=WebhookDispatcher(url))`) POSTs one event
to the subscriber whenever a refresh publishes new detections:

```json
{"event": "new-detections", "generation": 5, "count": 2, "items": [...]}
```

`items` are the same indicator objects `/v1/feed` serves — only the
entries *new* in that generation; a republish with no additions sends
nothing. Deliveries retry with exponential backoff; an exhausted
delivery lands in a bounded dead-letter book
(`WebhookDispatcher.redeliver_dead()` re-queues it), and the exact
books are surfaced as the `"webhooks"` section of `/v1/metrics`.

### Error responses

Every error is JSON. Validation failures are `400` with
`{"error": "<message>"}`; malformed batch items additionally carry the
offending item's position as `{"error": ..., "index": i}`. Oversized
batches are `413`. Unexpected server-side failures never drop the
connection without a reply: they return `500` with
`{"error": "internal server error", "error_id": "<12-hex id>"}` where
the id correlates with the server's stderr log line. A `500` carries
`Connection: close`, and the server then closes the connection.
"""


def iter_module_names() -> Iterator[str]:
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        yield info.name


def first_paragraph(doc: str) -> str:
    lines: List[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip() and lines:
            break
        if line.strip():
            lines.append(line.strip())
    return " ".join(lines)


def public_items(module) -> List[Tuple[str, object]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    items = []
    for name in sorted(set(names)):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        origin = getattr(obj, "__module__", module.__name__)
        if origin != module.__name__:
            continue  # re-export; documented at its home module
        if inspect.isclass(obj) or inspect.isfunction(obj):
            items.append((name, obj))
    return items


def signature_of(obj) -> str:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # default values that repr with a memory address are not stable
    # across runs; strip the address so the output is deterministic
    return re.sub(r" at 0x[0-9a-fA-F]+", "", text)


def render() -> str:
    out: List[str] = [
        "# API reference",
        "",
        "Generated by `scripts/gen_api_docs.py` — do not edit by hand.",
        "",
    ]
    for module_name in iter_module_names():
        module = importlib.import_module(module_name)
        items = public_items(module)
        doc = first_paragraph(module.__doc__ or "")
        if not items and not doc:
            continue
        out.append(f"## `{module_name}`")
        out.append("")
        if doc:
            out.append(doc)
            out.append("")
        for name, obj in items:
            kind = "class" if inspect.isclass(obj) else "def"
            out.append(f"### `{kind} {name}{signature_of(obj)}`")
            out.append("")
            summary = first_paragraph(obj.__doc__ or "")
            if summary:
                out.append(summary)
                out.append("")
    out.append(HTTP_API)
    return "\n".join(out).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true")
    parser.add_argument(
        "--out", default=Path(__file__).resolve().parent.parent / "docs" / "API.md"
    )
    args = parser.parse_args(argv)
    target = Path(args.out)
    payload = render()
    if args.check:
        if not target.exists() or target.read_text() != payload:
            print(f"{target} is out of date; run scripts/gen_api_docs.py")
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(payload)
    print(f"wrote {target} ({len(payload.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
