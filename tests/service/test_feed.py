"""The /v1/feed exporter: STIX-ish items, refresh-stable cursors, 410s."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.malgraph import MalGraph
from repro.service.cache import build_service
from repro.service.feed import (
    CursorError,
    CursorExpired,
    decode_cursor,
    encode_cursor,
    feed_item,
)
from repro.service.index import IntelIndex
from repro.service.server import create_server, server_address

from tests.core.helpers import dataset, entry


def code_for(tag: str) -> str:
    return f"def payload_{tag}():\n    return '{tag}'\n"


def make_entries(count: int, prefix: str = "pkg"):
    return [
        entry(f"{prefix}-{i:03d}", code=code_for(f"{prefix}{i}"))
        for i in range(count)
    ]


def service_over(entries, **kwargs):
    return build_service(MalGraph.build(dataset(entries)), **kwargs)


def index_over(entries) -> IntelIndex:
    return IntelIndex.build(MalGraph.build(dataset(entries)))


# -- feed items --------------------------------------------------------------

def test_feed_item_is_a_stix_ish_indicator(small_dataset):
    held = small_dataset.entries[0]
    item = feed_item(held)
    package = held.package
    assert item["type"] == "indicator"
    assert item["id"] == (
        f"indicator--{package.ecosystem}--{package.name}--{package.version}"
    )
    assert item["labels"] == ["malicious-activity"]
    assert package.name in item["pattern"]
    assert item["pattern_type"] == "package-coordinate"
    assert item["sha256"] == held.sha256()
    assert len(item["external_references"]) == len(held.claims)
    for reference, claim in zip(item["external_references"], held.claims):
        assert reference["source_name"] == claim.source
        assert reference["report_day"] == claim.report_day
    json.dumps(item)  # JSON-safe by construction


# -- cursors -----------------------------------------------------------------

def test_cursor_round_trips():
    cursor = encode_cursor(7, 1200)
    assert decode_cursor(cursor) == (7, 1200)
    assert "=" not in cursor  # padding stripped; still URL-safe


@pytest.mark.parametrize(
    "garbage",
    [
        "not-base64!!!",
        "aGVsbG8",  # valid base64, not JSON
        encode_cursor(1, 5)[:-4] + "XXXX",
    ],
)
def test_malformed_cursors_raise_cursor_error(garbage):
    with pytest.raises(CursorError):
        decode_cursor(garbage)


def test_cursor_payload_validation():
    import base64

    def forge(payload) -> str:
        raw = json.dumps(payload).encode()
        return base64.urlsafe_b64encode(raw).decode().rstrip("=")

    for payload in [
        ["g", "o"],
        {"g": 1},
        {"g": "1", "o": 0},
        {"g": 1, "o": -1},
        {"g": True, "o": 0},
    ]:
        with pytest.raises(CursorError):
            decode_cursor(forge(payload))


# -- pagination --------------------------------------------------------------

def test_walk_covers_every_entry_exactly_once():
    service = service_over(make_entries(25))
    items = service.feed.walk(limit=7)
    expected = [feed_item(e)["id"] for e in service.index.dataset.entries]
    assert [i["id"] for i in items] == expected  # canonical order, no dup/miss


def test_page_shape_and_cursor_chain():
    service = service_over(make_entries(10))
    page = service.feed.page(limit=4)
    assert page["generation"] == 0
    assert page["total"] == 10
    assert (page["offset"], page["count"]) == (0, 4)
    assert page["next_cursor"] is not None
    last = service.feed.page(cursor=page["next_cursor"], limit=100)
    assert (last["offset"], last["count"]) == (4, 6)
    assert last["next_cursor"] is None  # walk complete


def test_limit_bounds_are_enforced():
    service = service_over(make_entries(3))
    with pytest.raises(CursorError):
        service.feed.page(limit=0)
    with pytest.raises(CursorError):
        service.feed.page(limit=1001)


def test_two_walks_over_one_generation_issue_identical_cursors():
    service = service_over(make_entries(9))
    first = service.feed.page(limit=3)
    second = service.feed.page(limit=3)
    assert first == second


# -- refresh stability (the acceptance property) -----------------------------

def test_walk_survives_refresh_with_zero_dups_zero_missed():
    """A walk started on generation g keeps seeing g's items even while
    publishes land between its page requests."""
    service = service_over(make_entries(20, "old"))
    original = [feed_item(e)["id"] for e in service.index.dataset.entries]

    seen = []
    page = service.feed.page(limit=6)
    seen.extend(i["id"] for i in page["items"])
    grown = make_entries(20, "old") + make_entries(5, "new")
    while page["next_cursor"] is not None:
        # a refresh lands between every pair of page requests
        service.publish(index_over(grown))
        page = service.feed.page(cursor=page["next_cursor"], limit=6)
        seen.extend(i["id"] for i in page["items"])

    assert seen == original  # zero duplicates, zero missed, exact order
    # while a *fresh* walk sees the new generation
    fresh = service.feed.page(limit=100)
    assert fresh["generation"] == service.generation
    assert fresh["total"] == 25


def test_evicted_generation_answers_cursor_expired():
    service = service_over(make_entries(8))
    cursor = service.feed.page(limit=2)["next_cursor"]
    grown = make_entries(8) + make_entries(2, "late")
    for _ in range(service.feed.keep_generations + 1):
        service.publish(index_over(grown))
        service.feed.page(limit=1)  # materialise, pushing old ones out
    with pytest.raises(CursorExpired) as failure:
        service.feed.page(cursor=cursor, limit=2)
    assert failure.value.generation == 0
    assert failure.value.current == service.generation
    assert "restart" in str(failure.value)
    assert service.feed.stats()["cursors_expired"] == 1


def test_future_generation_cursor_from_another_process_expires():
    service = service_over(make_entries(4))
    with pytest.raises(CursorExpired):
        service.feed.page(cursor=encode_cursor(99, 0), limit=2)


def test_stats_track_cached_generations_and_pages():
    service = service_over(make_entries(6))
    service.feed.walk(limit=2)
    stats = service.feed.stats()
    assert stats["generations_cached"] == [0]
    assert stats["pages_served"] == 3
    assert stats["cursors_expired"] == 0


# -- over HTTP ---------------------------------------------------------------

@pytest.fixture()
def live_feed():
    service = service_over(make_entries(12))
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


def test_http_feed_paginates(live_feed):
    base, _ = live_feed
    status, page = _get(f"{base}/v1/feed?limit=5")
    assert status == 200
    assert page["total"] == 12 and page["count"] == 5
    status, rest = _get(f"{base}/v1/feed?cursor={page['next_cursor']}&limit=10")
    assert status == 200
    assert rest["offset"] == 5 and rest["count"] == 7
    assert rest["next_cursor"] is None


@pytest.mark.parametrize(
    "query",
    [
        "limit=0",
        "limit=2000",
        "limit=abc",
        "limit=1&limit=2",
        "cursor=",
        "cursor=!!!",
        "foo=1",
    ],
)
def test_http_feed_rejects_bad_requests(live_feed, query):
    base, _ = live_feed
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/feed?{query}")
    assert failure.value.code == 400


def test_http_feed_expired_cursor_is_410_with_restart_hint(live_feed):
    base, service = live_feed
    _, page = _get(f"{base}/v1/feed?limit=3")
    cursor = page["next_cursor"]
    grown = make_entries(12) + make_entries(1, "late")
    for _ in range(service.feed.keep_generations + 1):
        service.publish(index_over(grown))
        _get(f"{base}/v1/feed?limit=1")
    with pytest.raises(urllib.error.HTTPError) as failure:
        _get(f"{base}/v1/feed?cursor={cursor}")
    assert failure.value.code == 410
    body = json.load(failure.value)
    assert body["expired_generation"] == 0
    assert body["current_generation"] == service.generation
    assert body["restart"] == "/v1/feed"
