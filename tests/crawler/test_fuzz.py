"""Fuzzing the extractors: arbitrary input must never crash them — the
crawler sees whatever the web serves."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler.extract import (
    extract_publish_day,
    extract_report,
    extract_tweet,
    infer_ecosystem,
    is_security_report,
)
from repro.crawler.html import render_page

# plenty of markup-ish characters to stress the page reader
markup = st.text(
    alphabet=st.sampled_from(list("<>/=\"' abcdefghij&#;\n-")), max_size=300
)
free_text = st.text(max_size=300)
# the same characters between the tags the reader tracks
tag_soup = st.lists(
    st.one_of(
        markup,
        st.sampled_from(
            [
                '<ul class="package-list">', "</ul>", "<li>", "</li>",
                "<title>", "</title>", "<title/>", "<li/>", "<br>", "</br>",
                "<code>a==1.0</code>", "<!-- x -->", "<!DOCTYPE html>",
            ]
        ),
    ),
    max_size=30,
).map("".join)


@given(tag_soup)
@settings(max_examples=150, deadline=None)
def test_extract_report_never_crashes_on_tag_soup(payload):
    report = extract_report("https://u", "site", payload)
    assert isinstance(report.title, str)
    assert all(isinstance(pin, tuple) for pin in report.packages)


@given(markup)
@settings(max_examples=100, deadline=None)
def test_extract_report_never_crashes(payload):
    report = extract_report("https://u", "site", payload)
    assert isinstance(report.packages, list)
    assert isinstance(report.usable, bool)


@given(free_text)
@settings(max_examples=150, deadline=None)
def test_keyword_filter_never_crashes(payload):
    assert isinstance(is_security_report(payload), bool)


@given(free_text)
@settings(max_examples=150, deadline=None)
def test_infer_ecosystem_never_crashes(payload):
    result = infer_ecosystem(payload)
    assert result is None or isinstance(result, str)


@given(free_text)
@settings(max_examples=150, deadline=None)
def test_extract_publish_day_never_crashes(payload):
    result = extract_publish_day(payload)
    assert result is None or isinstance(result, int)


@given(free_text)
@settings(max_examples=150, deadline=None)
def test_extract_tweet_never_crashes(payload):
    result = extract_tweet(payload)
    if result is not None:
        ecosystem, name, version = result
        assert ecosystem and name and version


@given(markup)
@settings(max_examples=60, deadline=None)
def test_extract_report_title_roundtrips_writer_text(payload):
    """Whatever text the writer escapes into a title reads back as it was
    (no markup survives, no entity stays encoded)."""
    page = render_page(payload, [])
    assert extract_report("https://u", "site", page).title == payload.strip()
