"""Web-crawler substrate: HTML writer, spider, single-pass record extraction."""

from repro.crawler.extract import (
    ExtractedReport,
    extract_publish_day,
    extract_report,
    extract_tweet,
    infer_ecosystem,
    is_security_report,
)
from repro.crawler.html import render_page, tag, text
from repro.crawler.spider import CrawlResult, CrawlStats, Spider

__all__ = [
    "CrawlResult",
    "CrawlStats",
    "ExtractedReport",
    "Spider",
    "extract_publish_day",
    "extract_report",
    "extract_tweet",
    "infer_ecosystem",
    "is_security_report",
    "render_page",
    "tag",
    "text",
]
