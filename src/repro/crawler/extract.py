"""Extraction of package records from security-report pages.

Mirrors the paper's manual + scripted extraction: given a report page,
recover (ecosystem, package name, version, publish date). Extraction is
two-tier:

1. **structured** — the ``<ul class="package-list">`` of
   ``<code>name==version</code>`` items most security blogs use;
2. **regex fallback** — scan the prose for ``'name' (version x.y.z)``
   mentions when no structured list exists.

A page is read in one regex pass that keeps only what the two tiers
use: the page text, the first ``<title>`` and the first package list's
items. No DOM is built. The pages are the simulated web's own
:func:`repro.crawler.html.render_page` output (the spider rejects any
page that does not end in ``</html>``), and on them the pass returns
what the ``html.parser`` DOM extractor it replaced returned, which
``tests/crawler/dom_oracle.py`` keeps as the oracle.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from html import unescape
from typing import List, Optional, Tuple

from repro.crawler.html import _VOID_TAGS
from repro.ecosystem.clock import date_to_day
from repro.ecosystem.package import ECOSYSTEMS

#: ``name==version`` as it appears inside <code> items.
_PIN_RE = re.compile(r"^\s*(?P<name>[A-Za-z0-9_.@/-]+)==(?P<version>[0-9][\w.+-]*)\s*$")

#: Prose fallback: 'name' (version 1.2.3)
_PROSE_RE = re.compile(
    r"'(?P<name>[A-Za-z0-9_.@/-]+)'\s*\(version\s+(?P<version>[0-9][\w.+-]*)\)"
)

_DATE_RE = re.compile(r"Published\s+(?P<date>\d{4}-\d{2}-\d{2})")

#: Attribution sentence security blogs write: "... the actor <alias> based
#: on shared infrastructure ..." (also matches title mentions like
#: "<alias> publishes info-stealing packages").
_ACTOR_RE = re.compile(
    r"\bactor\s+(?P<alias>[A-Za-z][A-Za-z0-9_-]{2,24})\b"
)

_KEYWORDS = ("malicious", "malware", "supply chain", "ssc")


@dataclass
class ExtractedReport:
    """What the extractor recovered from one page."""

    url: str
    site: str
    ecosystem: Optional[str]
    publish_day: Optional[int]
    title: str
    packages: List[Tuple[str, str]] = field(default_factory=list)
    actor_alias: Optional[str] = None

    @property
    def usable(self) -> bool:
        return bool(self.packages) and self.ecosystem is not None


def is_security_report(html_text: str) -> bool:
    """Keyword pre-filter the paper applies before parsing a page."""
    lowered = html_text.lower()
    return any(keyword in lowered for keyword in _KEYWORDS)


def infer_ecosystem(page_text: str) -> Optional[str]:
    """Pick the ecosystem a report talks about from its prose.

    Reports name the registry in upper case ('the NPM registry'); the
    first ecosystem mentioned wins.
    """
    upper = page_text.upper()
    best: Tuple[int, Optional[str]] = (len(upper) + 1, None)
    for ecosystem in ECOSYSTEMS:
        idx = upper.find(ecosystem.upper() + " ")
        if idx != -1 and idx < best[0]:
            best = (idx, ecosystem)
    return best[1]


def extract_publish_day(page_text: str) -> Optional[int]:
    match = _DATE_RE.search(page_text)
    if not match:
        return None
    try:
        date = datetime.date.fromisoformat(match.group("date"))
    except ValueError:
        return None
    return date_to_day(date)


def extract_actor_alias(page_text: str) -> Optional[str]:
    """Pull the attributed actor alias out of a report's prose."""
    match = _ACTOR_RE.search(page_text)
    if match is None:
        return None
    alias = match.group("alias")
    if alias.lower() in ("group", "unknown", "behind", "named"):
        return None
    return alias


#: A tag of a page: an end tag (group 1: name), a start tag (2: name,
#: 3: its attributes), or a declaration such as ``<!DOCTYPE html>`` (no
#: group). Splitting on it leaves the text runs at every fourth piece.
_TAG_RE = re.compile(
    r"</([a-zA-Z][^\t\n\r\f />\x00]*)[^>]*>"
    r"|<([a-zA-Z][^\t\n\r\f />\x00]*)([^>]*)>"
    r"|<![^>]*>"
)

#: A ``class`` attribute as the writer renders it: double-quoted, with
#: every quote inside the value escaped.
_CLASS_RE = re.compile(r'\sclass="([^"]*)"')


def _is_package_list(attrs: str) -> bool:
    """Whether a start tag's class list (its last ``class``) holds
    ``package-list``."""
    classes = _CLASS_RE.findall(attrs)
    return bool(classes) and "package-list" in unescape(classes[-1]).split()


def _read_page(markup: str) -> Tuple[str, str, List[str]]:
    """One pass over a page: its text, its title and its package items.

    Returns the entity-decoded text runs joined by one space, the text
    of the first ``<title>``, and the text of every ``<li>`` under the
    first ``<ul>`` whose class list holds ``package-list``. Elements nest
    as a tolerant DOM builder nests them: a void tag never opens, an end
    tag closes everything up to its nearest open match, a closer with no
    open match is ignored, an unclosed ``<li>`` holds the next one, and
    ``<x/>`` opens and closes at once.

    The input is markup as :func:`repro.crawler.html.render_page` writes
    it, where text is escaped, so every ``<`` opens a tag.
    """
    pieces = _TAG_RE.split(markup)
    page_text = " ".join(filter(None, pieces[::4]))
    if "&" in page_text:
        # A space ends every character reference, so decoding the joined
        # text decodes each run on its own.
        page_text = unescape(page_text)
    stack: List[str] = []  # names of the open elements
    title: Optional[List[str]] = None  # runs of the first <title>
    title_at = -1  # its stack index while it is open
    list_at = -1  # stack index of the first package list while it is open
    list_seen = False
    items: List[List[str]] = []  # runs of each <li> in the list
    open_items: List[Tuple[int, List[str]]] = []  # (stack index, runs)
    for closing, opening, attrs, run in zip(
        pieces[1::4], pieces[2::4], pieces[3::4], pieces[4::4]
    ):
        if opening is not None:
            name = opening.lower()
            if name not in _VOID_TAGS:
                at = len(stack)
                stack.append(name)
                if name == "title":
                    if title is None:
                        title, title_at = [], at
                elif name == "li":
                    if list_at >= 0:
                        items.append([])
                        open_items.append((at, items[-1]))
                elif name == "ul":
                    if not list_seen and _is_package_list(attrs):
                        list_seen, list_at = True, at
                if attrs.endswith("/"):
                    closing = opening
        if closing is not None:
            name = closing.lower()
            at = len(stack) - 1
            while at >= 0 and stack[at] != name:
                at -= 1
            if at >= 0:
                del stack[at:]
                if title_at >= at:
                    title_at = -1
                if list_at >= at:
                    list_at = -1
                while open_items and open_items[-1][0] >= at:
                    open_items.pop()
        if run and (title_at >= 0 or open_items):
            if "&" in run:
                run = unescape(run)
            if title_at >= 0:
                title.append(run)
            for _, parts in open_items:
                parts.append(run)
    title_text = "".join(title).strip() if title is not None else ""
    return page_text, title_text, ["".join(parts) for parts in items]


def extract_report(url: str, site: str, html_text: str) -> ExtractedReport:
    """Full extraction for one page."""
    page_text, title, items = _read_page(html_text)
    report = ExtractedReport(
        url=url,
        site=site,
        ecosystem=infer_ecosystem(page_text),
        publish_day=extract_publish_day(page_text),
        title=title,
        actor_alias=extract_actor_alias(page_text),
    )
    seen = set()
    for item in items:
        match = _PIN_RE.match(item)
        if match:
            key = (match.group("name"), match.group("version"))
            if key not in seen:
                seen.add(key)
                report.packages.append(key)
    if not report.packages:
        for match in _PROSE_RE.finditer(page_text):
            key = (match.group("name"), match.group("version"))
            if key not in seen:
                seen.add(key)
                report.packages.append(key)
    return report


#: SNS tweet shapes: "package {name} version {version}", "{name}@{version}",
#: and "{name} ({version})".
_TWEET_RES = (
    re.compile(
        r"package\s+(?P<name>[A-Za-z0-9_.@/-]+)\s+version\s+(?P<version>[0-9][\w.+-]*)",
        re.IGNORECASE,
    ),
    re.compile(r"(?P<name>[A-Za-z0-9_.-]+)@(?P<version>[0-9][\w.+-]*)"),
    re.compile(r"(?P<name>[A-Za-z0-9_.-]+)\s+\((?P<version>[0-9][\w.+-]*)\)"),
)

_TWEET_ECO_RE = re.compile(
    r"\b(?P<eco>" + "|".join(e.upper() for e in ECOSYSTEMS) + r")\b",
    re.IGNORECASE,  # accounts write 'PyPI', 'npm' and 'NPM' alike
)


def extract_tweet(text: str) -> Optional[Tuple[str, str, str]]:
    """Recover (ecosystem, name, version) from a tweet, or None."""
    eco_match = _TWEET_ECO_RE.search(text)
    if eco_match is None:
        return None
    for pattern in _TWEET_RES:
        match = pattern.search(text)
        if match:
            return (
                eco_match.group("eco").lower(),
                match.group("name"),
                match.group("version"),
            )
    return None
