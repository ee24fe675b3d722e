"""The DOM extractor, kept as the oracle for the single-pass one.

``repro.crawler.extract.extract_report`` reads a page in one regex pass.
This module is the extractor it replaced: a small DOM built on the
standard library's ``html.parser`` (the ``find`` / ``find_all`` /
``get_text`` subset of BeautifulSoup), and the extraction that queried
it. The parity tests assert both give the same ``ExtractedReport`` for
every page the writer can produce.
"""

from __future__ import annotations

import html.parser
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.crawler.extract import (
    _PIN_RE,
    _PROSE_RE,
    ExtractedReport,
    extract_actor_alias,
    extract_publish_day,
    infer_ecosystem,
)

_VOID_TAGS = {"br", "hr", "img", "meta", "link", "input"}


@dataclass
class Node:
    """One element node in the parsed DOM."""

    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: List[Union["Node", str]] = field(default_factory=list)
    parent: Optional["Node"] = None

    def get_text(self, separator: str = "") -> str:
        """Concatenated text of this subtree."""
        parts: List[str] = []

        def walk(node: "Node") -> None:
            for child in node.children:
                if isinstance(child, str):
                    parts.append(child)
                else:
                    walk(child)

        walk(self)
        return separator.join(parts)

    def find_all(
        self, tag: Optional[str] = None, class_: Optional[str] = None
    ) -> List["Node"]:
        """All descendant elements matching tag and/or CSS class."""
        found: List[Node] = []

        def walk(node: "Node") -> None:
            for child in node.children:
                if isinstance(child, str):
                    continue
                if (tag is None or child.tag == tag) and (
                    class_ is None or class_ in child.css_classes
                ):
                    found.append(child)
                walk(child)

        walk(self)
        return found

    def find(
        self, tag: Optional[str] = None, class_: Optional[str] = None
    ) -> Optional["Node"]:
        """First descendant matching, or None."""
        matches = self.find_all(tag, class_)
        return matches[0] if matches else None

    @property
    def css_classes(self) -> List[str]:
        return self.attrs.get("class", "").split()


class _TreeBuilder(html.parser.HTMLParser):
    """Builds a :class:`Node` tree, tolerant of unclosed tags."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node(tag="[document]")
        self._stack: List[Node] = [self.root]

    def handle_starttag(self, tag: str, attrs) -> None:
        node = Node(tag=tag, attrs={k: (v or "") for k, v in attrs})
        node.parent = self._stack[-1]
        self._stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self._stack.append(node)

    def handle_endtag(self, tag: str) -> None:
        # Pop to the nearest matching open tag; ignore stray closers.
        for idx in range(len(self._stack) - 1, 0, -1):
            if self._stack[idx].tag == tag:
                del self._stack[idx:]
                return

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1].children.append(data)


class MiniSoup:
    """Parse an HTML document into a queryable DOM."""

    def __init__(self, markup: str):
        builder = _TreeBuilder()
        builder.feed(markup)
        builder.close()
        self.root = builder.root

    def find_all(
        self, tag: Optional[str] = None, class_: Optional[str] = None
    ) -> List[Node]:
        return self.root.find_all(tag, class_)

    def find(
        self, tag: Optional[str] = None, class_: Optional[str] = None
    ) -> Optional[Node]:
        return self.root.find(tag, class_)

    def get_text(self, separator: str = " ") -> str:
        return self.root.get_text(separator)

    @property
    def title(self) -> str:
        node = self.find("title")
        return node.get_text().strip() if node else ""


def extract_report_dom(url: str, site: str, html_text: str) -> ExtractedReport:
    """``extract_report`` as it read pages through the DOM."""
    soup = MiniSoup(html_text)
    page_text = soup.get_text(" ")
    report = ExtractedReport(
        url=url,
        site=site,
        ecosystem=infer_ecosystem(page_text),
        publish_day=extract_publish_day(page_text),
        title=soup.title,
        actor_alias=extract_actor_alias(page_text),
    )
    seen = set()
    package_list = soup.find("ul", class_="package-list")
    if package_list is not None:
        for item in package_list.find_all("li"):
            match = _PIN_RE.match(item.get_text())
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
