"""Minimal HTML writer for the simulated web.

The paper's pipeline uses BeautifulSoup to parse security-report webpages
(Section II-B). Offline, the simulated web renders every page itself:

* :func:`render_page` renders structured content into an HTML document
  (the simulated web hosts security reports with it);
* :func:`tag` and :func:`text` render one element and escape raw text.

Reading pages back is :func:`repro.crawler.extract.extract_report`'s job:
it takes the writer's own output in one pass, with no DOM.
"""

from __future__ import annotations

import html
from typing import Iterable, Sequence, Union

_VOID_TAGS = {"br", "hr", "img", "meta", "link", "input"}


def tag(
    element: str,
    content: Union[str, Sequence[str]] = "",
    **attrs: str,
) -> str:
    """Render one element; ``class_`` maps to the ``class`` attribute."""
    rendered_attrs = "".join(
        f' {key.rstrip("_")}="{html.escape(str(value), quote=True)}"'
        for key, value in attrs.items()
    )
    if isinstance(content, (list, tuple)):
        body = "".join(content)
    else:
        body = content
    if element in _VOID_TAGS:
        return f"<{element}{rendered_attrs}/>"
    return f"<{element}{rendered_attrs}>{body}</{element}>"


def text(content: str) -> str:
    """Escape raw text for inclusion in a document."""
    return html.escape(content)


def render_page(
    title: str,
    body_parts: Iterable[str],
    keywords: Sequence[str] = (),
) -> str:
    """Render a complete HTML document."""
    head = tag("title", text(title))
    if keywords:
        head += tag("meta", name="keywords", content=",".join(keywords))
    return (
        "<!DOCTYPE html>"
        + tag(
            "html",
            tag("head", head) + tag("body", "".join(body_parts)),
        )
    )
