"""The single-pass extractor against the DOM extractor it replaced.

``extract_report`` reads the writer's own output (the spider rejects a
page without ``</html>``), so the pages here are built with
``render_page``, ``tag`` and ``text``, then bent the ways a tolerant DOM
builder must absorb: dropped ``</li>``, stray closers, void and
self-closed tags, several lists, a missing or padded title.
"""

from __future__ import annotations

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.crawler.extract import _read_page, extract_report, is_security_report
from repro.crawler.html import render_page, tag, text
from tests.crawler.dom_oracle import MiniSoup, extract_report_dom

# prose with entities, quotes and non-ASCII, plus the phrases the
# extractor looks for in the page text
prose = st.lists(
    st.one_of(
        st.text(
            alphabet=st.sampled_from(list("&<>\"' abcxyz;#é中—\n")), max_size=20
        ),
        st.sampled_from(
            [
                "the NPM registry ", "PyPI ", "Published 2023-08-12.",
                "Published 2023-13-45.", "the actor Lazarus based on",
                "'evil-kit' (version 1.2.3)", "'a&b' (version 2.0)",
            ]
        ),
    ),
    max_size=4,
).map(" ".join)

pin = st.one_of(
    st.sampled_from(
        ["a==1.0", "b==2.0.1", "a==1.0", "@scope/pkg==3.1", "  c==4.0  "]
    ),
    st.sampled_from(["not a pin", "==2.0", "name==", "x==y", "a<b==1.0"]),
    st.builds("{}=={}".format, st.from_regex(r"[a-z][a-z0-9._-]{0,8}", fullmatch=True),
              st.from_regex(r"[0-9][0-9.]{0,5}", fullmatch=True)),
)

class_list = st.lists(
    st.sampled_from(["package-list", "ioc-list", "x", "package-listing", "Package-List"]),
    max_size=3,
).flatmap(
    lambda tokens: st.sampled_from([" ", "  ", "\t"]).map(lambda sep: sep.join(tokens))
)

# stray closers, a void tag written open or closed, self-closed elements
oddity = st.sampled_from(
    [
        "</div>", "</span>", "</p>", "</li>", "<br>", "</br>", "<hr>",
        "<li/>", "<title/>", '<ul class="package-list"/>',
    ]
)


@st.composite
def item(draw):
    body = tag("code", text(draw(pin))) if draw(st.booleans()) else text(draw(pin))
    closer = "" if draw(st.integers(0, 4)) == 0 else "</li>"  # dropped </li>
    return "<li>" + body + closer + (draw(oddity) if draw(st.integers(0, 2)) == 0 else "")


@st.composite
def package_list(draw):
    items = draw(st.lists(item(), max_size=5))
    if draw(st.booleans()):
        rendered = tag("ul", items, class_=draw(class_list))
    else:
        rendered = tag("ul", items)
    if draw(st.integers(0, 5)) == 0:
        rendered = rendered[: -len("</ul>")]  # an unclosed list
    return rendered


block = st.one_of(
    prose.map(lambda words: tag("p", text(words))),
    package_list(),
    oddity,
    st.lists(package_list(), min_size=1, max_size=2).map(
        lambda lists: tag("div", lists, class_="section")
    ),
    prose.map(lambda words: tag("title", text(words))),
)


@st.composite
def page(draw):
    body = draw(st.lists(block, max_size=6))
    title = draw(prose)
    shape = draw(st.sampled_from(["plain", "padded", "missing"]))
    if shape == "missing":
        return "<!DOCTYPE html>" + tag("html", tag("head", "") + tag("body", body))
    if shape == "padded":
        title = draw(st.sampled_from([" ", "\n ", "\t"])) + title + "  "
    return render_page(title, body, keywords=("malicious",))


def _dom_read(markup: str):
    soup = MiniSoup(markup)
    package_list = soup.find("ul", class_="package-list")
    items = package_list.find_all("li") if package_list is not None else []
    return soup.get_text(" "), soup.title, [li.get_text() for li in items]


def _assert_same(markup: str) -> None:
    assert _read_page(markup) == _dom_read(markup)
    got = extract_report("https://s/u", "s", markup)
    want = extract_report_dom("https://s/u", "s", markup)
    assert asdict(got) == asdict(want)


@given(page())
@settings(max_examples=300, deadline=None)
def test_single_pass_matches_dom_on_writer_pages(markup):
    _assert_same(markup)


def _security_pages(web):
    return [p for p in web.pages.values() if is_security_report(p.html)]


def test_single_pass_matches_dom_on_small_world_pages(small_world):
    pages = _security_pages(small_world.web)
    assert pages
    for p in pages:
        _assert_same(p.html)


def test_single_pass_matches_dom_on_canonical_world_pages(paper):
    pages = _security_pages(paper.world.web)
    assert len(pages) > 1000
    for p in pages:
        assert extract_report(p.url, p.site, p.html) == extract_report_dom(
            p.url, p.site, p.html
        )
