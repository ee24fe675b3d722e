"""The HTML writer, and the extractor's reading of what it writes."""

from __future__ import annotations

import pytest

from repro.crawler.extract import extract_report
from repro.crawler.html import render_page, tag, text


def _read(markup: str):
    return extract_report("https://s/u", "s", markup)


def test_tag_renders_attributes():
    assert tag("p", "hi", class_="lead") == '<p class="lead">hi</p>'


def test_tag_escapes_attribute_values():
    out = tag("a", "x", href='u"v')
    assert "&quot;" in out


def test_tag_void_elements_self_close():
    assert tag("br") == "<br/>"
    assert tag("meta", name="keywords") == '<meta name="keywords"/>'


def test_tag_joins_sequence_content():
    assert tag("ul", [tag("li", "a"), tag("li", "b")]) == (
        "<ul><li>a</li><li>b</li></ul>"
    )


def test_text_escapes():
    assert text("<script>") == "&lt;script&gt;"


def test_render_page_structure():
    page = render_page("My Title", [tag("p", "body text")], keywords=("k1", "k2"))
    assert page.startswith("<!DOCTYPE html>")
    assert page.endswith("</html>")
    report = _read(page)
    assert report.title == "My Title"
    assert report.packages == []


def test_writer_parser_roundtrip_preserves_escaped_text():
    page = render_page("a < b & c", [tag("p", text("a < b & c"))])
    assert _read(page).title == "a < b & c"


def test_find_all_by_tag_and_class():
    # Only a <ul> counts, and only the first whose class list holds the
    # token: a <p> with the class, and a second list, are passed over.
    report = _read(
        '<div><p class="package-list y"><li>p==1.0</li></p>'
        '<ul class="y"><li>y==1.0</li></ul>'
        '<ul class="x package-list"><li>one==1.0</li></ul>'
        '<ul class="package-list"><li>two==1.0</li></ul></div>'
    )
    assert report.packages == [("one", "1.0")]


def test_package_list_class_matches_one_token_of_many():
    assert _read('<ul class="a package-list  c"><li>x==1.0</li></ul>').packages == [
        ("x", "1.0")
    ]
    # a token that only contains the name is another class
    assert _read('<ul class="package-listing"><li>x==1.0</li></ul>').packages == []
    # of two class attributes the last one counts
    twice = tag("ul", tag("li", "x==1.0"), class_="package-list", class__="x")
    assert twice == '<ul class="package-list" class="x"><li>x==1.0</li></ul>'
    assert _read(twice).packages == []


def test_find_returns_none_when_absent():
    report = _read("<p>hello</p>")
    assert report.title == ""
    assert report.packages == []


def test_get_text_with_separator():
    # Text runs join with one space, so prose split across elements
    # still reads as one mention.
    report = _read("<div><p>'a'</p><p>(version 1.0)</p></div>")
    assert report.packages == [("a", "1.0")]


def test_parser_tolerates_unclosed_tags():
    # An unclosed <li> holds the next one; </div> closes the list, so the
    # item after it is outside.
    report = _read(
        '<div><ul class="package-list"><li>a==1.0<li>b==2.0</div><li>c==3.0'
    )
    assert report.packages == [("b", "2.0")]


def test_parser_ignores_stray_close_tags():
    report = _read(
        '</div><ul class="package-list"><li>fine==1.0</span></li></div></ul>'
    )
    assert report.packages == [("fine", "1.0")]


def test_void_tags_never_open():
    # <br> opens nothing, so </br> closes nothing and the first <li>,
    # left open, holds the second.
    report = _read(
        '<br><ul class="package-list"><li>a==1.0</br><li>b==2.0</li></ul>'
    )
    assert report.packages == [("b", "2.0")]


def test_nested_lookup():
    report = _read('<ul class="package-list"><li><code>a==1.0</code></li></ul>')
    assert report.packages == [("a", "1.0")]


@pytest.mark.parametrize(
    "markup, title",
    [
        ("<title>  padded \n</title>", "padded"),
        ("<title>first</title><title>second</title>", "first"),
        ("<head><title>cut</head>after", "cut"),
        ("<title/>late<title>second</title>", ""),
        ("<p>no title</p>", ""),
    ],
)
def test_first_title_is_read(markup, title):
    assert _read(markup).title == title
