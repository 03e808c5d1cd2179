"""The result-link scan against an html.parser reference.

``ReferenceExtractor`` is the ``HTMLParser`` subclass that extracted result
links before the compiled scan replaced it. Every page below must give the
same links through ``parse_serp_html``, or raise ``RateLimited`` for both:
each saved page under ``tests/fixtures``, and pages drawn from a grammar of
result-page fragments. The grammar keeps to markup that html.parser reads
the same way on every supported Python: comments are closed, each script or
style element is closed, and there is no ``--!>``, ``<![CDATA[``, unclosed
tag, tag inside a ``title`` or ``textarea``, or whitespace after ``</``.

``_unwrap_redirect`` is the redirect unwrapping that ``serp_io._target``
replaced, kept verbatim, and ``reference_target`` wraps it in the http(s)
filter that ``parse_serp_html`` applied after it. Both sides split hrefs
with the running Python's ``urlsplit``, so they must agree on every
supported version.
"""

from html.parser import HTMLParser
from unittest import mock
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from serpchurn import serp_io
from serpchurn.errors import RateLimited
from serpchurn.serp_io import parse_serp_html


class ReferenceExtractor(HTMLParser):
    """Pulls (href, title) pairs for heading-anchored result links.

    Handles both nesting orders seen in the wild: an anchor wrapping the
    heading, and a heading wrapping the anchor. Headings without any
    anchor (section labels, question boxes) yield nothing.
    """

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.links: list[tuple[str, str]] = []
        self._anchors: list[str] = []  # hrefs of currently open <a> tags
        self._h3_depth = 0
        self._h3_href: str | None = None
        self._h3_text: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            href = dict(attrs).get("href") or ""
            self._anchors.append(href)
            if self._h3_depth and self._h3_href is None and href:
                self._h3_href = href
        elif tag == "h3":
            self._h3_depth += 1
            if self._h3_depth == 1:
                enclosing = self._anchors[-1] if self._anchors else ""
                self._h3_href = enclosing or None
                self._h3_text = []

    def handle_endtag(self, tag):
        if tag == "a" and self._anchors:
            self._anchors.pop()
        elif tag == "h3" and self._h3_depth:
            self._h3_depth -= 1
            if self._h3_depth == 0:
                self._flush()

    def handle_data(self, data):
        if self._h3_depth:
            self._h3_text.append(data)

    def close(self):
        super().close()
        if self._h3_depth:  # unclosed heading in soupy markup
            self._h3_depth = 0
            self._flush()

    def _flush(self):
        title = " ".join("".join(self._h3_text).split())
        if self._h3_href and title:
            self.links.append((self._h3_href, title))
        self._h3_href = None
        self._h3_text = []


def reference_links(page: str) -> list[tuple[str, str]]:
    extractor = ReferenceExtractor()
    extractor.feed(page)
    extractor.close()
    return extractor.links


def parsed(page: str, extract):
    """parse_serp_html's outcome for the page, with ``extract`` finding its links."""
    with mock.patch.object(serp_io, "_result_links", extract):
        try:
            return parse_serp_html(page)
        except RateLimited:
            return RateLimited


def assert_agrees(page: str):
    assert serp_io._result_links(page) == reference_links(page)
    assert parsed(page, serp_io._result_links) == parsed(page, reference_links)


# -- a grammar of result-page fragments -----------------------------------

HREFS = [
    "https://a.example/story",
    "http://B.Example/news?id=7&amp;ref=serp",
    "/url?q=https%3A%2F%2Fc.example%2Fz%3Fx%3D1&amp;sa=U",
    "/url?q=http://d.example/path&sa=U&ved=0ah",
    "https://www.google.com/url?url=https://e.example/e",
    "/search?q=hurricane+harvey",
    "#",
    "",
    "https://f.example/a>b",
    "https://g.example/&lt;x&gt;&#47;y",
    "HTTPS://H.example/",
    "javascript:void(0)",
]
WORDS = [
    "storm", "Houston", "news", "&amp;", "&lt;b&gt;", "&#39;", "&#x27;", "&nbsp;",
    "&amp", "&bogus;", "1 < 2", "<3", "a <= b", "\n  ", "\t", "café",
    "unusual traffic", "-->", ">",
]
OTHER_TAGS = [
    '<div class="g">', "</div>", "<br>", "<br/>", "<em>", "</em>", "<b>", "</b>",
    '<cite class="c">', "</cite>", '<span title="<h3>x</h3>">', "</span>",
    "<p>", "</p>", '<img src="https://i.example/p.png" alt="a>b"/>', "<!doctype html>",
    '<form action="/sorry/index">', '<div class="g-recaptcha">', "<?xml version='1.0'?>",
    "<!-- plain comment -->", '<!-- <a href="https://fake.example/"><h3>Fake</h3></a> -->',
    "<!---->", "<!-- -- - -->",
    '<script>var s = "<a href=\'https://fake.example/\'><h3>x &amp; y</h3></a>";</script>',
    "<SCRIPT type='text/javascript'>if (a < b && c > d) {}</SCRIPT>",
    "<style>h3 > a { color: red }</style>",
    "<Style media=\"x\"><a href=x></Style >",
    "<h3/>", "<a/>", '<a href="https://self.example/closed"/>', "<H3 class=x />",
    "</a>", "</h3>", "</A>", "</H3>", "</a/>", "</A class=x>", '</h3 id="r">',
]


@st.composite
def anchor_open(draw):
    name = draw(st.sampled_from(["a", "A"]))
    attrs = []
    for _ in range(draw(st.integers(0, 3))):
        form = draw(st.integers(0, 6))
        href = draw(st.sampled_from(HREFS))
        key = draw(st.sampled_from(["href", "HREF", "Href"]))
        if form == 0:
            attrs.append(f'{key}="{href}"')
        elif form == 1:
            attrs.append(f"{key}='{href}'")
        elif form == 2 and href and not any(c in href for c in " >'\""):
            attrs.append(f"{key}={href}")
        elif form == 3:
            attrs.append(key)  # a valueless href
        elif form == 4:
            attrs.append(f'data-href="{href}"')
        elif form == 5:
            attrs.append(draw(st.sampled_from(['class="r"', "title='a>b'", "ping=/url?x=1", "hidden"])))
        else:
            attrs.append(f'{key} = "{href}"')
    return "<" + " ".join([name, *attrs]) + draw(st.sampled_from([">", " >"]))


leaf = st.one_of(st.sampled_from(WORDS), st.sampled_from(OTHER_TAGS))


def nest(children):
    """A heading or an anchor around fragments, closed or left open."""
    heading = st.tuples(
        st.sampled_from(["<h3>", "<H3>", '<h3 class="r">']),
        st.lists(children, max_size=4),
        st.sampled_from(["</h3>", "</H3>", ""]),
    )
    anchor = st.tuples(anchor_open(), st.lists(children, max_size=4), st.sampled_from(["</a>", "</A>", ""]))
    return st.one_of(heading, anchor).map(lambda t: t[0] + "".join(t[1]) + t[2])


fragment = st.recursive(leaf, nest, max_leaves=12)
pages = st.lists(fragment, max_size=8).map("".join)


@settings(max_examples=500, deadline=None)
@given(pages)
def test_the_scan_agrees_with_html_parser_on_fragment_pages(page):
    assert_agrees(page)


def test_the_scan_agrees_with_html_parser_on_every_saved_page(fixture_root):
    saved = sorted(fixture_root.rglob("*.html"))
    assert fixture_root / "captcha.html" in saved
    for path in saved:
        assert_agrees(path.read_bytes().decode("utf-8", errors="replace"))


@pytest.mark.parametrize(
    "page",
    [
        '<h3><a href="https://a.example/x">First</a></h3><a href="https://b.example/y"><h3>Second',
        '<a href="https://a.example/"><h3>Ti<script>"<h3>"&amp;</script>tle &amp; more</h3></a>',
        '<h3><a href="/url?q=https://c.example/">x</a><a href="https://d.example/">y</a></h3>',
        '<a href="https://e.example/" href="https://f.example/"><h3>last href wins</h3></a>',
        '<h3><a href>no href</a><a data-href="https://g.example/">still none</a></h3>',
        '<a href=\'https://h.example/a>b\'><h3 class="r" >q&#39;s</H3></A>',
        '<h3><h3/><a href="https://i.example/">nested</a></h3>',
        "<p>unusual traffic</p>",
        '<h3><a href="/search?q=x">unusual traffic</a></h3>',
    ],
)
def test_the_scan_agrees_with_html_parser_on_hand_written_pages(page):
    assert_agrees(page)


# -- the redirect unwrapping and http(s) filter ----------------------------


def _unwrap_redirect(href: str) -> str:
    """Resolve '/url?q=...' style indirection to the target URI."""
    parts = urlsplit(href)
    host = (parts.hostname or "").lower()
    via_redirector = parts.path == "/url" and (
        not parts.netloc or host == "google.com" or host.endswith(".google.com")
    )
    if via_redirector:
        qs = parse_qs(parts.query)
        for key in ("q", "url"):
            if qs.get(key):
                return qs[key][0]
    return href


def reference_target(href: str) -> str | None:
    """The target the old filter kept for ``href``, else None; a ValueError is no link."""
    try:
        target = _unwrap_redirect(href)
        parts = urlsplit(target)
    except ValueError:
        return None
    return target if parts.scheme in ("http", "https") and parts.netloc else None


REDIRECTORS = [
    "/url?", "https://www.google.com/url?", "//news.google.com/url?", "https://evilgoogle.com/url?",
    "/URL?", "/url/?",
]
FIELD_NAMES = ["q", "url", "Q", "%71", "u%72l", "q+", "sa", "ved", "usg", ""]
FIELD_VALUES = [
    "", "https://a.example/x", "https%3A%2F%2Fb.example%2Fy%3Fz%3D1", "http://c.example/a+b%20c",
    "http%3a//d.example/%E2%82%AC", "ftp://e.example/", "//f.example/", "https://g.example:99999/",
    "http://@/x", "http://＃.com/", "http://[::1/x", "%zz", "%", "%ff", "U", "0ahUKEwi",
]
url_text = st.text(alphabet="qurlQ=&%+:/.[]@#?az09 ＃é", max_size=24)
field = st.one_of(
    st.tuples(st.sampled_from(FIELD_NAMES), st.one_of(st.sampled_from(FIELD_VALUES), url_text)).map("=".join),
    st.sampled_from(FIELD_NAMES),  # a field with no '='
)
redirect_hrefs = st.builds(
    lambda prefix, fields, tail: prefix + "&".join(fields) + tail,
    st.sampled_from(REDIRECTORS),
    st.lists(field, max_size=6),
    st.sampled_from(["", "#frag", "&", "&&"]),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(redirect_hrefs, url_text, st.text(), st.sampled_from(HREFS)))
def test_target_agrees_with_the_old_unwrap_and_filter(href):
    assert serp_io._target(href) == reference_target(href)


@pytest.mark.parametrize(
    "href, target",
    [
        ("/url?sa=U&url=https://a.example/u&q=https://b.example/q&q=https://c.example/", "https://b.example/q"),
        ("/url?q=&url=https://a.example/u&url=https://b.example/", "https://a.example/u"),
        ("/url?%71=https%3A%2F%2Fa.example%2F%7Ex+y", "https://a.example/~x y"),
        ("/url?q+=https://a.example/&u%72l=https://b.example/", "https://b.example/"),
        ("/url?q=http://[::1/x&sa=U", None),
        ("/url?q=%zz", None),
    ],
)
def test_target_reads_the_first_non_empty_q_else_url(href, target):
    assert serp_io._target(href) == target == reference_target(href)
