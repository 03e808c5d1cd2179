import json
import time

import pytest

from serpchurn.errors import RateLimited
from serpchurn.serp_io import parse_serp_html


def _golden(fixture_root, name):
    return (fixture_root / "golden" / name).read_text(encoding="utf-8")


def _page(serp_root, vertical, day, n):
    return (
        serp_root / "hurricane-harvey" / vertical / day / f"p{n}.html"
    ).read_bytes()


def test_general_p1_matches_golden_bytes(serp_root, fixture_root):
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-07", 1))
    rendered = (
        json.dumps(
            [{"uri": u, "title": t} for u, t in parsed], indent=2, ensure_ascii=False
        )
        + "\n"
    )
    assert rendered == _golden(fixture_root, "general_p1_links.json")


def test_news_p1_matches_golden_bytes(serp_root, fixture_root):
    parsed = parse_serp_html(_page(serp_root, "news", "2017-09-07", 1))
    rendered = (
        json.dumps(
            [{"uri": u, "title": t} for u, t in parsed], indent=2, ensure_ascii=False
        )
        + "\n"
    )
    assert rendered == _golden(fixture_root, "news_p1_links.json")


def test_redirect_hrefs_unwrapped(serp_root):
    """p1 wraps every target in /url?q=...; parsed output must be direct."""
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-07", 1))
    assert all(not uri.startswith("/url") for uri, _ in parsed)
    assert parsed[0][0] == "https://en.wikipedia.org/wiki/Hurricane_Harvey"
    # the percent-encoded one decodes too
    assert ("http://www.chron.com/news/harvey/", "Harvey news - Houston Chronicle") in parsed


def test_entities_decoded_in_titles(serp_root):
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-07", 1))
    titles = [t for _, t in parsed]
    assert "Hurricane Harvey: Latest News & Updates - CNN" in titles
    assert "Hurricane Harvey Forecast & Updates | weather.com" in titles


def test_heading_without_anchor_ignored(serp_root):
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-07", 1))
    titles = [t for _, t in parsed]
    assert "People also ask" not in titles
    assert len(parsed) == 10


def test_relative_links_ignored(serp_root):
    # "More news for ..." points at /search?...: no scheme, so no story
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-07", 1))
    assert all(uri.startswith(("http://", "https://")) for uri, _ in parsed)


def test_anchor_wrapping_heading_shape(serp_root):
    """The 2017-09-08 pages nest h3 inside the anchor."""
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-08", 1))
    assert len(parsed) == 10
    assert parsed[1] == (
        "https://www.redcross.org/donate/disaster-donations",
        "Hurricane Harvey: How to Help - American Red Cross",
    )


def test_cite_text_inside_anchor_not_in_title(serp_root):
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-08", 2))
    for _, title in parsed:
        assert "..." not in title
        assert not any(ch in title for ch in "<>")


def test_fragment_only_href_ignored(serp_root):
    # the "Top stories" block links to "#"
    parsed = parse_serp_html(_page(serp_root, "general", "2017-09-08", 1))
    assert all(t != "Top stories" for _, t in parsed)


def test_all_ten_pages_parse_to_ten_links(serp_root):
    for day in ("2017-09-07", "2017-09-08"):
        for n in range(1, 6):
            parsed = parse_serp_html(_page(serp_root, "general", day, n))
            assert len(parsed) == 10, (day, n)


def test_block_page_raises(fixture_root):
    html = (fixture_root / "captcha.html").read_bytes()
    with pytest.raises(RateLimited):
        parse_serp_html(html)


def test_block_markers_individually():
    for marker in (
        "<p>Why is there unusual traffic on this page</p>",
        '<form action="/sorry/index">x</form>',
        '<div class="g-recaptcha"></div>',
    ):
        with pytest.raises(RateLimited):
            parse_serp_html(f"<html><body>{marker}</body></html>")


def test_a_marker_beside_result_links_is_no_block(headline_marker_root, serp_root):
    # a heading mentioning "unusual traffic" on a page of results is news, not a block
    page = _page(headline_marker_root, "general", "2017-09-07", 1)
    assert b"unusual traffic" in page
    marked = parse_serp_html(page)
    assert len(marked) == 10
    assert marked == parse_serp_html(_page(serp_root, "general", "2017-09-07", 1))


def test_empty_page_parses_to_nothing():
    assert parse_serp_html("<html><body><p>no results</p></body></html>") == []


def test_unclosed_heading_still_captured():
    html = '<div><a href="https://a.example/x"><h3>Dangling title</div>'
    assert parse_serp_html(html) == [("https://a.example/x", "Dangling title")]


def test_whitespace_collapsed_in_titles():
    html = '<h3><a href="https://a.example/x">Two\n  words </a></h3>'
    assert parse_serp_html(html) == [("https://a.example/x", "Two words")]


def test_nested_markup_in_title():
    html = '<a href="https://a.example/x"><h3>Big <em>storm</em> news</h3></a>'
    assert parse_serp_html(html) == [("https://a.example/x", "Big storm news")]


@pytest.mark.parametrize(
    "shape", ['<a "', "<!--", "<script>", "<h3>x", "<", "<a x", "<h3 "], ids=repr
)
def test_extraction_is_linear_in_the_page(shape):
    # broken markup repeated to 1 MB; html.parser is quadratic on some of these
    # shapes: it took a minute on 80 KB of '<a "' (Python 3.11, 2-core VM)
    first = '<h3><a href="https://a.example/x">First</a></h3>'
    page = first + shape * (1_000_000 // len(shape))
    t0 = time.perf_counter()
    parsed = parse_serp_html(page)
    assert time.perf_counter() - t0 < 2.0
    assert parsed == [("https://a.example/x", "First")]
