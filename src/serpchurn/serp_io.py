"""Fetching and parsing of result pages.

Two fetch modes share one code path: live mode fetches each page over
HTTP with ``urllib.request``, throttled, and a plan with a ``fixture_dir``
replays previously saved page bytes from a directory tree laid out as
``<root>/<query-slug>/<vertical>/<YYYY-MM-DD>/p<N>.html``. Both feed the
same extractor, which refuses block pages, pulls heading-anchored result
links out of the markup and unwraps redirect-style hrefs.
"""

from __future__ import annotations

import math
import re
import time
from collections import namedtuple
from datetime import date
from html import unescape
from pathlib import Path
from urllib.parse import parse_qs, urlencode, urlsplit

from .errors import FixtureNotFound, RateLimited, TransportError, ValidationError
from .model import DEFAULT_DELAY, PAGES_MAX, Checked, SerpSnapshot, Vertical, dedup_snapshot, results_from_links

SEARCH_URL = "https://www.google.com/search"
RESULTS_PER_PAGE = 10

_UA = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:109.0) Gecko/20100101 Firefox/115.0"
)

# Substrings that mark a rate-limit interstitial rather than a result page.
_BLOCK_MARKERS = ("unusual traffic", 'action="/sorry/', "g-recaptcha")


class FetchPlan(Checked, namedtuple("FetchPlan", "query vertical pages date_range politeness_delay fixture_dir")):
    """Everything needed to fetch one query's pages for one day; a plan with
    a ``fixture_dir`` replays saved pages from there instead of fetching."""

    __slots__ = ()

    def __new__(cls, query: str, vertical: Vertical = Vertical.GENERAL, pages: int = PAGES_MAX,
                date_range: tuple[date, date] | None = None, politeness_delay: float = DEFAULT_DELAY,
                fixture_dir: Path | None = None):
        if not query.strip():
            raise ValidationError("query must be non-empty")
        if not 1 <= pages <= PAGES_MAX:
            raise ValidationError(f"pages must be in [1,{PAGES_MAX}], got {pages}")
        if not math.isfinite(politeness_delay):
            raise ValidationError(f"politeness_delay must be finite, got {politeness_delay}")
        if politeness_delay < 0:
            raise ValidationError("politeness_delay must be >= 0")
        if date_range is not None and date_range[0] > date_range[1]:
            raise ValidationError("date_range start must not exceed its end")
        return tuple.__new__(cls, (query, vertical, pages, date_range, politeness_delay, fixture_dir))


def query_slug(query: str) -> str:
    """Filesystem-safe name for a query: lowercased, non-alphanumerics to '-'."""
    return re.sub(r"[^a-z0-9]+", "-", query.lower()).strip("-")


def fixture_page_path(plan: FetchPlan, day: date, page_no: int) -> Path:
    assert plan.fixture_dir is not None
    if plan.date_range is not None:
        day_dir = f"{plan.date_range[0].isoformat()}_{plan.date_range[1].isoformat()}"
    else:
        day_dir = day.isoformat()
    return (
        Path(plan.fixture_dir)
        / query_slug(plan.query)
        / plan.vertical.value
        / day_dir
        / f"p{page_no}.html"
    )


def fetch_serp_page(
    plan: FetchPlan,
    page_no: int,
    day: date,
    *,
    sleep=time.sleep,
) -> bytes:
    """Fetch the raw bytes of one result page.

    Fixture mode is a pure file read. Live mode sleeps the politeness
    delay before each request and maps HTTP 429 to RateLimited and network
    failures to TransportError; the parser judges block pages. Only live
    mode imports the HTTP client, which honours ``https_proxy`` and any
    opener installed with ``urllib.request.install_opener``.
    """
    if plan.fixture_dir is not None:
        path = fixture_page_path(plan, day, page_no)
        if not path.is_file():
            raise FixtureNotFound(f"no fixture page at {path}")
        return path.read_bytes()

    import http.client
    import urllib.error
    import urllib.request

    params = {
        "q": plan.query,
        "start": str((page_no - 1) * RESULTS_PER_PAGE),
    }
    if plan.vertical is Vertical.NEWS:
        params["tbm"] = "nws"
    if plan.date_range is not None:
        lo, hi = plan.date_range
        params["tbs"] = (
            f"cdr:1,cd_min:{lo.month}/{lo.day}/{lo.year},"
            f"cd_max:{hi.month}/{hi.day}/{hi.year}"
        )
    sleep(plan.politeness_delay)
    request = urllib.request.Request(f"{SEARCH_URL}?{urlencode(params)}", headers={"User-Agent": _UA})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            body = resp.read()
    except urllib.error.HTTPError as e:  # an OSError too, so caught first
        e.close()
        if e.code == 429:
            # HTTP delay-seconds only: ASCII digits, so no date, sign, exponent, nan or inf
            value = e.headers.get("Retry-After", "")
            retry_after = float(value) if value.isascii() and value.isdigit() else math.inf
            retry_after = retry_after if math.isfinite(retry_after) else 300.0
            raise RateLimited(f"server returned 429; retry after {retry_after:g} s", retry_after) from None
        raise TransportError(f"HTTP {e.code} for page {page_no}") from None
    except (OSError, http.client.HTTPException) as e:  # refused, DNS, timeout, TLS, truncated
        raise TransportError(f"fetch failed for page {page_no}: {e}") from e
    return body


# One attribute of a start tag: its name, then its value, quoted or bare, if any.
_ATTR = re.compile(r"""(?<=['"\s/])([^\s/>][^\s/=>]*)(?:\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?""")
_SEP = r"(?:\s|/(?!>))*"  # between attributes: whitespace, or a slash that does not close the tag
# One markup token per match, cut where html.parser cuts it. A token left
# open runs to the end of the page, so no input makes the scan slower than linear.
_TOKEN = re.compile(
    r"<(?:!--.*?(?:--\s*>|\Z)"  # a comment
    r"|[!?][^>]*>?"  # a declaration or processing instruction
    r"|/(?:\s*(?P<end>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>|(?P<loose_end>[a-zA-Z][^\t\n\r\f />\x00]*)[^>]*>|[^>]*>?)"
    rf"|(?P<start>[a-zA-Z][^\t\n\r\f />\x00]*)(?P<attrs>(?:{_SEP}{_ATTR.pattern})*{_SEP})(?:(?P<close>/?>)|.*))",
    re.S,
)
# the raw text of a script or style element ends at its end tag
_RAW_END = {name: re.compile(rf"</\s*{name}\s*>", re.I) for name in ("script", "style")}


def _result_links(text: str) -> list[tuple[str, str]]:
    """(href, title) pairs for heading-anchored result links.

    Handles both nesting orders seen in the wild: an anchor wrapping the
    heading, and a heading wrapping the anchor. Headings without any
    anchor (section labels, question boxes) yield nothing.
    """
    anchors: list[str] = []  # hrefs of currently open <a> tags
    headings: list[list] = []  # [href or None, text pieces] of each outermost <h3>
    h3_text: list[str] = []  # the open heading's text pieces
    depth = 0
    pos = 0
    while m := _TOKEN.search(text, pos):
        if depth:
            h3_text.append(unescape(text[pos : m.start()]))
        pos = m.end()
        tag = m["start"]
        if tag is None:  # an end tag, or markup that is no tag
            tag = (m["end"] or m["loose_end"] or "").lower()
        elif m["close"] is None:  # a start tag left open
            continue
        else:
            tag = tag.lower()
            if tag == "a":
                href = ""  # the last one wins
                for name, value in _ATTR.findall(text, m.start("attrs"), m.end("attrs")):
                    if name.lower() == "href":
                        href = unescape(value[1:-1] if value[:1] in ("'", '"') else value)
                anchors.append(href)
                if depth and headings[-1][0] is None and href:
                    headings[-1][0] = href
            elif tag == "h3":
                depth += 1
                if depth == 1:
                    h3_text = []
                    headings.append([(anchors[-1] if anchors else "") or None, h3_text])
            elif tag in _RAW_END and m["close"] == ">":
                raw_end = _RAW_END[tag].search(text, pos)
                if raw_end is None:  # an unclosed script or style runs to the end
                    pos = len(text)
                    break
                if depth:
                    h3_text.append(text[pos : raw_end.start()])
                pos = raw_end.end()
            if m["close"] == ">":
                continue
        if tag == "a" and anchors:
            anchors.pop()
        elif tag == "h3" and depth:
            depth -= 1
    if depth:  # an unclosed heading in soupy markup ends with the page
        h3_text.append(unescape(text[pos:]))
    return [
        (href, title)
        for href, pieces in headings
        if href and (title := " ".join("".join(pieces).split()))
    ]


def _target(href: str) -> str | None:
    """The absolute http(s) URI a result href points to, else None. Behind the '/url'
    redirector, relative or on a google.com host, that is the first non-empty ``q``,
    else ``url``, field, decoded as in a query string; an href ``urlsplit`` refuses is None."""
    try:
        parts = urlsplit(href)
        host = (parts.hostname or "").lower()
        if parts.path == "/url" and (not parts.netloc or host == "google.com" or host.endswith(".google.com")):
            fields = parse_qs(parts.query)  # blank values are dropped
            if wrapped := fields.get("q") or fields.get("url"):
                href = wrapped[0]
                parts = urlsplit(href)
    except ValueError:
        return None
    return href if parts.scheme in ("http", "https") and parts.netloc else None


def parse_serp_html(html: str | bytes) -> list[tuple[str, str]]:
    """Extract result (uri, title) pairs from one page's markup.

    Each href goes through ``_target``. Raises RateLimited if the bytes are
    a block interstitial: a page that yields no result link and carries a
    block marker.
    """
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    out = [(target, title) for href, title in _result_links(text) if (target := _target(href))]
    if not out:
        lowered = text.lower()
        if any(marker in lowered for marker in _BLOCK_MARKERS):
            raise RateLimited("block page served instead of results")
    return out


def build_snapshot(
    plan: FetchPlan,
    day: date,
    *,
    sleep=time.sleep,
) -> SerpSnapshot:
    """Fetch and parse all requested pages for one day into a snapshot.

    Pages are fetched in order and the first block interstitial aborts
    the remainder. A canonical URI listed twice keeps its first placement.
    """
    links = [
        (uri, title, page_no)
        for page_no in range(1, plan.pages + 1)
        for uri, title in parse_serp_html(fetch_serp_page(plan, page_no, day, sleep=sleep))
    ]
    return dedup_snapshot(SerpSnapshot(plan.query, plan.vertical, day, results_from_links(links)))
