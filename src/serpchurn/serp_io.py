"""Fetching and parsing of result pages.

Two fetch modes share one code path: live mode issues throttled HTTP
requests, and a plan with a ``fixture_dir`` replays previously saved page
bytes from a directory tree laid out as
``<root>/<query-slug>/<vertical>/<YYYY-MM-DD>/p<N>.html``. Both feed the
same extractor, which pulls heading-anchored result links out of the
markup and unwraps redirect-style hrefs.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from datetime import date
from html.parser import HTMLParser
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import requests

from .errors import FixtureNotFound, RateLimited, TransportError
from .model import SerpSnapshot, Vertical, dedup_snapshot, results_from_links

SEARCH_URL = "https://www.google.com/search"
RESULTS_PER_PAGE = 10
DEFAULT_DELAY = 3.0

_UA = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:109.0) Gecko/20100101 Firefox/115.0"
)

# Substrings that mark a rate-limit interstitial rather than a result page.
_BLOCK_MARKERS = ("unusual traffic", 'action="/sorry/', "g-recaptcha")


@dataclass(frozen=True)
class FetchPlan:
    """Everything needed to fetch one query's pages for one day."""

    query: str
    vertical: Vertical = Vertical.GENERAL
    pages: int = 5
    date_range: tuple[date, date] | None = None
    politeness_delay: float = DEFAULT_DELAY
    fixture_dir: Path | None = None  # replay saved pages from here instead of fetching

    def __post_init__(self):
        if not self.query.strip():
            raise ValueError("query must be non-empty")
        if not 1 <= self.pages <= 5:
            raise ValueError(f"pages must be in [1,5], got {self.pages}")
        if self.politeness_delay < 0:
            raise ValueError("politeness_delay must be >= 0")
        if self.date_range is not None and self.date_range[0] > self.date_range[1]:
            raise ValueError("date_range start must not exceed its end")


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


def _looks_blocked(text: str) -> bool:
    lowered = text.lower()
    return any(marker in lowered for marker in _BLOCK_MARKERS)


def fetch_serp_page(
    plan: FetchPlan,
    page_no: int,
    day: date,
    *,
    session: requests.Session | None = None,
    sleep=time.sleep,
) -> bytes:
    """Fetch the raw bytes of one result page.

    Fixture mode is a pure file read. Live mode sleeps the politeness
    delay before each request and maps HTTP 429 / block interstitials to
    RateLimited and network failures to TransportError.
    """
    if plan.fixture_dir is not None:
        path = fixture_page_path(plan, day, page_no)
        if not path.is_file():
            raise FixtureNotFound(f"no fixture page at {path}")
        return path.read_bytes()

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
    http = session or requests
    try:
        resp = http.get(
            SEARCH_URL, params=params, headers={"User-Agent": _UA}, timeout=30
        )
    except requests.RequestException as e:
        raise TransportError(f"fetch failed for page {page_no}: {e}") from e
    if resp.status_code == 429:
        retry_after = 300.0
        try:
            retry_after = float(resp.headers.get("Retry-After", retry_after))
        except (TypeError, ValueError):
            pass
        raise RateLimited("server returned 429", retry_after=retry_after)
    if resp.status_code >= 400:
        raise TransportError(f"HTTP {resp.status_code} for page {page_no}")
    if _looks_blocked(resp.text):
        raise RateLimited("block page served instead of results")
    return resp.content


class _ResultLinkExtractor(HTMLParser):
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


def parse_serp_html(html: str | bytes) -> list[tuple[str, str]]:
    """Extract result (uri, title) pairs from one page's markup.

    Redirect hrefs are unwrapped; only absolute http(s) targets survive,
    which drops internal navigation and anchor-less headings. Raises
    RateLimited if the bytes are a block interstitial.
    """
    text = html.decode("utf-8", errors="replace") if isinstance(html, bytes) else html
    if _looks_blocked(text):
        raise RateLimited("block page served instead of results")
    extractor = _ResultLinkExtractor()
    extractor.feed(text)
    extractor.close()
    out = []
    for href, title in extractor.links:
        target = _unwrap_redirect(href)
        parts = urlsplit(target)
        if parts.scheme in ("http", "https") and parts.netloc:
            out.append((target, title))
    return out


def build_snapshot(
    plan: FetchPlan,
    day: date,
    *,
    session: requests.Session | None = None,
    sleep=time.sleep,
) -> SerpSnapshot:
    """Fetch and parse all requested pages for one day into a snapshot.

    Pages are fetched in order and the first block interstitial aborts
    the remainder. Duplicate canonical URIs keep their best placement.
    """
    links: list[tuple[str, str, int]] = []
    for page_no in range(1, plan.pages + 1):
        raw = fetch_serp_page(plan, page_no, day, session=session, sleep=sleep)
        for uri, title in parse_serp_html(raw):
            links.append((uri, title, page_no))
    snapshot = SerpSnapshot(
        query=plan.query,
        vertical=plan.vertical,
        date=day,
        results=results_from_links(links),
    )
    return dedup_snapshot(snapshot)
