"""Core domain types and URI canonicalization.

A story is identified across days by its canonical URI: scheme, query
string, fragment and default port stripped, host lowercased, trailing
slashes removed, path kept case-sensitively. Everything downstream
(timelines, churn metrics, model fitting) keys on that canonical form.

All types here are immutable; every function is pure.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from datetime import date, timedelta
from enum import Enum
from itertools import starmap
from operator import itemgetter
from typing import Callable, Iterable
from urllib.parse import urlsplit

from .errors import SerpParseError, UriParseError

PAGES_MAX = 5
DEFAULT_DELAY = 3.0  # seconds to wait before each live page request
N_STATES = PAGES_MAX + 1  # pages 1-5 plus state 0 (outside the pages)
_PAGES = frozenset(range(1, PAGES_MAX + 1))
INTERVAL_NAMES = {"daily": 1, "weekly": 7, "monthly": 30}  # the paper's lags in days, by name

# Ports that never change resource identity once the scheme is gone.
_DEFAULT_PORTS = (80, 443)


class Vertical(Enum):
    """Which flavor of result page a snapshot came from."""

    GENERAL = "general"
    NEWS = "news"

    @classmethod
    def _missing_(cls, value):
        """Refuse any other name as unparseable input, not as a bare ValueError."""
        expected = " or ".join(repr(v.value) for v in cls)
        raise SerpParseError(f"unknown vertical {value!r} (expected {expected})")


def canonicalize(uri: str) -> str:
    """Reduce a URI to the canonical form used for story identity.

    Drops the scheme, query string, fragment, userinfo and default port;
    lowercases the host; strips trailing slashes from the path while
    keeping its case. Idempotent: re-applying to the output is a no-op.

    Raises UriParseError if the input has no parseable host.
    """
    s = uri.strip()
    if not s:
        raise UriParseError(uri, "empty input")
    # Canonical outputs carry no scheme, so schemeless input must be read
    # as host-first, not as a path.
    if s.startswith("//") or "://" in s:
        target = s
    else:
        target = "//" + s
    try:
        parts = urlsplit(target)
    except ValueError as e:  # an unclosed IPv6 bracket, or a netloc NFKC changes
        raise UriParseError(uri, str(e)) from None
    try:
        port = parts.port
    except ValueError:
        raise UriParseError(uri, "invalid port") from None
    host = parts.hostname
    if not host:
        raise UriParseError(uri)
    if ":" in host:  # bare IPv6 address needs its brackets back
        host = f"[{host}]"
    netloc = host if port is None or port in _DEFAULT_PORTS else f"{host}:{port}"
    return netloc + parts.path.rstrip("/")


@dataclass(frozen=True, slots=True)
class SerpResult:
    """One extracted result link: where it pointed and where it sat."""

    uri: str
    canonical_uri: str
    title: str
    page: int  # 1-5
    rank: int  # 1-based position across all pages of the snapshot

    def __post_init__(self):
        if not (
            isinstance(self.uri, str)
            and isinstance(self.canonical_uri, str)
            and isinstance(self.title, str)
        ):
            name = next(n for n in ("uri", "canonical_uri", "title") if not isinstance(getattr(self, n), str))
            raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if type(self.page) is not int or type(self.rank) is not int:  # not 2.0, nor True
            raise ValueError(f"page and rank must be ints, got {self.page!r} and {self.rank!r}")
        if not 1 <= self.page <= PAGES_MAX:
            raise ValueError(f"page must be in [1, {PAGES_MAX}], got {self.page}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True, slots=True)
class SerpSnapshot:
    """All results extracted for one query x vertical x calendar date."""

    query: str
    vertical: Vertical
    date: date
    results: tuple[SerpResult, ...]

    def __post_init__(self):
        if not isinstance(self.query, str):
            raise ValueError(f"query must be a string, got {self.query!r}")
        if not isinstance(self.results, tuple):
            object.__setattr__(self, "results", tuple(self.results))
        last_rank = 0
        for r in self.results:
            if r.rank <= last_rank:
                raise ValueError(
                    f"ranks must be strictly increasing, got {r.rank} after {last_rank}"
                )
            last_rank = r.rank


def dedup_snapshot(snapshot: SerpSnapshot) -> SerpSnapshot:
    """Collapse repeated canonical URIs within one snapshot.

    Keeps each URI's first placement in rank order, the one every count
    reads; survivors keep their ranks and relative order.
    """
    first: dict[str, SerpResult] = {}
    for r in snapshot.results:
        first.setdefault(r.canonical_uri, r)
    return replace(snapshot, results=tuple(first.values()))


@dataclass(frozen=True, slots=True)
class StoryTimeline:
    """One story's page placements, by day offset from its first-seen day.

    ``pages`` maps each offset below ``length`` where the story sat on a
    page to that page (1-5), offset 0 included; ``unscraped`` holds the
    offsets with no snapshot. Every other offset is state 0: scraped, but
    the story was outside pages 1-5.
    """

    canonical_uri: str
    first_seen: date
    length: int
    pages: dict[int, int] = field(hash=False)  # read-only; a dict cannot be hashed
    unscraped: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("a timeline needs at least the first-seen observation")
        first = self.pages.get(0)
        if type(first) is not int or not 1 <= first <= PAGES_MAX:
            raise ValueError(f"day-0 observation must be a page in [1,{PAGES_MAX}], got {first!r}")
        pages = self.pages.values()
        # 2.0 and True equal pages 2 and 1 but are no page, so the types count too
        if not (_PAGES.issuperset(pages) and {int}.issuperset(map(type, pages))):
            bad = next(v for v in pages if type(v) is not int or v not in _PAGES)
            raise ValueError(f"a page must be in [1,{PAGES_MAX}], got {bad!r}")
        offsets = self.unscraped.union(self.pages)
        if min(offsets) < 0 or max(offsets) >= self.length:
            raise ValueError(f"offsets must lie in [0, {self.length})")
        both = self.unscraped.intersection(self.pages)  # so offset 0 is never unscraped
        if both:
            raise ValueError(f"offsets {sorted(both)} are both pages and unscraped")

    def spell(self, row: list, at: int, cell: Callable[[int | None, int], object]) -> list:
        """``row``, spelling offset k as state 0 at ``row[at + k]``, with the pages and
        then the unscraped offsets patched in as ``cell(state, at + k)``."""
        for k, page in self.pages.items():
            row[at + k] = cell(page, at + k)
        for k in self.unscraped:
            row[at + k] = cell(None, at + k)
        return row

    @property
    def observations(self) -> tuple[int | None, ...]:
        """The padded row (page, 0, or None for no scrape), built on each access."""
        return tuple(self.spell([0] * self.length, 0, lambda state, _: state))

    def __len__(self) -> int:
        return self.length

    def notation(self) -> str:
        """Compact observation-vector form, e.g. ``{4, 2, 0, 0}`` ('-' = no scrape)."""
        row = self.spell(["0"] * self.length, 0, lambda state, _: "-" if state is None else str(state))
        return "{%s}" % ", ".join(row)


def trusted(cls):
    """A builder of ``cls``, a frozen slots dataclass of five fields, from
    values a check has already passed: each is set through its slot, and
    ``__post_init__`` does not run again."""
    a, b, c, d, e = (getattr(cls, f.name).__set__ for f in fields(cls))

    def build(v, w, x, y, z):
        obj = object.__new__(cls)
        a(obj, v)
        b(obj, w)
        c(obj, x)
        d(obj, y)
        e(obj, z)
        return obj

    return build


@dataclass(frozen=True)
class CollectionManifest:
    """A collection's identity plus the sorted dates it holds; all else derives from them."""

    topic: str
    vertical: Vertical
    dates: tuple[date, ...] = ()

    @property
    def start_date(self) -> date | None:
        return self.dates[0] if self.dates else None

    @property
    def end_date(self) -> date | None:
        return self.dates[-1] if self.dates else None

    @property
    def calendar(self) -> tuple[date, ...]:
        """Every day from the first snapshot to the last, gap days included."""
        span = (self.dates[-1] - self.dates[0]).days + 1 if self.dates else 0
        return tuple(self.dates[0] + timedelta(days=i) for i in range(span))

    @property
    def gaps(self) -> frozenset[date]:
        """The calendar days with no snapshot."""
        return frozenset(self.calendar).difference(self.dates)


@dataclass(frozen=True)
class RefindabilityModel:
    """Coefficients of the decay curve P(k) = a + b*e^(-c*k).

    ``a`` is the long-run asymptote, ``b`` the decay amplitude, ``c`` the
    per-day decay constant; ``sse`` is the fit's residual sum of squares.
    """

    a: float
    b: float
    c: float
    sse: float
    degenerate: bool = False  # c unidentifiable (b == 0)
    clamped: bool = False  # parameters were pulled back into their valid ranges

    _AB_SLACK = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must be in [0,1], got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0,1], got {self.b}")
        if self.a + self.b > 1.0 + self._AB_SLACK:
            raise ValueError(f"a + b must not exceed 1, got {self.a + self.b}")
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")
        if self.sse < 0.0:
            raise ValueError(f"sse must be >= 0, got {self.sse}")


# --- snapshot interchange format ------------------------------------------
#
# One JSON document per query x vertical x date:
#   {"query": ..., "vertical": "general"|"news", "date": "YYYY-MM-DD",
#    "links": [{"uri", "canonical_uri", "title", "page", "rank"}, ...]}
#
# Serialization is deterministic (fixed key order, one compact UTF-8 line and
# its newline): stored files, exports and stream lines are the same bytes.


def snapshot_to_json(snapshot: SerpSnapshot) -> str:
    doc = {
        "query": snapshot.query,
        "vertical": snapshot.vertical.value,
        "date": snapshot.date.isoformat(),
        "links": [
            {
                "uri": r.uri,
                "canonical_uri": r.canonical_uri,
                "title": r.title,
                "page": r.page,
                "rank": r.rank,
            }
            for r in snapshot.results
        ],
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> date:
    """A YYYY-MM-DD date, else ValueError; from Python 3.11 on, ``fromisoformat``
    alone also takes ``20240101`` and week dates such as ``2024-W01-1``."""
    if _ISO_DATE.fullmatch(text):
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    raise ValueError(f"{text!r} is not a YYYY-MM-DD date")


# Strict UTF-8 decoding yields no lone surrogate, so only an escape can.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(data: str | bytes):
    """A JSON document's value; bytes are read as UTF-8 only, and a lone
    surrogate escape such as ``\\ud800`` raises ValueError."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    doc = json.loads(text)
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a \\u escape names a lone surrogate, which is no character") from None
    return doc


def snapshot_from_json(data: str | bytes) -> SerpSnapshot:
    """The snapshot a document holds, read by ``read_json``. Any fault in
    decoding, parsing or building raises SerpParseError."""
    try:
        doc = read_json(data)
        results = _results_of(doc["links"])
        return SerpSnapshot(
            query=doc["query"],
            vertical=Vertical(doc["vertical"]),
            date=parse_date(doc["date"]),
            results=results,
        )
    except json.JSONDecodeError as e:
        raise SerpParseError(f"snapshot document is not valid JSON: {e}") from None
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise SerpParseError(f"snapshot document is malformed: {e}") from None


_LINK_FIELDS = itemgetter("uri", "canonical_uri", "title", "page", "rank")
_trusted_result = trusted(SerpResult)


def _results_of(links) -> tuple[SerpResult, ...]:
    """A document's links as results, checked as one batch: if all pass, none is
    checked again; else SerpResult(...) builds each in turn, and the first
    faulty link raises as it always did."""
    try:
        rows = list(map(_LINK_FIELDS, links))
    except (KeyError, TypeError):  # a missing key, or a link that is no object
        rows = []
    uris, canonical_uris, titles, pages, ranks = tuple(zip(*rows)) or ((),) * 5
    if rows and {str}.issuperset(map(type, uris + canonical_uris + titles)) and (
        {int}.issuperset(map(type, pages + ranks)) and _PAGES.issuperset(pages) and min(ranks) >= 1
    ):
        return tuple(starmap(_trusted_result, rows))
    return tuple(SerpResult(*_LINK_FIELDS(link)) for link in links)


def results_from_links(links: Iterable[tuple[str, str, int]]) -> tuple[SerpResult, ...]:
    """Rank (uri, title, page) triples in extraction order; a link ``canonicalize`` refuses takes no rank."""
    results: list[SerpResult] = []
    for uri, title, page in links:
        with suppress(UriParseError):
            results.append(SerpResult(uri, canonicalize(uri), title, page, rank=len(results) + 1))
    return tuple(results)
