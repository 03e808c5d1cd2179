"""Core domain types and URI canonicalization.

A story is identified across days by its canonical URI: scheme, query
string, fragment and default port stripped, host lowercased, trailing
slashes removed, path kept case-sensitively. Everything downstream
(timelines, churn metrics, model fitting) keys on that canonical form.

All types here are immutable; every function is pure. The records are
named tuples; a record with rules checks them in its constructor, and
its ``_make`` and ``_replace`` build through that constructor, as
``pickle`` and ``copy`` do.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from contextlib import suppress
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
INTERVAL_NAMES = {"daily": 1, "weekly": 7, "monthly": 30}  # the paper's lags in days, by name

# Ports that never change resource identity once the scheme is gone.
_DEFAULT_PORTS = (80, 443)
_DATE = date  # SerpSnapshot's field ``date`` hides the class in its constructor


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


class Checked:
    """The first base of a named-tuple record whose ``__new__`` checks its
    fields: ``_make``, and so ``_replace``, build through that ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SerpResult(Checked, namedtuple("SerpResult", "uri canonical_uri title page rank")):
    """One extracted result link: where it pointed and where it sat."""

    __slots__ = ()

    def __new__(cls, uri: str, canonical_uri: str, title: str, page: int, rank: int):
        """``page`` is 1-5; ``rank`` is the 1-based position across all pages of the snapshot."""
        if not (isinstance(uri, str) and isinstance(canonical_uri, str) and isinstance(title, str)):
            for name, value in (("uri", uri), ("canonical_uri", canonical_uri), ("title", title)):
                if not isinstance(value, str):
                    raise ValueError(f"{name} must be a string, got {value!r}")
        if type(page) is not int or type(rank) is not int:  # not 2.0, nor True
            raise ValueError(f"page and rank must be ints, got {page!r} and {rank!r}")
        if not 1 <= page <= PAGES_MAX:
            raise ValueError(f"page must be in [1, {PAGES_MAX}], got {page}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        return tuple.__new__(cls, (uri, canonical_uri, title, page, rank))


class SerpSnapshot(Checked, namedtuple("SerpSnapshot", "query vertical date results")):
    """All results extracted for one query x vertical x calendar date."""

    __slots__ = ()

    def __new__(cls, query: str, vertical: Vertical, date: date, results: Iterable[SerpResult]):
        if not isinstance(query, str):
            raise ValueError(f"query must be a string, got {query!r}")
        if not isinstance(vertical, Vertical) or type(date) is not _DATE:  # not a datetime
            raise ValueError(f"vertical must be a Vertical and date a date, got {vertical!r} and {date!r}")
        results = tuple(results)
        last_rank = 0
        for r in results:
            if not isinstance(r, SerpResult):
                raise ValueError(f"results must be SerpResults, got {r!r}")
            if r.rank <= last_rank:
                raise ValueError(f"ranks must be strictly increasing, got {r.rank} after {last_rank}")
            last_rank = r.rank
        return tuple.__new__(cls, (query, vertical, date, results))


def dedup_snapshot(snapshot: SerpSnapshot) -> SerpSnapshot:
    """Collapse repeated canonical URIs within one snapshot.

    Keeps each URI's first placement in rank order, the one every count
    reads; survivors keep their ranks and relative order.
    """
    first: dict[str, SerpResult] = {}
    for r in snapshot.results:
        first.setdefault(r.canonical_uri, r)
    return snapshot._replace(results=tuple(first.values()))


class StoryTimeline(Checked, namedtuple("StoryTimeline", "canonical_uri first_seen length pages unscraped")):
    """One story's page placements, by day offset from its first-seen day.

    ``pages`` maps each offset below ``length`` where the story sat on a
    page to that page (1-5), offset 0 included; ``unscraped`` holds the
    offsets with no snapshot. Every other offset is state 0: scraped, but
    the story was outside pages 1-5. ``pages`` is left out of the hash,
    since a dict cannot be hashed.
    """

    __slots__ = ()

    def __new__(cls, canonical_uri: str, first_seen: date, length: int, pages: dict[int, int],
                unscraped: Iterable[int] = frozenset()):
        if not isinstance(canonical_uri, str) or type(first_seen) is not date:  # not a datetime
            raise ValueError(f"canonical_uri must be a string and first_seen a date, "
                             f"got {canonical_uri!r} and {first_seen!r}")
        if not isinstance(pages, dict):
            raise ValueError(f"pages must be a dict, got {pages!r}")
        unscraped = frozenset(unscraped)
        offsets = unscraped.union(pages)
        for n in (length, *offsets):
            if type(n) is not int:  # not 2.0, nor True
                raise ValueError(f"length and offsets must be ints, got {n!r}")
        if length < 1:
            raise ValueError("a timeline needs at least the first-seen observation")
        first = pages.get(0)
        if type(first) is not int or not 1 <= first <= PAGES_MAX:
            raise ValueError(f"day-0 observation must be a page in [1,{PAGES_MAX}], got {first!r}")
        for page in pages.values():  # 2.0 and True equal pages 2 and 1 but are no page
            if type(page) is not int or not 1 <= page <= PAGES_MAX:
                raise ValueError(f"a page must be in [1,{PAGES_MAX}], got {page!r}")
        if min(offsets) < 0 or max(offsets) >= length:
            raise ValueError(f"offsets must lie in [0, {length})")
        both = unscraped.intersection(pages)  # so offset 0 is never unscraped
        if both:
            raise ValueError(f"offsets {sorted(both)} are both pages and unscraped")
        return tuple.__new__(cls, (canonical_uri, first_seen, length, pages, unscraped))

    def __hash__(self) -> int:
        return hash((self.canonical_uri, self.first_seen, self.length, self.unscraped))

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

    def notation(self) -> str:
        """Compact observation-vector form, e.g. ``{4, 2, 0, 0}`` ('-' = no scrape)."""
        row = self.spell(["0"] * self.length, 0, lambda state, _: "-" if state is None else str(state))
        return "{%s}" % ", ".join(row)


class CollectionManifest(Checked, namedtuple("CollectionManifest", "topic vertical dates")):
    """A collection's identity plus the sorted dates it holds; all else derives from them."""

    __slots__ = ()

    def __new__(cls, topic: str, vertical: Vertical, dates: Iterable[date] = ()):
        if not isinstance(topic, str) or not isinstance(vertical, Vertical):
            raise ValueError(f"topic must be a string and vertical a Vertical, got {topic!r} and {vertical!r}")
        dates = tuple(dates)
        for day in dates:
            if type(day) is not date:  # not a datetime
                raise ValueError(f"dates must be dates, got {day!r}")
        for before, after in zip(dates, dates[1:]):
            if after <= before:
                raise ValueError(f"dates must be strictly increasing, got {after} after {before}")
        return tuple.__new__(cls, (topic, vertical, dates))

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
        """The calendar days with no snapshot: those strictly between two consecutive dates."""
        return frozenset(
            before + timedelta(days=i)
            for before, after in zip(self.dates, self.dates[1:])
            for i in range(1, (after - before).days)
        )


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


_LINK_FIELDS = itemgetter("uri", "canonical_uri", "title", "page", "rank")


def snapshot_from_json(data: str | bytes) -> SerpSnapshot:
    """The snapshot a document holds, read by ``read_json``. Any fault in
    decoding, parsing or building raises SerpParseError."""
    try:
        doc = read_json(data)
        results = tuple(starmap(SerpResult, map(_LINK_FIELDS, doc["links"])))  # the first faulty link raises
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


def results_from_links(links: Iterable[tuple[str, str, int]]) -> tuple[SerpResult, ...]:
    """Rank (uri, title, page) triples in extraction order; a link ``canonicalize`` refuses takes no rank."""
    results: list[SerpResult] = []
    for uri, title, page in links:
        with suppress(UriParseError):
            results.append(SerpResult(uri, canonicalize(uri), title, page, rank=len(results) + 1))
    return tuple(results)
