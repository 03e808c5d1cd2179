"""Churn metrics over a collection of snapshots.

All set-ratio computations run on ``fractions.Fraction`` so results are
exact; conversion to float happens once, at the report boundary. Days
without a snapshot never enter a denominator: interval averages skip
anchors that land on them and probability estimates drop stories whose
timeline is unobserved at the queried offset.

Every count reads the story timelines of the store's one calendar walk, the
rates by calendar day (``_interval_means``), the rest by day offset (``_tally``).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from datetime import date
from enum import Enum
from itertools import product
from fractions import Fraction
from typing import AbstractSet, Iterable, Iterator, Sequence

from .errors import InsufficientDataError, ValidationError
from .model import INTERVAL_NAMES, N_STATES, PAGES_MAX, Checked, StoryTimeline
from .store import CollectionStore

# -- pairwise set rates ------------------------------------------------


def replacement_rate(u0: AbstractSet[str], u1: AbstractSet[str]) -> Fraction:
    """Share of the earlier set that is gone from the later one."""
    if not u0:
        raise InsufficientDataError("replacement rate needs a non-empty earlier set")
    return Fraction(len(set(u0) - set(u1)), len(u0))


def new_story_rate(u0: AbstractSet[str], u1: AbstractSet[str]) -> Fraction:
    """Share of the later set that was absent from the earlier one."""
    if not u1:
        raise InsufficientDataError("new story rate needs a non-empty later set")
    return Fraction(len(set(u1) - set(u0)), len(u1))


def overlap(a: AbstractSet[str], b: AbstractSet[str]) -> Fraction:
    """Overlap coefficient: intersection over the smaller set."""
    if not a or not b:
        raise InsufficientDataError("overlap needs two non-empty sets")
    return Fraction(len(set(a) & set(b)), min(len(a), len(b)))


def recall(a: AbstractSet[str], b: AbstractSet[str]) -> Fraction:
    """Share of ``a`` that also appears in ``b``."""
    if not a:
        raise InsufficientDataError("recall needs a non-empty reference set")
    return Fraction(len(set(a) & set(b)), len(a))


# -- interval averaging ------------------------------------------------


class RateKind(Enum):
    REPLACEMENT = "replacement_rate"
    NEW_STORY = "new_story_rate"


def _lag_text(lag: int) -> str:
    """``lag`` as str() prints it, or its sign and digit count past str()'s limit."""
    try:
        return str(lag)
    except ValueError:
        digits = int(abs(lag).bit_length() * math.log10(2))  # the count, or one short of it
        return f"{'-' if lag < 0 else ''}({digits + (10**digits <= abs(lag))} digits)"


def _interval_means(
    store: CollectionStore, timelines: Iterable[StoryTimeline], lags: Iterable[int]
) -> dict[RateKind, dict[tuple[int, int | None], tuple[Fraction, int]]]:
    """avg_interval_rate by kind, then by (lag, page) with a usable pair, page
    None for all pages. One pass over the timelines counts, by calendar day d,
    the stories listed on d and again ``lag`` days later, on any page (row 0)
    or on the same page (row p), and at lag 0 those listed on d. A kind's
    numerators are summed per size of its defining set: one exact Fraction per
    size, not per pair. Counters are kept by position, replacement first."""
    lags = tuple(lags)
    for lag in lags:
        if lag < 1:
            raise ValidationError(f"interval must be >= 1 day, got {_lag_text(lag)}")
    calendar = store.manifest.calendar
    listed = [[0] * len(calendar) for _ in range(N_STATES)]  # the stories listed each day
    # a lag as long as the calendar has no anchor pair
    kept = {lag: [[0] * (len(calendar) - lag) for _ in range(N_STATES)] for lag in lags if lag < len(calendar)}
    for t in timelines:
        at, pages = (t.first_seen - calendar[0]).days, t.pages
        for k, page in pages.items():
            d = at + k
            listed[0][d] += 1
            listed[page][d] += 1
            for lag, rows in kept.items():
                again = pages.get(k + lag)
                if again is not None:
                    rows[0][d] += 1
                    if again == page:
                        rows[page][d] += 1
    scraped = [day in store.snapshots for day in calendar]
    means: dict[RateKind, dict] = {kind: {} for kind in RateKind}
    for (lag, rows), page in product(kept.items(), range(N_STATES)):
        by_size: tuple[Counter[int], Counter[int]] = (Counter(), Counter())
        n = [0, 0]
        for d, common in enumerate(rows[page]):
            if scraped[d] and scraped[d + lag]:
                for i, size in enumerate((listed[page][d], listed[page][d + lag])):
                    if size:
                        by_size[i][size] += size - common
                        n[i] += 1
        for kind, sizes, pairs in zip(RateKind, by_size, n):
            if pairs:
                mean = sum(Fraction(k, size) for size, k in sizes.items()) / pairs
                means[kind][lag, page or None] = mean, pairs
    return means


def avg_interval_rate(
    store: CollectionStore,
    days: int,
    kind: RateKind,
    page: int | None = None,
) -> tuple[Fraction, int]:
    """Mean day-pair rate over every anchor with both endpoints scraped.

    Anchors slide over all dates d where d and d + days both have
    snapshots. Pairs whose defining set is empty (no links that day, or
    none on the requested page) are skipped, not counted as zero.
    Returns the exact mean and the number of pairs averaged.
    """
    mean = _interval_means(store, store.build_timelines(), (days,))[kind].get((days, page))
    if mean is None:
        on_page = "" if page is None else f" on page {page}"
        raise InsufficientDataError(f"no usable {_lag_text(days)}-day anchor pairs{on_page}")
    return mean


# -- refind probabilities ----------------------------------------------


_last_tally: tuple = (None, None)  # the last tuple counted, held so no other object takes its id, and its counts


def _tally(timelines: Iterable[StoryTimeline]) -> tuple[list[list[int]], list[list[int]]]:
    """Refind rows and transition counts: the one counter behind both.

    The last tuple counted is counted once, so refind_cells, prob_seen and
    transition_matrix over one walk share its counts; a list or any other
    iterable is counted afresh on every call, since it can change between calls.

    Row k of the refind rows counts the stories in each state 0-5 exactly
    k days after first seen; unscraped days count nowhere, so a row's sum
    is the number of stories eligible at k.

    Each story's timeline gives its length n, its page by day offset for
    the days it sat on a page, and its unscraped offsets. Every other
    offset below n is state 0, so state-0 cells and (0, 0) pairs are
    counted by subtraction, never cell by cell; what hangs on n and the
    unscraped offsets alone is counted once for each group of stories
    sharing them.
    """
    global _last_tally
    last = _last_tally
    if last[0] is timelines:
        return last[1]
    rows: list[list[int]] = []
    pairs = [[0] * N_STATES for _ in range(N_STATES)]
    groups: dict[tuple[int, frozenset[int]], int] = {}  # stories by (length, unscraped offsets)
    for t in timelines:
        n, pages, unscraped = t.length, t.pages, t.unscraped
        groups[n, unscraped] = groups.get((n, unscraped), 0) + 1
        if n > len(rows):
            rows.extend([0] * N_STATES for _ in range(n - len(rows)))
        for k, page in pages.items():
            rows[k][page] += 1
            if k + 1 < n and k + 1 not in unscraped:
                pairs[page][pages.get(k + 1, 0)] += 1
            if k > 0 and k - 1 not in pages and k - 1 not in unscraped:
                pairs[0][page] += 1
    ends: Counter[int] = Counter()  # ends[n]: stories of length n
    usable = 0  # consecutive pairs with both days scraped
    for (n, unscraped), count in groups.items():
        ends[n] += count
        usable += count * (n - 1)
        for u in unscraped:  # drops (u - 1, u) and, unless u + 1 does, (u, u + 1)
            rows[u][0] -= count
            usable -= count * (1 + (u + 1 < n and u + 1 not in unscraped))
    pairs[0][0] = usable - sum(map(sum, pairs))
    alive = 0
    for k in reversed(range(len(rows))):
        alive += ends[k + 1]
        rows[k][0] += alive - sum(rows[k][1:])
    counts = rows, pairs
    if type(timelines) is tuple:
        _last_tally = timelines, counts
    return counts


def _row_at(timelines: Sequence[StoryTimeline], k: int) -> list[int]:
    if k < 0:
        raise ValueError(f"day offset must be >= 0, got {k}")
    rows = _tally(timelines)[0]
    if k >= len(rows) or sum(rows[k]) == 0:
        raise InsufficientDataError(f"no timeline observed at day {k}")
    return rows[k]


def prob_seen(timelines: Sequence[StoryTimeline], k: int) -> Fraction:
    """P(a story is back in pages 1-5 exactly k days after first seen).

    A story counts toward the denominator only if its timeline reaches
    day k and day k was actually scraped. Each call on a list counts every
    offset; refind_cells reads them all from one count.
    """
    row = _row_at(timelines, k)
    n = sum(row)
    return Fraction(n - row[0], n)


def prob_seen_on_page(timelines: Sequence[StoryTimeline], k: int, m: int) -> Fraction:
    """P(a story sits on page m exactly k days after first seen).

    Shares prob_seen's denominator, so summing over m = 1..5 gives
    exactly prob_seen(timelines, k).
    """
    if not 1 <= m <= PAGES_MAX:
        raise ValueError(f"page must be in [1,{PAGES_MAX}], got {m}")
    row = _row_at(timelines, k)
    return Fraction(row[m], sum(row))


# -- day-to-day transitions --------------------------------------------


class TransitionEstimate(Checked, namedtuple("TransitionEstimate", "counts")):
    """Maximum-likelihood day-to-day movement between page states.

    State 0 means absent from pages 1-5 that day. Rows with no observed
    departures stay undefined rather than being filled in.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[tuple[int, ...], ...]):
        if len(counts) != N_STATES or any(len(row) != N_STATES for row in counts):
            raise ValidationError(f"counts must be {N_STATES}x{N_STATES}")
        return tuple.__new__(cls, (counts,))

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))

    def rows(self) -> list[list[Fraction] | None]:
        """Per-state probability rows; None where the state was never left."""
        out: list[list[Fraction] | None] = []
        for row in self.counts:
            total = sum(row)
            out.append([Fraction(c, total) for c in row] if total else None)
        return out


def transition_matrix(timelines: Sequence[StoryTimeline]) -> TransitionEstimate:
    """Count state pairs on consecutive scraped days across all timelines.

    Day pairs separated by a missing scrape contribute nothing; state 0
    is a real state on both sides, so re-entries from 0 are counted.
    """
    counts = _tally(timelines)[1]
    est = TransitionEstimate(tuple(tuple(row) for row in counts))
    if est.total == 0:
        raise InsufficientDataError("no consecutive-day observation pairs")
    return est


# -- temporal placement matrix -----------------------------------------


class TemporalMatrix(namedtuple("TemporalMatrix", "start days gaps timelines")):
    """The story-by-day grid of page states over the whole collection span.

    ``timelines`` are the grid's rows, ordered by first appearance, each
    inside the ``days`` days from ``start``; ``gaps`` are the span's days
    with no snapshot. No cell is stored: a row is spelled out only while
    it is drawn. Days before a story's first appearance read as 0 (it was
    not in the pages yet), or None on a gap day; the story's own
    observations follow, and None fills the span after its timeline ends.
    """

    __slots__ = ()


def temporal_matrix(
    timelines: Sequence[StoryTimeline],
    *,
    start: date,
    days: int,
    gaps: frozenset[date] = frozenset(),
) -> TemporalMatrix:
    if days < 1:
        raise ValidationError(f"span must be >= 1 day, got {days}")
    ordered = tuple(sorted(timelines, key=lambda t: (t.first_seen, t.canonical_uri)))
    for t in ordered:
        offset = (t.first_seen - start).days
        if offset < 0 or offset + t.length > days:
            raise ValidationError(
                f"timeline for {t.canonical_uri} falls outside the span"
            )
    return TemporalMatrix(start, days, gaps, ordered)


# -- the aggregate report ----------------------------------------------


class ReportCell(namedtuple("ReportCell", "value n")):
    """A float ``value``, converted once from an exact Fraction, and the ``n``
    observations behind it."""

    __slots__ = ()


class ChurnReport(namedtuple("ChurnReport", "vertical replacement new_story prob_seen prob_seen_page")):
    """Every headline number for one collection, ready for CSV or text.

    Each field but ``vertical`` maps a key to a ``ReportCell``. Rate keys
    are (interval_days, page) with page None for the all-pages figure;
    probability keys are the day offset k, or (k, page).
    """

    __slots__ = ()


def rate_rows(report: ChurnReport) -> Iterator[tuple[str, int, int | None, ReportCell]]:
    """Each rate cell as (metric, days, page, cell): replacement first, then
    new-story, each by interval and then page, the all-pages figure first."""
    for kind, cells in zip(RateKind, (report.replacement, report.new_story)):
        for days, page in sorted(cells, key=lambda key: (key[0], key[1] or 0)):
            yield kind.value, days, page, cells[days, page]


DEFAULT_INTERVALS = tuple(INTERVAL_NAMES.values())


def _rate_cells(
    store: CollectionStore, timelines: Iterable[StoryTimeline], intervals: Iterable[int]
) -> tuple[dict[tuple[int, int | None], ReportCell], dict[tuple[int, int | None], ReportCell]]:
    """The replacement and new-story cells with a usable pair, by (lag, page)."""
    means = _interval_means(store, timelines, intervals)
    return tuple(
        {key: ReportCell(float(mean), n) for key, (mean, n) in means[kind].items()} for kind in RateKind
    )


def compute_rates(
    store: CollectionStore, intervals: Iterable[int] = DEFAULT_INTERVALS
) -> ChurnReport:
    """The report's rate cells; its probability cells stay empty."""
    return ChurnReport(store.vertical, *_rate_cells(store, store.build_timelines(), intervals), {}, {})


def refind_cells(
    timelines: Iterable[StoryTimeline],
) -> tuple[dict[int, ReportCell], dict[tuple[int, int], ReportCell]]:
    """P(seen) by offset k and its split over pages 1-5, in k order.

    Each cell's n is the number of stories eligible at k; offsets where
    none is eligible are left out.
    """
    prob: dict[int, ReportCell] = {}
    prob_page: dict[tuple[int, int], ReportCell] = {}
    for k, row in enumerate(_tally(timelines)[0]):
        n = sum(row)
        if n == 0:
            continue
        # int / int is correctly rounded: float(Fraction(a, n)) to the bit, without the Fraction
        prob[k] = ReportCell((n - row[0]) / n, n)
        for m in range(1, PAGES_MAX + 1):
            prob_page[(k, m)] = ReportCell(row[m] / n, n)
    return prob, prob_page


def compute_refind(store: CollectionStore) -> ChurnReport:
    """The report's probability cells, pages 1-5; its rate cells stay empty."""
    return ChurnReport(store.vertical, {}, {}, *refind_cells(store.build_timelines()))


def compute_report(store: CollectionStore) -> ChurnReport:
    """Every rate at the daily, weekly and monthly lags and every refind
    probability, from one walk of the store."""
    timelines = store.build_timelines()
    rates = _rate_cells(store, timelines, DEFAULT_INTERVALS)
    return ChurnReport(store.vertical, *rates, *refind_cells(timelines))


# -- CSV interchange ---------------------------------------------------


def report_to_csv(report: ChurnReport) -> str:
    """Render the report as CSV with one row per cell.

    The interval column carries the lag in days for rates and the day
    offset k for probabilities; page is empty for all-pages figures.
    Values are shortest-round-trip floats, so parsing the CSV back
    reproduces them bit for bit. No field is ever quoted: metric names,
    vertical names, ints and float reprs hold no comma, quote or line break.
    """
    cells = [*rate_rows(report)]
    cells += (("prob_seen", k, None, report.prob_seen[k]) for k in sorted(report.prob_seen))
    cells += (("prob_seen", k, m, report.prob_seen_page[k, m]) for k, m in sorted(report.prob_seen_page))
    v = report.vertical.value
    rows = (f"{metric},{v},{key},{page or ''},{cell.value!r},{cell.n}\n" for metric, key, page, cell in cells)
    return "metric,vertical,interval,page,value,n\n" + "".join(rows)
