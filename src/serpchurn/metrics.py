"""Churn metrics over a collection of snapshots.

All set-ratio computations run on ``fractions.Fraction`` so results are
exact; conversion to float happens once, at the report boundary. Days
without a snapshot never enter a denominator: interval averages skip
anchors that land on them and probability estimates drop stories whose
timeline is unobserved at the queried offset.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from datetime import date, timedelta
from enum import Enum
from fractions import Fraction
from typing import AbstractSet, Iterable, Sequence

from .errors import InsufficientDataError, UndefinedRateError, ValidationError
from .model import PAGES_MAX, StoryTimeline, Vertical
from .store import CollectionStore

# -- pairwise set rates ------------------------------------------------


def replacement_rate(u0: AbstractSet[str], u1: AbstractSet[str]) -> Fraction:
    """Share of the earlier set that is gone from the later one."""
    if not u0:
        raise UndefinedRateError("replacement rate needs a non-empty earlier set")
    return Fraction(len(set(u0) - set(u1)), len(u0))


def new_story_rate(u0: AbstractSet[str], u1: AbstractSet[str]) -> Fraction:
    """Share of the later set that was absent from the earlier one."""
    if not u1:
        raise UndefinedRateError("new story rate needs a non-empty later set")
    return Fraction(len(set(u1) - set(u0)), len(u1))


def overlap(a: AbstractSet[str], b: AbstractSet[str]) -> Fraction:
    """Overlap coefficient: intersection over the smaller set."""
    if not a or not b:
        raise UndefinedRateError("overlap needs two non-empty sets")
    return Fraction(len(set(a) & set(b)), min(len(a), len(b)))


def recall(a: AbstractSet[str], b: AbstractSet[str]) -> Fraction:
    """Share of ``a`` that also appears in ``b``."""
    if not a:
        raise UndefinedRateError("recall needs a non-empty reference set")
    return Fraction(len(set(a) & set(b)), len(a))


# -- interval averaging ------------------------------------------------


class RateKind(Enum):
    REPLACEMENT = "replacement_rate"
    NEW_STORY = "new_story_rate"


_INTERVAL_NAMES = {"daily": 1, "weekly": 7, "monthly": 30}


@dataclass(frozen=True)
class IntervalSpec:
    """A comparison lag in days; monthly is fixed at 30."""

    days: int
    name: str

    def __post_init__(self):
        if self.days < 1:
            raise ValidationError(f"interval must be >= 1 day, got {self.days}")

    @classmethod
    def daily(cls) -> "IntervalSpec":
        return cls(1, "daily")

    @classmethod
    def weekly(cls) -> "IntervalSpec":
        return cls(7, "weekly")

    @classmethod
    def monthly(cls) -> "IntervalSpec":
        return cls(30, "monthly")

    @classmethod
    def from_days(cls, days: int) -> "IntervalSpec":
        for name, d in _INTERVAL_NAMES.items():
            if d == days:
                return cls(d, name)
        return cls(days, f"{days}d")

    @classmethod
    def from_name(cls, name: str) -> "IntervalSpec":
        key = name.strip().lower()
        if key in _INTERVAL_NAMES:
            return cls(_INTERVAL_NAMES[key], key)
        try:
            return cls.from_days(int(key.rstrip("d")))
        except ValueError:
            raise ValidationError(f"unknown interval {name!r}") from None


def uri_sets_by_day(
    store: CollectionStore, page: int | None = None
) -> dict[date, frozenset[str]]:
    return {
        d: snap.canonical_uris(page) for d, snap in store.snapshots.items()
    }


def avg_interval_rate(
    store: CollectionStore,
    interval: IntervalSpec,
    kind: RateKind,
    page: int | None = None,
) -> tuple[Fraction, int]:
    """Mean day-pair rate over every anchor with both endpoints scraped.

    Anchors slide over all dates d where d and d + interval both have
    snapshots. Pairs whose defining set is empty (no links that day, or
    none on the requested page) are skipped, not counted as zero.
    Returns the exact mean and the number of pairs averaged.
    """
    sets = uri_sets_by_day(store, page)
    lag = timedelta(days=interval.days)
    total = Fraction(0)
    n = 0
    for d in sorted(sets):
        later = sets.get(d + lag)
        if later is None:
            continue
        try:
            if kind is RateKind.REPLACEMENT:
                total += replacement_rate(sets[d], later)
            else:
                total += new_story_rate(sets[d], later)
        except UndefinedRateError:
            continue
        n += 1
    if n == 0:
        raise InsufficientDataError(
            f"no usable {interval.name} anchor pairs"
            + (f" on page {page}" if page else "")
        )
    return total / n, n


# -- refind probabilities ----------------------------------------------

N_STATES = PAGES_MAX + 1  # pages 1-5 plus state 0 (outside the pages)


def refind_counts(timelines: Sequence[StoryTimeline]) -> list[list[int]]:
    """Row k counts the timelines in each state 0-5 exactly k days after
    first seen.

    Unscraped days count nowhere, so a row's sum is the number of stories
    eligible at k. Every refind probability is a ratio of one row's cells.
    """
    rows: list[list[int]] = []
    for t in timelines:
        obs = t.observations
        while len(rows) < len(obs):
            rows.append([0] * N_STATES)
        for row, state in zip(rows, obs):
            if state is not None:
                row[state] += 1
    return rows


def _row_at(timelines: Sequence[StoryTimeline], k: int) -> list[int]:
    if k < 0:
        raise ValueError(f"day offset must be >= 0, got {k}")
    rows = refind_counts(timelines)
    if k >= len(rows) or sum(rows[k]) == 0:
        raise InsufficientDataError(f"no timeline observed at day {k}")
    return rows[k]


def _seen(row: list[int]) -> Fraction:
    n = sum(row)
    return Fraction(n - row[0], n)


def _check_page(m: int) -> None:
    if not 1 <= m <= PAGES_MAX:
        raise ValueError(f"page must be in [1,{PAGES_MAX}], got {m}")


def prob_seen(timelines: Sequence[StoryTimeline], k: int) -> Fraction:
    """P(a story is back in pages 1-5 exactly k days after first seen).

    A story counts toward the denominator only if its timeline reaches
    day k and day k was actually scraped. Each call counts the whole
    refind_counts table; refind_cells reads every offset from one count.
    """
    return _seen(_row_at(timelines, k))


def prob_seen_on_page(timelines: Sequence[StoryTimeline], k: int, m: int) -> Fraction:
    """P(a story sits on page m exactly k days after first seen).

    Shares prob_seen's denominator, so summing over m = 1..5 gives
    exactly prob_seen(timelines, k).
    """
    _check_page(m)
    row = _row_at(timelines, k)
    return Fraction(row[m], sum(row))


# -- day-to-day transitions --------------------------------------------


@dataclass(frozen=True)
class TransitionEstimate:
    """Maximum-likelihood day-to-day movement between page states.

    State 0 means absent from pages 1-5 that day. Rows with no observed
    departures stay undefined rather than being filled in.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.counts) != N_STATES or any(
            len(row) != N_STATES for row in self.counts
        ):
            raise ValidationError(f"counts must be {N_STATES}x{N_STATES}")

    def row_total(self, i: int) -> int:
        return sum(self.counts[i])

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))

    def prob(self, i: int, j: int) -> Fraction:
        total = self.row_total(i)
        if total == 0:
            raise UndefinedRateError(f"no transitions observed out of state {i}")
        return Fraction(self.counts[i][j], total)

    def rows(self) -> list[list[Fraction] | None]:
        """Per-state probability rows; None where the state was never left."""
        out: list[list[Fraction] | None] = []
        for i in range(N_STATES):
            total = self.row_total(i)
            if total == 0:
                out.append(None)
            else:
                out.append([Fraction(c, total) for c in self.counts[i]])
        return out


def transition_matrix(timelines: Sequence[StoryTimeline]) -> TransitionEstimate:
    """Count state pairs on consecutive scraped days across all timelines.

    Day pairs separated by a missing scrape contribute nothing; state 0
    is a real state on both sides, so re-entries from 0 are counted.
    """
    counts = [[0] * N_STATES for _ in range(N_STATES)]
    for t in timelines:
        obs = t.observations
        for k in range(len(obs) - 1):
            here, there = obs[k], obs[k + 1]
            if here is None or there is None:
                continue
            counts[here][there] += 1
    est = TransitionEstimate(tuple(tuple(row) for row in counts))
    if est.total == 0:
        raise InsufficientDataError("no consecutive-day observation pairs")
    return est


# -- temporal placement matrix -----------------------------------------


@dataclass(frozen=True)
class TemporalMatrix:
    """Story-by-day grid of page states for the whole collection span.

    Rows are stories ordered by first appearance; cells hold 0-5 or
    None where that day was never scraped. Days before a story's first
    appearance read as 0 (it was not in the pages yet).
    """

    start: date
    uris: tuple[str, ...]
    cells: tuple[tuple[int | None, ...], ...]

    @property
    def days(self) -> int:
        return len(self.cells[0]) if self.cells else 0


def temporal_matrix(
    timelines: Sequence[StoryTimeline],
    *,
    start: date,
    days: int,
    gaps: frozenset[date] = frozenset(),
) -> TemporalMatrix:
    if days < 1:
        raise ValidationError(f"span must be >= 1 day, got {days}")
    ordered = sorted(timelines, key=lambda t: (t.first_seen, t.canonical_uri))
    rows = []
    for t in ordered:
        offset = (t.first_seen - start).days
        if offset < 0 or offset + len(t.observations) > days:
            raise ValidationError(
                f"timeline for {t.canonical_uri} falls outside the span"
            )
        prefix: list[int | None] = [
            None if start + timedelta(days=i) in gaps else 0 for i in range(offset)
        ]
        row = prefix + list(t.observations)
        row.extend([None] * (days - len(row)))
        rows.append(tuple(row))
    return TemporalMatrix(
        start=start,
        uris=tuple(t.canonical_uri for t in ordered),
        cells=tuple(rows),
    )


# -- the aggregate report ----------------------------------------------


@dataclass(frozen=True)
class ReportCell:
    value: float  # converted once from an exact Fraction
    n: int  # observations behind the value


@dataclass(frozen=True)
class ChurnReport:
    """Every headline number for one collection, ready for CSV or text.

    Rate keys are (interval_days, page) with page None for the all-pages
    figure; probability keys are the day offset k, or (k, page).
    """

    topic: str
    vertical: Vertical
    replacement: dict[tuple[int, int | None], ReportCell]
    new_story: dict[tuple[int, int | None], ReportCell]
    prob_seen: dict[int, ReportCell]
    prob_seen_page: dict[tuple[int, int], ReportCell]


DEFAULT_INTERVALS = (1, 7, 30)


def compute_rates(
    store: CollectionStore,
    intervals: Iterable[int] = DEFAULT_INTERVALS,
    pages: Iterable[int] = range(1, PAGES_MAX + 1),
) -> ChurnReport:
    """The report's rate cells; its probability cells stay empty."""
    replacement: dict[tuple[int, int | None], ReportCell] = {}
    new_story: dict[tuple[int, int | None], ReportCell] = {}
    page_list = list(pages)
    for spec in [IntervalSpec.from_days(d) for d in intervals]:
        for kind, sink in (
            (RateKind.REPLACEMENT, replacement),
            (RateKind.NEW_STORY, new_story),
        ):
            for page in [None, *page_list]:
                try:
                    mean, n = avg_interval_rate(store, spec, kind, page)
                except InsufficientDataError:
                    continue
                sink[(spec.days, page)] = ReportCell(float(mean), n)
    m = store.manifest
    return ChurnReport(m.topic, m.vertical, replacement, new_story, {}, {})


def refind_cells(
    timelines: Sequence[StoryTimeline],
    pages: Iterable[int] = range(1, PAGES_MAX + 1),
) -> tuple[dict[int, ReportCell], dict[tuple[int, int], ReportCell]]:
    """P(seen) by offset k and its split over ``pages``, in k order.

    Each cell's n is the number of stories eligible at k; offsets where
    none is eligible are left out.
    """
    page_list = list(pages)
    for m in page_list:
        _check_page(m)
    prob: dict[int, ReportCell] = {}
    prob_page: dict[tuple[int, int], ReportCell] = {}
    for k, row in enumerate(refind_counts(timelines)):
        n = sum(row)
        if n == 0:
            continue
        prob[k] = ReportCell(float(_seen(row)), n)
        for m in page_list:
            prob_page[(k, m)] = ReportCell(float(Fraction(row[m], n)), n)
    return prob, prob_page


def compute_refind(
    store: CollectionStore,
    pages: Iterable[int] = range(1, PAGES_MAX + 1),
) -> ChurnReport:
    """The report's probability cells; its rate cells stay empty."""
    prob, prob_page = refind_cells(store.build_timelines(), pages)
    m = store.manifest
    return ChurnReport(m.topic, m.vertical, {}, {}, prob, prob_page)


def compute_report(
    store: CollectionStore,
    intervals: Iterable[int] = DEFAULT_INTERVALS,
    pages: Iterable[int] = range(1, PAGES_MAX + 1),
) -> ChurnReport:
    page_list = list(pages)
    rates = compute_rates(store, intervals, page_list)
    refind = compute_refind(store, page_list)
    return replace(
        rates, prob_seen=refind.prob_seen, prob_seen_page=refind.prob_seen_page
    )


# -- CSV interchange ---------------------------------------------------

CSV_COLUMNS = ("metric", "vertical", "interval", "page", "value", "n")


def report_to_csv(report: ChurnReport) -> str:
    """Render the report as CSV with one row per cell.

    The interval column carries the lag in days for rates and the day
    offset k for probabilities; page is empty for all-pages figures.
    Values are shortest-round-trip floats, so parsing the CSV back
    reproduces them bit for bit.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    v = report.vertical.value

    def rate_rows(metric: str, cells: dict[tuple[int, int | None], ReportCell]):
        for (days, page) in sorted(
            cells, key=lambda key: (key[0], key[1] if key[1] is not None else 0)
        ):
            cell = cells[(days, page)]
            w.writerow(
                [metric, v, days, "" if page is None else page, repr(cell.value), cell.n]
            )

    rate_rows("replacement_rate", report.replacement)
    rate_rows("new_story_rate", report.new_story)
    for k in sorted(report.prob_seen):
        cell = report.prob_seen[k]
        w.writerow(["prob_seen", v, k, "", repr(cell.value), cell.n])
    for (k, m) in sorted(report.prob_seen_page):
        cell = report.prob_seen_page[(k, m)]
        w.writerow(["prob_seen", v, k, m, repr(cell.value), cell.n])
    return buf.getvalue()


def parse_report_csv(text: str, topic: str = "") -> ChurnReport:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValidationError(f"CSV header must be {','.join(CSV_COLUMNS)}")
    vertical: Vertical | None = None
    replacement: dict[tuple[int, int | None], ReportCell] = {}
    new_story: dict[tuple[int, int | None], ReportCell] = {}
    prob: dict[int, ReportCell] = {}
    prob_page: dict[tuple[int, int], ReportCell] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValidationError(f"bad CSV row: {row!r}")
        metric, vert, interval, page, value, n = row
        this_vertical = Vertical.from_wire(vert)
        if vertical is None:
            vertical = this_vertical
        elif this_vertical is not vertical:
            raise ValidationError("CSV mixes verticals")
        cell = ReportCell(float(value), int(n))
        key_days = int(interval)
        key_page = int(page) if page else None
        if metric == "replacement_rate":
            replacement[(key_days, key_page)] = cell
        elif metric == "new_story_rate":
            new_story[(key_days, key_page)] = cell
        elif metric == "prob_seen":
            if key_page is None:
                prob[key_days] = cell
            else:
                prob_page[(key_days, key_page)] = cell
        else:
            raise ValidationError(f"unknown metric {metric!r}")
    if vertical is None:
        raise ValidationError("CSV holds no data rows")
    return ChurnReport(
        topic=topic,
        vertical=vertical,
        replacement=replacement,
        new_story=new_story,
        prob_seen=prob,
        prob_seen_page=prob_page,
    )
