"""Brute-force reference computation for desk-scale collections.

Everything here is recomputed straight from raw snapshots with plain
set scans: no timelines, no incremental state, no code shared with the
metrics module beyond the report containers. That makes it slow and
simple, which is the point: the fast pipeline is correct exactly when
it agrees with this one. A scale guard keeps it honest about its cost.
"""

from __future__ import annotations

from datetime import date, timedelta
from fractions import Fraction
from typing import Iterable

from .errors import InsufficientDataError, OracleScaleError
from .metrics import DEFAULT_INTERVALS, ChurnReport, ReportCell
from .model import N_STATES, PAGES_MAX
from .store import CollectionStore

MAX_STORIES = 200
MAX_SPAN_DAYS = 60


def _guard(store: CollectionStore) -> None:
    """Refuse an empty store, and one beyond desk scale."""
    if not store.snapshots:
        raise InsufficientDataError("store holds no snapshots")
    uris = set()
    for snap in store.snapshots.values():
        for r in snap.results:
            uris.add(r.canonical_uri)
    if len(uris) > MAX_STORIES:
        raise OracleScaleError(
            f"{len(uris)} stories exceed the oracle limit of {MAX_STORIES}"
        )
    span = (max(store.snapshots) - min(store.snapshots)).days + 1
    if span > MAX_SPAN_DAYS:
        raise OracleScaleError(
            f"{span}-day span exceeds the oracle limit of {MAX_SPAN_DAYS}"
        )


def _day_set(store: CollectionStore, day: date, page: int | None) -> set[str]:
    """The day's stories, or those whose first placement that day is on ``page``."""
    out = set()
    for r in store.snapshots[day].results:
        if page is None or _page_of(store, day, r.canonical_uri) == page:
            out.add(r.canonical_uri)
    return out


def _first_seen(store: CollectionStore) -> dict[str, date]:
    first: dict[str, date] = {}
    for day in sorted(store.snapshots):
        for r in store.snapshots[day].results:
            if r.canonical_uri not in first:
                first[r.canonical_uri] = day
    return first


def _page_of(store: CollectionStore, day: date, uri: str) -> int:
    for r in store.snapshots[day].results:
        if r.canonical_uri == uri:
            return r.page
    return 0


def oracle_report(
    store: CollectionStore, intervals: Iterable[int] = DEFAULT_INTERVALS
) -> ChurnReport:
    """Recompute the whole churn report, pages 1-5, the slow, obvious way."""
    _guard(store)
    days = sorted(store.snapshots)
    last = days[-1]
    pages = range(1, PAGES_MAX + 1)

    replacement: dict[tuple[int, int | None], ReportCell] = {}
    new_story: dict[tuple[int, int | None], ReportCell] = {}
    for lag in intervals:
        for page in [None, *pages]:
            repl_rates = []
            new_rates = []
            for d in days:
                d2 = d + timedelta(days=lag)
                if d2 not in store.snapshots:
                    continue
                u0 = _day_set(store, d, page)
                u1 = _day_set(store, d2, page)
                if u0:
                    gone = sum(1 for u in u0 if u not in u1)
                    repl_rates.append(Fraction(gone, len(u0)))
                if u1:
                    fresh = sum(1 for u in u1 if u not in u0)
                    new_rates.append(Fraction(fresh, len(u1)))
            if repl_rates:
                mean = sum(repl_rates, Fraction(0)) / len(repl_rates)
                replacement[(lag, page)] = ReportCell(float(mean), len(repl_rates))
            if new_rates:
                mean = sum(new_rates, Fraction(0)) / len(new_rates)
                new_story[(lag, page)] = ReportCell(float(mean), len(new_rates))

    first = _first_seen(store)
    span = (last - days[0]).days + 1
    prob: dict[int, ReportCell] = {}
    prob_page: dict[tuple[int, int], ReportCell] = {}
    for k in range(span):
        eligible = 0
        seen = 0
        on_page = {m: 0 for m in pages}
        for uri, born in first.items():
            day = born + timedelta(days=k)
            if day > last or day not in store.snapshots:
                continue
            eligible += 1
            p = _page_of(store, day, uri)
            if p >= 1:
                seen += 1
            if p in on_page:
                on_page[p] += 1
        if eligible == 0:
            continue
        prob[k] = ReportCell(float(Fraction(seen, eligible)), eligible)
        for m in pages:
            prob_page[(k, m)] = ReportCell(
                float(Fraction(on_page[m], eligible)), eligible
            )

    return ChurnReport(
        vertical=store.manifest.vertical,
        replacement=replacement,
        new_story=new_story,
        prob_seen=prob,
        prob_seen_page=prob_page,
    )


def oracle_transition_counts(store: CollectionStore) -> list[list[int]]:
    """Day-to-day state pair counts, one story and one calendar day at a
    time. Pairs spanning an unscraped day contribute nothing."""
    _guard(store)
    days = sorted(store.snapshots)
    first = _first_seen(store)
    counts = [[0] * N_STATES for _ in range(N_STATES)]
    for uri, born in first.items():
        day = born
        while day < days[-1]:
            nxt = day + timedelta(days=1)
            if day in store.snapshots and nxt in store.snapshots:
                counts[_page_of(store, day, uri)][_page_of(store, nxt, uri)] += 1
            day = nxt
    return counts
