"""Brute-force reference computation for collections of any size.

Everything here is recomputed straight from raw snapshots with plain
set scans: no timelines, no incremental state. From the metrics module it
takes the report containers, the default lags and the paper's two pairwise
definitions, ``replacement_rate`` and ``new_story_rate``, which read two
story sets and nothing else (C1 pins them on worked examples). The fast
path calls neither definition: it counts story timelines in one pass. So
agreement still checks its counting against the definitions themselves.
That makes this slow and simple, which is the point: the fast pipeline is
correct exactly when it agrees with this one.

Its cost is plain too: the report pairs every two scraped days at each
lag and reads every story on every day, and the counts step each story
day by day from its first sighting. On the 1095-day store of ``synth
--rate 0.35 --seed 5`` the two take about 4 s and 8 s on a 2-core VM.
"""

from __future__ import annotations

from datetime import date, timedelta
from fractions import Fraction
from typing import Iterable

from .errors import InsufficientDataError
from .metrics import DEFAULT_INTERVALS, ChurnReport, ReportCell, new_story_rate, replacement_rate
from .model import N_STATES, PAGES_MAX
from .store import CollectionStore


def _placements(store: CollectionStore) -> dict[date, dict[str, int]]:
    """Each scraped day, in date order, to its stories, each at the page of
    its first placement that day in rank order. Refuses an empty store."""
    if not store.snapshots:
        raise InsufficientDataError("store holds no snapshots")
    table: dict[date, dict[str, int]] = {}
    for day in sorted(store.snapshots):
        table[day] = placed = {}
        for r in store.snapshots[day].results:
            placed.setdefault(r.canonical_uri, r.page)
    return table


def _first_seen(table: dict[date, dict[str, int]]) -> dict[str, date]:
    first: dict[str, date] = {}
    for day, placed in table.items():
        for uri in placed:
            first.setdefault(uri, day)
    return first


def oracle_report(
    store: CollectionStore, intervals: Iterable[int] = DEFAULT_INTERVALS
) -> ChurnReport:
    """Recompute the whole churn report, pages 1-5, the slow, obvious way."""
    table = _placements(store)
    days = list(table)
    pages = range(1, PAGES_MAX + 1)

    cells: dict = {replacement_rate: {}, new_story_rate: {}}
    for lag in intervals:
        # by subtraction, so that no lag steps past the calendar's ends
        pairs = [(d, d2) for d in days for d2 in days if (d2 - d).days == lag]
        for page in [None, *pages]:
            rates: dict = {replacement_rate: [], new_story_rate: []}
            for d, d2 in pairs:
                u0, u1 = (
                    {u for u, p in table[day].items() if page is None or p == page}
                    for day in (d, d2)
                )
                # each rate is defined by a non-empty set: the earlier one, then the later
                for rate, defining in ((replacement_rate, u0), (new_story_rate, u1)):
                    if defining:
                        rates[rate].append(rate(u0, u1))
            for rate, found in rates.items():
                if found:
                    mean = sum(found, Fraction(0)) / len(found)
                    cells[rate][(lag, page)] = ReportCell(float(mean), len(found))

    by_offset: dict[int, list[int]] = {}  # k: the page, or 0, of each story scraped k days after first seen
    for uri, born in _first_seen(table).items():
        for day, placed in table.items():
            if day >= born:
                by_offset.setdefault((day - born).days, []).append(placed.get(uri, 0))
    prob: dict[int, ReportCell] = {}
    prob_page: dict[tuple[int, int], ReportCell] = {}
    for k, states in sorted(by_offset.items()):
        n = len(states)
        prob[k] = ReportCell(float(Fraction(n - states.count(0), n)), n)
        for m in pages:
            prob_page[(k, m)] = ReportCell(float(Fraction(states.count(m), n)), n)

    return ChurnReport(
        vertical=store.manifest.vertical,
        replacement=cells[replacement_rate],
        new_story=cells[new_story_rate],
        prob_seen=prob,
        prob_seen_page=prob_page,
    )


def oracle_transition_counts(store: CollectionStore) -> list[list[int]]:
    """Day-to-day state pair counts, one story and one calendar day at a
    time. Pairs spanning an unscraped day contribute nothing."""
    table = _placements(store)
    last = max(table)
    counts = [[0] * N_STATES for _ in range(N_STATES)]
    for uri, born in _first_seen(table).items():
        day = born
        while day < last:
            nxt = day + timedelta(days=1)
            if day in table and nxt in table:
                counts[table[day].get(uri, 0)][table[nxt].get(uri, 0)] += 1
            day = nxt
    return counts
