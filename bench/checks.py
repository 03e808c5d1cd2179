"""Independent recomputation of the paper's metrics, and the output checks.

Everything here works from plain collection data that the benchmark made
itself: ``{"YYYY-MM-DD": [[canonical_uri, page], ...]}`` in rank order, one
entry per scraped day. It imports nothing from ``serpchurn``, so a fault in
the package's store, metrics or oracle cannot hide in its own yardstick.

The recomputation is link-based rather than timeline-based: refind counts
are a histogram over (story, day offset) observations, and eligibility at
offset k is the sum over first-seen days f of births[f] * scraped[f + k].

Every ``check_*`` function returns a list of error strings, empty when the
output is right.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import date
from fractions import Fraction

PAGES = (1, 2, 3, 4, 5)
N_STATES = 6  # state 0 is "absent", then pages 1-5
INTERVALS = (1, 7, 30)
FIT_GRID = tuple(0.001 * 1.02 ** i for i in range(450))  # c from 0.001 to ~7.4


def _days(plain: dict) -> dict[int, list[tuple[str, int]]]:
    """Scraped days by ordinal, links as (uri, page) in rank order."""
    return {
        date.fromisoformat(d).toordinal(): [(u, int(p)) for u, p in links]
        for d, links in plain.items()
    }


def span_days(plain: dict) -> int:
    days = _days(plain)
    return max(days) - min(days) + 1


def story_count(plain: dict) -> int:
    return len({u for links in plain.values() for u, _ in links})


# -- recomputation ------------------------------------------------------


def rate_cells(plain: dict, intervals=INTERVALS, pages=PAGES) -> dict:
    """{(metric, lag, page or None): (exact mean, pairs)} for both rates."""
    days = _days(plain)
    sets = {
        d: {
            page: {u for u, p in links if page is None or p == page}
            for page in (None, *pages)
        }
        for d, links in days.items()
    }
    out = {}
    for lag in intervals:
        for page in (None, *pages):
            gone, fresh = [], []
            for d in sorted(sets):
                if d + lag not in sets:
                    continue
                u0, u1 = sets[d][page], sets[d + lag][page]
                if u0:
                    gone.append(Fraction(len(u0 - u1), len(u0)))
                if u1:
                    fresh.append(Fraction(len(u1 - u0), len(u1)))
            for metric, values in (("replacement_rate", gone), ("new_story_rate", fresh)):
                if values:
                    out[(metric, lag, page)] = (sum(values, Fraction(0)) / len(values), len(values))
    return out


def first_seen(plain: dict) -> dict[str, int]:
    first: dict[str, int] = {}
    days = _days(plain)
    for d in sorted(days):
        for u, _ in days[d]:
            first.setdefault(u, d)
    return first


def refind_counts(plain: dict) -> dict[int, tuple[list[int], int]]:
    """{k: ([seen, on page 1, ..., on page 5], eligible)} for every k with
    at least one eligible story."""
    days = _days(plain)
    first = first_seen(plain)
    start, last = min(days), max(days)
    births: dict[int, int] = {}
    for f in first.values():
        births[f] = births.get(f, 0) + 1
    hits: dict[int, list[int]] = {}
    for d, links in days.items():
        for u, p in links:
            row = hits.setdefault(d - first[u], [0] * N_STATES)
            row[0] += 1
            row[p] += 1
    out = {}
    for k in range(last - start + 1):
        eligible = sum(n for f, n in births.items() if f + k in days)
        if eligible:
            out[k] = (hits.get(k, [0] * N_STATES), eligible)
    return out


def transition_counts(plain: dict) -> list[list[int]]:
    """6x6 state-pair counts over consecutive scraped days, state 0 = absent,
    counted only from each story's first-seen day on."""
    days = _days(plain)
    first = first_seen(plain)
    born_by: dict[int, int] = {}
    for f in first.values():
        born_by[f] = born_by.get(f, 0) + 1
    counts = [[0] * N_STATES for _ in range(N_STATES)]
    alive = 0
    for d in range(min(days), max(days)):
        alive += born_by.get(d, 0)
        if d not in days or d + 1 not in days:
            continue
        today = dict(days[d])
        tomorrow = dict(days[d + 1])
        moved = 0
        for u, p in today.items():
            counts[p][tomorrow.get(u, 0)] += 1
            moved += 1
        for u, p in tomorrow.items():
            if u not in today and first[u] <= d:
                counts[0][p] += 1
                moved += 1
        counts[0][0] += alive - moved
    return counts


def refind_points(plain: dict) -> list[tuple[int, float]]:
    return [(k, float(Fraction(row[0], n))) for k, (row, n) in sorted(refind_counts(plain).items())]


# -- reading program output --------------------------------------------


def csv_rows(text: str) -> dict:
    """{(metric, interval, page): (value text, n text)} from report CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["metric", "vertical", "interval", "page", "value", "n"]:
        raise ValueError("not a report CSV")
    out = {}
    for metric, _vertical, interval, page, value, n in rows[1:]:
        out[(metric, interval, page)] = (value, n)
    return out


def expected_rows(plain: dict, rates: bool = True, probs: bool = True) -> dict:
    out = {}
    if rates:
        for (metric, lag, page), (mean, n) in rate_cells(plain).items():
            out[(metric, str(lag), "" if page is None else str(page))] = (repr(float(mean)), str(n))
    if probs:
        for k, (row, n) in refind_counts(plain).items():
            out[("prob_seen", str(k), "")] = (repr(float(Fraction(row[0], n))), str(n))
            for m in PAGES:
                out[("prob_seen", str(k), str(m))] = (repr(float(Fraction(row[m], n))), str(n))
    return out


# -- checks ------------------------------------------------------------


def check_report_csv(text: str, plain: dict, rates: bool = True, probs: bool = True) -> list[str]:
    """The program's CSV matches the recomputation cell for cell."""
    try:
        got = csv_rows(text)
    except ValueError as e:
        return [str(e)]
    want = expected_rows(plain, rates, probs)
    errors = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            errors.append(f"csv {key}: got {got.get(key)}, want {want.get(key)}")
    return errors[:10]


def check_prob_properties(text: str) -> list[str]:
    """Per-page refind probabilities partition P(seen) exactly, and P(0) = 1."""
    try:
        rows = csv_rows(text)
    except ValueError as e:
        return [str(e)]
    errors = []
    ks = sorted({int(i) for m, i, p in rows if m == "prob_seen" and p == ""})
    if not ks or ks[0] != 0 or rows[("prob_seen", "0", "")][0] != "1.0":
        errors.append("P(seen at 0) is not 1")
    for k in ks:
        value, n = rows[("prob_seen", str(k), "")]
        cells = [rows.get(("prob_seen", str(k), str(m))) for m in PAGES]
        if any(cell is None or cell[1] != n for cell in cells):
            errors.append(f"k={k}: a page is missing or has another n")
            continue
        parts = [_numerator(float(v), int(n)) for v, _ in cells]
        total = _numerator(float(value), int(n))
        if None in parts or total is None or sum(parts) != total:
            errors.append(f"k={k}: pages {parts} do not sum to P(seen) {value} of {n}")
    return errors[:10]


def _numerator(value: float, n: int) -> int | None:
    """The count h with float(h / n) == value, if there is one."""
    h = round(value * n)
    return h if float(Fraction(h, n)) == value else None


def check_transitions(counts: list[list[int]], plain: dict) -> list[str]:
    want = transition_counts(plain)
    if [list(row) for row in counts] != want:
        return [f"transition counts {counts} != {want}"]
    return []


def check_transition_table(text: str, plain: dict) -> list[str]:
    """The row-stochastic table printed by ``transitions`` matches the counts."""
    want = ["from\\to " + "".join(f"{j:>8}" for j in range(N_STATES))]
    for i, row in enumerate(transition_counts(plain)):
        total = sum(row)
        cells = (
            "".join(f"{float(Fraction(c, total)):>8.4f}" for c in row)
            if total
            else "".join(f"{'-':>8}" for _ in row)
        )
        want.append(f"{i:>7} {cells}")
    if text != "\n".join(want) + "\n":
        return ["transition table differs from the recomputed counts"]
    return []


def _sse(points, a: float, b: float, c: float) -> float:
    return math.fsum((p - (a + b * math.exp(-c * k))) ** 2 for k, p in points)


def best_grid_sse(points) -> float:
    """Least SSE over FIT_GRID, solving (a, b) by the 2x2 normal equations."""
    best = math.inf
    n = len(points)
    for c in FIT_GRID:
        es = [math.exp(-c * k) for k, _ in points]
        se = math.fsum(es)
        see = math.fsum(e * e for e in es)
        sp = math.fsum(p for _, p in points)
        sep = math.fsum(e * p for e, (_, p) in zip(es, points))
        det = n * see - se * se
        if det <= 0:
            continue
        a = (see * sp - se * sep) / det
        b = (n * sep - se * sp) / det
        best = min(best, _sse(points, a, b, c))
    return best


def check_fit(model: dict, points, plain: dict | None = None) -> list[str]:
    """The fit is a least-squares fit of the refind points.

    ``sse`` must equal the residual recomputed from (a, b, c), and an
    unclamped fit must be no worse than the best c on FIT_GRID.
    """
    errors = []
    points = [(float(k), float(p)) for k, p in points]
    if plain is not None:
        want = [(float(k), p) for k, p in refind_points(plain)]
        if points != want:
            errors.append("refind points differ from the recomputation")
            points = want
    a, b, c, sse = (float(model[key]) for key in ("a", "b", "c", "sse"))
    resid = _sse(points, a, b, c)
    if not math.isclose(sse, resid, rel_tol=1e-9, abs_tol=1e-15):
        errors.append(f"sse {sse!r} but residual of (a, b, c) is {resid!r}")
    if not model.get("clamped"):
        best = best_grid_sse(points)
        if sse > best * (1 + 1e-9) + 1e-15:
            errors.append(f"sse {sse!r} is worse than the grid's {best!r}")
    return errors


def check_grid(rects: int, plain: dict) -> list[str]:
    want = story_count(plain) * span_days(plain)
    if rects != want:
        return [f"temporal grid has {rects} rects, want {want} (stories x days)"]
    return []


def check_stats(text: str, plain: dict) -> list[str]:
    days = sorted(plain)
    want = {
        "snapshots": str(len(days)),
        "span days": str(span_days(plain)),
        "gap days": str(span_days(plain) - len(days)),
        "links": str(sum(len(v) for v in plain.values())),
        "stories": str(story_count(plain)),
        "first day": days[0],
        "last day": days[-1],
    }
    got = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        got[key.strip()] = value.strip()
    return [f"stats {k}: got {got.get(k)!r}, want {v!r}" for k, v in want.items() if got.get(k) != v]


def check_stored_day(doc: dict, want: list[tuple[str, int]]) -> list[str]:
    """A stored snapshot holds the intended canonical URIs and pages in rank order."""
    links = doc.get("links", [])
    got = [(link["canonical_uri"], link["page"]) for link in links]
    if got != [tuple(x) for x in want]:
        return [f"{doc.get('date')}: stored links differ from the fixture's intent"]
    ranks = [link["rank"] for link in links]
    if ranks != sorted(set(ranks)):
        return [f"{doc.get('date')}: ranks are not strictly increasing"]
    return []


def check_manifest(doc: dict, scraped: list[str], skipped: list[str]) -> list[str]:
    """Manifest dates are the scraped days; gaps are the skipped days inside them."""
    errors = []
    if doc.get("dates") != sorted(scraped):
        errors.append("manifest dates differ from the days scraped")
    lo, hi = min(scraped), max(scraped)
    want_gaps = sorted(d for d in skipped if lo < d < hi)
    if doc.get("gaps") != want_gaps:
        errors.append(f"manifest gaps {doc.get('gaps')} != skipped {want_gaps}")
    if doc.get("start_date") != lo:
        errors.append("manifest start_date is not the first scraped day")
    return errors
