"""Seeded inputs for the three workloads.

Each function below writes one workload's inputs under a directory and
saves, beside them, the plain data the checks recompute from
(``plain.json``): for every scraped day the canonical URIs and pages in
rank order. That plain data is
taken from the generator's own snapshots before any store code reads them,
so a fault in ingest or load cannot reach the yardstick.

The same seed gives byte-identical inputs. Each returns the seconds
spent inside ``serpchurn.synth.generate``.
"""

from __future__ import annotations

import html
import json
import random
import time
from datetime import date, timedelta
from pathlib import Path
from urllib.parse import quote

from serpchurn.store import CollectionStore
from serpchurn.synth import SynthParams, generate

# The paper: 7 queries, 233 days, five result pages of ten links each.
PAPER_DAYS = 233
PAPER_START = date(2017, 9, 7)
PAPER_QUERIES = 7
# Per-story daily replacement draws; with the kernel's 3 % leak to "absent"
# the measured daily replacement rates land at about 0.21 to 0.54.
PAPER_RATES = tuple(0.18 + i * (0.51 - 0.18) / (PAPER_QUERIES - 1) for i in range(PAPER_QUERIES))
GAP_DAYS = 4
# The slowest-churning collection also gets the temporal grid (about 2k
# stories x 233 days, a ~47 MB SVG).
GRID_COLLECTION = 0

DAILY_QUERY = "hurricane harvey"
DAILY_RATE = 0.35
SKIPPED_DAYS = 4


def kernel(leak: float = 0.03, reentry: float = 0.3, drift: float = 0.03) -> tuple:
    """6x6 page-movement kernel: state 0 is absent, row 0 re-enters evenly."""
    rows = [tuple([1.0 - reentry] + [reentry / 5] * 5)]
    for page in range(1, 6):
        row = [0.0] * 6
        row[0] = leak
        row[max(1, page - 1)] += drift
        row[min(5, page + 1)] += drift
        row[page] += 1.0 - leak - 2 * drift
        rows.append(tuple(row))
    return tuple(rows)


def _plain(snapshots) -> dict:
    return {
        s.date.isoformat(): [[r.canonical_uri, r.page] for r in s.results] for s in snapshots
    }


def _timed_generate(params: SynthParams):
    t0 = time.perf_counter()
    store = generate(params)
    return store.sorted_snapshots(), time.perf_counter() - t0


def _pick_days(rng: random.Random, days: int, n: int) -> set[int]:
    """n distinct day indices, never the first or last day."""
    return set(rng.sample(range(1, days - 1), n))


def build_paper(root: Path, seed: int) -> float:
    """Seven 233-day stores under root/stores/c<i>, plus root/plain.json."""
    synth_s = 0.0
    plain = []
    for i, rate in enumerate(PAPER_RATES):
        params = SynthParams(
            days=PAPER_DAYS,
            replacement_rate=rate,
            transition_kernel=kernel(),
            seed=seed * 1000 + i,
            topic=f"query {i}",
            start=PAPER_START,
        )
        snapshots, seconds = _timed_generate(params)
        synth_s += seconds
        gaps = _pick_days(random.Random(seed * 1000 + i), PAPER_DAYS, GAP_DAYS)
        kept = [s for day, s in enumerate(snapshots) if day not in gaps]
        CollectionStore.from_snapshots(params.topic, params.vertical, kept, root=root / "stores" / f"c{i}")
        plain.append(_plain(kept))
    (root / "plain.json").write_text(json.dumps(plain), encoding="utf-8")
    return synth_s


# -- daily-collect: a fixture tree of saved result pages -------------------

_HOSTS = (
    "www.houstonchronicle.com", "www.nytimes.com", "abc13.com", "www.khou.com",
    "en.wikipedia.org", "www.texastribune.org", "weather.com", "www.cnn.com",
    "www.washingtonpost.com", "www.chron.com", "www.nhc.noaa.gov", "www.reuters.com",
)
_SECTIONS = ("News", "weather", "Local/Houston", "us", "2017/09")
_WORDS = (
    "flood", "rain", "rescue", "shelter", "levee", "storm", "relief",
    "recovery", "Houston", "Texas", "FEMA", "damage", "power", "evacuation",
)


def _href(rng: random.Random, host: str, path: str) -> str:
    """One of the ways a result page links a story; all canonicalize to host+path."""
    form = rng.randrange(7)
    if form == 0:
        target = f"https://{host}{path}"
    elif form == 1:
        target = f"http://{host.upper()}{path}/"
    elif form == 2:
        target = f"https://{host}{path}?utm_source=google&utm_medium=search&utm_campaign=harvey"
    elif form == 3:
        target = f"https://{host}{path}#comments"
    elif form == 4:
        target = f"https://{host}:443{path}//"
    else:
        target = f"https://{host}{path}?ref=serp&id={rng.randrange(10**6)}"
    if form >= 4 or rng.random() < 0.5:
        # the result page's own redirector, as saved from a live search
        return f"/url?q={quote(target, safe='')}&sa=U&ved=0ahUK{rng.randrange(10**8)}&usg=AOvVaw{rng.randrange(10**6)}"
    return target


def _result_block(href: str, title: str, snippet: str) -> str:
    return (
        '<div class="g">\n'
        f'<h3 class="r"><a href="{html.escape(href)}">{html.escape(title)}</a></h3>\n'
        f'<div class="s"><cite>{html.escape(href[:60])}</cite><br>\n'
        f'<span class="st">{html.escape(snippet)}</span></div>\n'
        "</div>\n"
    )


def _page_html(query: str, page_no: int, blocks: list[str]) -> str:
    head = (
        "<!doctype html>\n<html>\n<head><meta charset=\"UTF-8\">"
        f"<title>{html.escape(query)} - Google Search</title></head>\n"
        '<body><div id="main"><div id="search"><div id="ires"><ol>\n'
    )
    extra = ""
    if page_no == 1:  # a heading without a link yields nothing
        extra += '<div class="g kno"><h3 class="r">People also ask</h3></div>\n'
    if page_no == 5:  # internal navigation is not a result
        extra += (
            f'<div class="g"><h3 class="r"><a href="/search?q={quote(query)}+forecast">'
            f"Searches related to {html.escape(query)}</a></h3></div>\n"
        )
    return head + extra + "".join(blocks) + "</ol></div></div></div></body>\n</html>\n"


def build_daily(root: Path, seed: int) -> float:
    """Fixture pages for every scraped day, plus root/plain.json and root/days.json.

    The stories and their pages come from ``synth``; each link is then
    written the way a saved result page shows it (redirects, tracking
    queries, fragments, upper-case hosts, default ports, trailing slashes)
    and some stories are repeated on a later page. ``plain.json`` holds,
    for each scraped day, the canonical URIs and pages the scrape should
    store: first occurrences, in rank order.
    """
    params = SynthParams(
        days=PAPER_DAYS,
        replacement_rate=DAILY_RATE,
        transition_kernel=kernel(),
        seed=seed,
        topic="daily",
        start=PAPER_START,
    )
    snapshots, synth_s = _timed_generate(params)
    rng = random.Random(seed)
    skipped = _pick_days(rng, PAPER_DAYS, SKIPPED_DAYS)
    slug = "-".join(DAILY_QUERY.split())
    plain = {}
    for day_idx, snap in enumerate(snapshots):
        if day_idx in skipped:
            continue
        day = snap.date.isoformat()
        expected: list[list] = []
        seen: set[str] = set()
        by_page: dict[int, list[str]] = {p: [] for p in range(1, 6)}
        for r in snap.results:
            sid = int(r.uri.rsplit("/", 1)[1])
            host = _HOSTS[sid % len(_HOSTS)]
            path = f"/{_SECTIONS[sid % len(_SECTIONS)]}/Story-{sid}"
            words = " ".join(rng.choice(_WORDS) for _ in range(6))
            by_page[r.page].append(_result_block(_href(rng, host, path), f"Story {sid}: {words}", words))
            canonical = host + path
            if canonical not in seen:
                seen.add(canonical)
                expected.append([canonical, r.page])
        # a story already listed shows up again further down, so the scrape
        # must keep its first placement
        for page in range(2, 6):
            earlier = [e for e in expected if e[1] <= page]
            if earlier and rng.random() < 0.4:
                canonical, _ = rng.choice(earlier)
                host, _, rest = canonical.partition("/")
                by_page[page].append(_result_block(_href(rng, host, "/" + rest), "Repeated story", "again"))
        day_dir = root / "fixture" / slug / "general" / day
        day_dir.mkdir(parents=True)
        for page, blocks in by_page.items():
            (day_dir / f"p{page}.html").write_text(_page_html(DAILY_QUERY, page, blocks), encoding="utf-8")
        plain[day] = expected
    (root / "plain.json").write_text(json.dumps(plain), encoding="utf-8")
    skipped_days = sorted((PAPER_START + timedelta(days=i)).isoformat() for i in skipped)
    (root / "days.json").write_text(json.dumps({"scrape": sorted(plain), "skipped": skipped_days}), encoding="utf-8")
    return synth_s


# -- readme-pipeline: the desk-scale data and the oracle's report ----------


def build_readme(root: Path, seed: int) -> float:
    """root/plain.json, root/oracle.csv (the oracle's report on the same data)
    and root/steps.json: each step's name, argv, stdin file and stdout file,
    the README pipeline with ``--store -`` redirected to ``stream.jsonl``."""
    from serpchurn.metrics import report_to_csv
    from serpchurn.oracle import oracle_report

    # the collection the first step's arguments make; the checks compare the
    # pipeline's output with this data, so the two must agree
    params = SynthParams(days=10, pages=2, per_page=5, replacement_rate=0.3, seed=seed)
    snapshots, synth_s = _timed_generate(params)
    store = CollectionStore.from_snapshots(params.topic, params.vertical, snapshots)
    (root / "plain.json").write_text(json.dumps(_plain(snapshots)), encoding="utf-8")
    (root / "oracle.csv").write_text(report_to_csv(oracle_report(store)), encoding="utf-8")
    steps = [
        ("synth", ["synth", "--days", "10", "--pages", "2", "--per-page", "5", "--rate", "0.3",
                   "--seed", str(seed), "--store", "-"], None, "stream.jsonl"),
        ("ingest", ["ingest", "-"], "stream.jsonl", "ingest.out"),
        ("stats", ["stats"], None, "stats.out"),
        ("metrics", ["metrics", "--format", "csv"], None, "metrics.out"),
        ("prob", ["prob", "--format", "csv"], None, "prob.out"),
        ("transitions", ["transitions"], None, "transitions.out"),
        ("fit", ["fit"], None, "fit.out"),
        ("grid", ["report", "--kind", "temporal-grid", "--format", "svg"], None, "grid.out"),
    ]
    (root / "steps.json").write_text(json.dumps(steps), encoding="utf-8")
    return synth_s


MAKE_INPUTS = {"paper-analysis": build_paper, "daily-collect": build_daily, "readme-pipeline": build_readme}
