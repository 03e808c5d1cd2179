"""The benchmark's own checks: a 3-day example worked by hand, and for each
check a deliberately wrong output that it must reject.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

# Day 0: a, b on page 1, c on page 2. Day 1: a, c on page 1, d on page 2.
# Day 2: d on page 1, e on page 2.
PLAIN = {
    "2017-09-07": [["a", 1], ["b", 1], ["c", 2]],
    "2017-09-08": [["a", 1], ["c", 1], ["d", 2]],
    "2017-09-09": [["d", 1], ["e", 2]],
}

# Worked by hand (the CSV holds lag 1 only: the default lags 7 and 30 have
# no pairs in 3 days):
# lag 1, all pages: replacement (1/3 + 2/3) / 2 = 1/2, new (1/3 + 1/2) / 2 = 5/12
# lag 1, page 1: {a,b}->{a,c}->{d}: replacement (1/2 + 1) / 2, new the same
# lag 1, page 2: {c}->{d}->{e}: every story replaced, every story new
# lag 2: {a,b,c}->{d,e}, page 1 {a,b}->{d}, page 2 {c}->{e}: all 1, one pair each
# P(seen at 0) = 5/5 (pages 2/5, 3/5); at 1 = 3/4 (a, c, d back on page 1);
# at 2 = 0/3 (a, b, c all gone); e is never eligible past k = 0.
CSV = """metric,vertical,interval,page,value,n
replacement_rate,general,1,,0.5,2
replacement_rate,general,1,1,0.75,2
replacement_rate,general,1,2,1.0,2
new_story_rate,general,1,,0.4166666666666667,2
new_story_rate,general,1,1,0.75,2
new_story_rate,general,1,2,1.0,2
prob_seen,general,0,,1.0,5
prob_seen,general,1,,0.75,4
prob_seen,general,2,,0.0,3
prob_seen,general,0,1,0.4,5
prob_seen,general,0,2,0.6,5
prob_seen,general,0,3,0.0,5
prob_seen,general,0,4,0.0,5
prob_seen,general,0,5,0.0,5
prob_seen,general,1,1,0.75,4
prob_seen,general,1,2,0.0,4
prob_seen,general,1,3,0.0,4
prob_seen,general,1,4,0.0,4
prob_seen,general,1,5,0.0,4
prob_seen,general,2,1,0.0,3
prob_seen,general,2,2,0.0,3
prob_seen,general,2,3,0.0,3
prob_seen,general,2,4,0.0,3
prob_seen,general,2,5,0.0,3
"""

# d0->d1: a 1->1, b 1->0, c 2->1; d1->d2: a 1->0, b 0->0, c 1->0, d 2->1
COUNTS = [
    [1, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]

TABLE = (
    "from\\to        0       1       2       3       4       5\n"
    "      0   1.0000  0.0000  0.0000  0.0000  0.0000  0.0000\n"
    "      1   0.7500  0.2500  0.0000  0.0000  0.0000  0.0000\n"
    "      2   0.0000  1.0000  0.0000  0.0000  0.0000  0.0000\n"
    "      3        -       -       -       -       -       -\n"
    "      4        -       -       -       -       -       -\n"
    "      5        -       -       -       -       -       -\n"
)


def _replace_line(text, old, new):
    assert old in text
    return text.replace(old, new)


# -- the recomputation, by hand ------------------------------------------


def test_rates_by_hand():
    cells = checks.rate_cells(PLAIN, intervals=(1, 2))
    assert cells[("replacement_rate", 1, None)] == (Fraction(1, 2), 2)
    assert cells[("new_story_rate", 1, None)] == (Fraction(5, 12), 2)
    assert cells[("replacement_rate", 1, 1)] == (Fraction(3, 4), 2)
    assert cells[("new_story_rate", 2, 2)] == (Fraction(1), 1)
    assert ("replacement_rate", 1, 3) not in cells  # page 3 is always empty


def test_refind_by_hand():
    counts = checks.refind_counts(PLAIN)
    assert counts == {
        0: ([5, 2, 3, 0, 0, 0], 5),
        1: ([3, 3, 0, 0, 0, 0], 4),
        2: ([0, 0, 0, 0, 0, 0], 3),
    }
    assert checks.refind_points(PLAIN) == [(0, 1.0), (1, 0.75), (2, 0.0)]


def test_transitions_by_hand():
    assert checks.transition_counts(PLAIN) == COUNTS


def test_gap_day_is_never_eligible():
    gapped = {d: v for d, v in PLAIN.items() if d != "2017-09-08"}
    counts = checks.refind_counts(gapped)
    assert 1 not in counts  # nobody is observed one day after their debut
    assert counts[2] == ([0, 0, 0, 0, 0, 0], 3)
    assert checks.transition_counts(gapped) == [[0] * 6 for _ in range(6)]


def test_worked_csv_matches_the_package():
    """The hand-written CSV is what serpchurn itself prints for PLAIN."""
    serpchurn = pytest.importorskip("serpchurn")
    from datetime import date

    snaps = [
        serpchurn.SerpSnapshot(
            query="q",
            vertical=serpchurn.Vertical.GENERAL,
            date=date.fromisoformat(day),
            results=tuple(
                serpchurn.SerpResult(uri="http://" + u, canonical_uri=u, title=u, page=p, rank=r)
                for r, (u, p) in enumerate(links, start=1)
            ),
        )
        for day, links in PLAIN.items()
    ]
    store = serpchurn.CollectionStore.from_snapshots("q", serpchurn.Vertical.GENERAL, snaps)
    text = serpchurn.report_to_csv(serpchurn.compute_report(store))
    assert text == CSV
    counts = serpchurn.transition_matrix(store.build_timelines()).counts
    assert checks.check_transitions(counts, PLAIN) == []


# -- each check accepts the right output and rejects a wrong one ---------------


def test_report_csv_check():
    assert checks.check_report_csv(CSV, PLAIN) == []
    wrong_value = _replace_line(CSV, "replacement_rate,general,1,,0.5,2", "replacement_rate,general,1,,0.5000000000000001,2")
    wrong_n = _replace_line(CSV, "prob_seen,general,1,,0.75,4", "prob_seen,general,1,,0.75,5")
    missing = _replace_line(CSV, "prob_seen,general,2,5,0.0,3\n", "")
    extra = CSV + "replacement_rate,general,1,3,0.0,1\n"
    for bad in (wrong_value, wrong_n, missing, extra, "not,a,report\n"):
        assert checks.check_report_csv(bad, PLAIN), bad


def test_prob_properties_check():
    assert checks.check_prob_properties(CSV) == []
    # page 1 at k = 1 no longer adds up to P(seen at 1)
    broken = _replace_line(CSV, "prob_seen,general,1,1,0.75,4", "prob_seen,general,1,1,0.5,4")
    assert checks.check_prob_properties(broken)
    not_one = _replace_line(CSV, "prob_seen,general,0,,1.0,5", "prob_seen,general,0,,0.8,5")
    assert checks.check_prob_properties(not_one)


def test_transition_checks():
    assert checks.check_transitions(COUNTS, PLAIN) == []
    off = [row[:] for row in COUNTS]
    off[0][0] += 1
    assert checks.check_transitions(off, PLAIN)
    assert checks.check_transition_table(TABLE, PLAIN) == []
    assert checks.check_transition_table(TABLE.replace("0.7500  0.2500", "0.2500  0.7500"), PLAIN)


def _curve(a, b, c, ks=range(20)):
    return [(k, a + b * math.exp(-c * k)) for k in ks]


def test_fit_check():
    c = checks.FIT_GRID[200]
    points = _curve(0.1, 0.85, c)
    exact = {"a": 0.1, "b": 0.85, "c": c, "sse": 0.0, "clamped": False}
    assert checks.check_fit(exact, points) == []
    # the sse it claims is not the residual of its coefficients
    lying = dict(exact, a=0.12)
    assert checks.check_fit(lying, points)
    # honest about its residual, but a grid point does better
    worse = dict(exact, c=c * 1.5)
    worse["sse"] = checks._sse(points, worse["a"], worse["b"], worse["c"])
    assert checks.check_fit(worse, points)
    # fitted to other points than the recomputation gives
    assert checks.check_fit(exact, points, PLAIN)


def test_grid_check():
    assert checks.check_grid(5 * 3, PLAIN) == []
    assert checks.check_grid(5 * 3 - 1, PLAIN)


def test_stats_check():
    stats = (
        "topic:      q\nvertical:   general\nfirst day:  2017-09-07\nlast day:   2017-09-09\n"
        "snapshots:  3\nspan days:  3\ngap days:   0\nlinks:      8\nstories:    5\n"
    )
    assert checks.check_stats(stats, PLAIN) == []
    assert checks.check_stats(stats.replace("stories:    5", "stories:    6"), PLAIN)


def test_stored_day_check():
    links = PLAIN["2017-09-08"]
    doc = {
        "date": "2017-09-08",
        "links": [{"canonical_uri": u, "page": p, "rank": r} for r, (u, p) in enumerate(links, start=1)],
    }
    assert checks.check_stored_day(doc, links) == []
    swapped = dict(doc, links=[doc["links"][1], doc["links"][0], doc["links"][2]])
    assert checks.check_stored_day(swapped, links)
    moved = dict(doc, links=[dict(doc["links"][0], page=2)] + doc["links"][1:])
    assert checks.check_stored_day(moved, links)
    bad_rank = dict(doc, links=[dict(doc["links"][0], rank=2)] + doc["links"][1:])
    assert checks.check_stored_day(bad_rank, links)


def test_manifest_check():
    scraped = ["2017-09-07", "2017-09-09", "2017-09-10"]
    skipped = ["2017-09-08"]
    doc = {"start_date": "2017-09-07", "dates": scraped, "gaps": ["2017-09-08"]}
    assert checks.check_manifest(doc, scraped, skipped) == []
    assert checks.check_manifest(dict(doc, gaps=[]), scraped, skipped)
    assert checks.check_manifest(dict(doc, dates=scraped[:2]), scraped, skipped)
    assert checks.check_manifest(dict(doc, start_date="2017-09-09"), scraped, skipped)
