import csv
import io
import re
from datetime import date, timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from serpchurn.cli import _interval_days
from serpchurn.errors import InsufficientDataError, ValidationError
from serpchurn.metrics import (
    RateKind,
    TransitionEstimate,
    _tally,
    avg_interval_rate,
    compute_rates,
    compute_refind,
    compute_report,
    new_story_rate,
    overlap,
    prob_seen,
    prob_seen_on_page,
    recall,
    refind_cells,
    replacement_rate,
    report_to_csv,
    temporal_matrix,
    transition_matrix,
)
from serpchurn.model import SerpSnapshot, StoryTimeline, Vertical, dedup_snapshot, results_from_links
from serpchurn.oracle import oracle_report, oracle_transition_counts
from serpchurn.render import ABSENT_COLOR, PAGE_COLORS, render_temporal_grid
from serpchurn.store import CollectionStore
from serpchurn.synth import SynthParams, generate

from builders import from_observations

D = lambda day: date(2024, 1, day)


def snap(day, links):
    return SerpSnapshot(
        query="topic",
        vertical=Vertical.GENERAL,
        date=D(day),
        results=results_from_links(
            [(f"https://{h}.example/s", f"Story {h}", page) for h, page in links]
        ),
    )


def store_of(*snaps):
    store = CollectionStore("topic", Vertical.GENERAL)
    for s in snaps:
        store.ingest(s)
    return store


def tl(*obs, uri="x.example/s", first=D(1)):
    return from_observations(uri, first, obs)


_ALIASES = ("https://{}.example/s", "HTTP://{}.EXAMPLE/s/?utm_source=x", "{}.example/s#top")


@st.composite
def messy_days(draw, span=9, dense=False, links=12):
    """Raw snapshots of some of ``span`` days (if ``dense``, of every day but
    some interior gaps), gaps and empty days included, each of up to ``links``
    links that repeat a story in three alias spellings at any pages and in
    any order."""
    link = st.tuples(st.sampled_from("abcdef"), st.sampled_from(_ALIASES), st.integers(1, 5))
    if dense:
        days = set(range(1, span + 1)) - draw(st.sets(st.integers(2, span - 1)), label="gaps")
    else:
        days = draw(st.sets(st.integers(1, span), min_size=1), label="days")
    return [
        SerpSnapshot(
            query="topic",
            vertical=Vertical.GENERAL,
            date=D(1) + timedelta(days=day - 1),
            results=results_from_links(
                (alias.format(h), f"Story {h}", page)
                for h, alias, page in draw(st.lists(link, max_size=links), label=f"day {day}")
            ),
        )
        for day in sorted(days)
    ]


class TestPairwiseRates:
    def test_worked_replacement_example(self):
        assert replacement_rate({"a", "b", "c"}, {"a", "b", "x", "y"}) == Fraction(1, 3)

    def test_worked_new_story_example(self):
        assert new_story_rate({"a", "b", "c"}, {"a", "b", "c", "d", "e"}) == Fraction(2, 5)

    def test_identical_sets(self):
        assert replacement_rate({"a"}, {"a"}) == 0
        assert new_story_rate({"a"}, {"a"}) == 0

    def test_disjoint_sets(self):
        assert replacement_rate({"a", "b"}, {"c"}) == 1
        assert new_story_rate({"a"}, {"b", "c"}) == 1

    def test_empty_denominators(self):
        with pytest.raises(InsufficientDataError, match="^replacement rate needs a non-empty earlier set$"):
            replacement_rate(set(), {"a"})
        with pytest.raises(InsufficientDataError, match="^new story rate needs a non-empty later set$"):
            new_story_rate({"a"}, set())

    def test_overlap_and_recall(self):
        a = {"x", "y", "z"}
        b = {"y", "z", "w", "v"}
        assert overlap(a, b) == Fraction(2, 3)
        assert recall(a, b) == Fraction(2, 3)
        assert recall(b, a) == Fraction(2, 4)
        with pytest.raises(InsufficientDataError, match="^overlap needs two non-empty sets$"):
            overlap(set(), {"a"})
        with pytest.raises(InsufficientDataError, match="^recall needs a non-empty reference set$"):
            recall(set(), {"a"})

    @given(
        st.sets(st.integers(0, 30), min_size=1),
        st.sets(st.integers(0, 30), min_size=1),
    )
    def test_rates_are_proper_fractions(self, u0, u1):
        assert 0 <= replacement_rate(u0, u1) <= 1
        assert 0 <= new_story_rate(u0, u1) <= 1
        assert 0 <= overlap(u0, u1) <= 1


class TestIntervalAveraging:
    def test_daily_mean_over_all_anchors(self):
        store = store_of(
            snap(1, [("a", 1), ("b", 1)]),
            snap(2, [("b", 1), ("c", 1)]),
            snap(3, [("c", 1), ("d", 1)]),
        )
        mean, n = avg_interval_rate(store, 1, RateKind.REPLACEMENT)
        assert (mean, n) == (Fraction(1, 2), 2)

    def test_anchor_skipped_when_endpoint_missing(self):
        store = store_of(
            snap(1, [("a", 1)]),
            snap(2, [("a", 1)]),
            snap(4, [("b", 1)]),
        )
        mean, n = avg_interval_rate(store, 1, RateKind.REPLACEMENT)
        assert (mean, n) == (Fraction(0), 1)

    def test_weekly_lag(self):
        store = store_of(
            snap(1, [("a", 1), ("b", 1)]),
            snap(8, [("a", 1), ("c", 1)]),
        )
        mean, n = avg_interval_rate(store, 7, RateKind.NEW_STORY)
        assert (mean, n) == (Fraction(1, 2), 1)
        with pytest.raises(InsufficientDataError):
            avg_interval_rate(store, 1, RateKind.REPLACEMENT)

    def test_monthly_is_thirty_days(self):
        assert _interval_days("monthly") == 30
        store = store_of(snap(1, [("a", 1)]), snap(31, [("b", 1)]))
        mean, n = avg_interval_rate(store, 30, RateKind.REPLACEMENT)
        assert (mean, n) == (Fraction(1), 1)

    def test_empty_set_anchor_skipped_not_zero(self):
        store = store_of(
            snap(1, []),
            snap(2, [("a", 1)]),
            snap(3, [("a", 1), ("b", 1)]),
        )
        mean, n = avg_interval_rate(store, 1, RateKind.REPLACEMENT)
        assert (mean, n) == (Fraction(0), 1)  # only the 2->3 anchor counts
        mean, n = avg_interval_rate(store, 1, RateKind.NEW_STORY)
        assert (mean, n) == (Fraction(3, 4), 2)  # 1/1 then 1/2

    def test_page_level_uses_same_page_sets(self):
        store = store_of(
            snap(1, [("a", 1), ("b", 2)]),
            snap(2, [("a", 2), ("c", 1)]),
        )
        mean, _ = avg_interval_rate(
            store, 1, RateKind.REPLACEMENT, page=1
        )
        assert mean == Fraction(1)  # "a" left page 1 even though it survived overall
        mean, _ = avg_interval_rate(store, 1, RateKind.REPLACEMENT)
        assert mean == Fraction(1, 2)

    def test_page_without_data_raises(self):
        store = store_of(snap(1, [("a", 1)]), snap(2, [("a", 1)]))
        with pytest.raises(InsufficientDataError):
            avg_interval_rate(store, 1, RateKind.REPLACEMENT, page=4)

    @pytest.mark.parametrize("page", [0, 6, -1])
    def test_a_page_outside_one_to_five_has_no_pair(self, page):
        # page 5 and all pages have pairs, so a page that read the all-pages
        # row (0) or wrapped round to page 5 (-1) would get a mean
        store = store_of(snap(1, [("a", 5), ("b", 5)]), snap(2, [("b", 5), ("c", 5)]))
        assert avg_interval_rate(store, 1, RateKind.REPLACEMENT, page=5) == (Fraction(1, 2), 1)
        assert avg_interval_rate(store, 1, RateKind.REPLACEMENT) == (Fraction(1, 2), 1)
        for kind in RateKind:
            with pytest.raises(InsufficientDataError, match=f"no usable 1-day anchor pairs on page {page}$"):
                avg_interval_rate(store, 1, kind, page=page)

    def test_interval_names(self):
        assert _interval_days("daily") == 1
        assert _interval_days("weekly") == 7
        assert _interval_days("monthly") == 30
        assert _interval_days("14") == 14
        assert _interval_days("14d") == 14
        with pytest.raises(ValidationError, match="unknown interval 'monthl'"):
            _interval_days("monthl")
        for bad in ("7ddd", "+7", "\u0667d", "\u0663", "1_0"):  # ٧d and ٣: Arabic-Indic digits
            with pytest.raises(ValidationError, match=re.escape(f"unknown interval '{bad}'") + "$"):
                _interval_days(bad)
        # a count parses whatever its sign; the rates refuse a lag under 1
        store = store_of(snap(1, [("a", 1)]), snap(2, [("a", 1)]))
        for bad in (0, -7):
            assert _interval_days(f"{bad}d") == bad
            with pytest.raises(ValidationError, match=f"interval must be >= 1 day, got {bad}$"):
                avg_interval_rate(store, bad, RateKind.REPLACEMENT)
        # a lag past str()'s digit limit is refused alike, by its sign and size
        with pytest.raises(ValidationError, match=r"interval must be >= 1 day, got -\(5001 digits\)$"):
            avg_interval_rate(store, -(10**5000), RateKind.REPLACEMENT)
        with pytest.raises(ValidationError, match=r"got -\(5001 digits\)$"):
            compute_rates(store, [-(10**5000)])

    def test_a_count_past_the_digit_limit_is_as_long_as_the_longest_calendar(self):
        # past int()'s 4,300-digit limit; no store can span more days than date.min to date.max
        n = _interval_days("9" * 5000)
        assert date.min + timedelta(days=n - 1) == date.max

    @pytest.mark.parametrize(
        "days, shown",
        [(d, str(d)) for d in (3, 400, 3_000_000, 999_999_999, 1_000_000_000)] + [(10**5000, "(5001 digits)")],
        ids=["3", "400", "3000000", "999999999", "1000000000", "10**5000"],
    )
    def test_a_lag_past_the_span_has_no_pair(self, days, shown):
        store = store_of(snap(1, [("a", 1)]), snap(3, [("b", 1)]))
        with pytest.raises(InsufficientDataError, match=re.escape(f"no usable {shown}-day anchor pairs") + "$"):
            avg_interval_rate(store, days, RateKind.REPLACEMENT)
        assert compute_rates(store, [days]) == oracle_report(store, [days])._replace(prob_seen={}, prob_seen_page={})

    @pytest.mark.parametrize("seed, pages", [(1, 5), (2, 3), (3, 5)])
    def test_each_kind_page_and_lag_matches_the_oracle(self, seed, pages):
        p = SynthParams(days=20, pages=pages, per_page=3, replacement_rate=0.3, seed=seed)
        store = generate(p)
        for i in (4, 5, 11):  # interior days, so the span stays put
            del store.snapshots[p.start + timedelta(days=i)]
        # synth lists as many links every day, where both kinds read alike
        for d in sorted(store.snapshots)[::3]:
            kept = store.snapshots[d].results[: -(1 + d.day % 4)]
            store.snapshots[d] = store.snapshots[d]._replace(results=kept)
        want = oracle_report(store, intervals=(1, 2, 7))
        for kind, cells in ((RateKind.REPLACEMENT, want.replacement), (RateKind.NEW_STORY, want.new_story)):
            for days in (1, 2, 7):
                for page in (None, 1, 2, 3, 4, 5):
                    if (days, page) in cells:
                        mean, n = avg_interval_rate(store, days, kind, page)
                        assert (float(mean), n) == (cells[days, page].value, cells[days, page].n)
                    else:
                        with pytest.raises(InsufficientDataError):
                            avg_interval_rate(store, days, kind, page)

    @settings(max_examples=200, deadline=None)
    @given(messy_days(), st.sets(st.integers(0, 4), min_size=1))
    @example(  # day 1 is scraped but lists nothing, so day offsets start before any first_seen
        [snap(1, []), snap(2, [("a", 1), ("b", 2)]), snap(3, [("b", 1), ("c", 2)]), snap(5, [("a", 2), ("c", 2)])],
        {0, 1, 2, 3, 4},
    )
    def test_lags_near_the_span_match_the_oracle(self, raw, picks):
        """Lags 1 and 2, span - 1 (exactly one anchor pair), and span and
        span + 1 (none) count as the oracle does on a messy store."""
        store = store_of(*raw)
        span = len(store.manifest.calendar)
        lags = sorted(lag for lag in ((1, 2, span - 1, span, span + 1)[i] for i in picks) if lag >= 1)
        want = oracle_report(store, intervals=lags)
        assert compute_rates(store, lags) == want._replace(prob_seen={}, prob_seen_page={})

    def test_no_lag_steps_past_the_calendar(self):
        store = generate(SynthParams(days=12, start=date(9999, 12, 20), seed=3))
        mean, n = avg_interval_rate(store, 7, RateKind.REPLACEMENT)
        assert n == 5 and mean == 0  # anchors 9999-12-20 .. 12-24; no replacement
        assert compute_report(store) == oracle_report(store)


WORKED_TRIO = (
    tl(4, 2, 0, 0, uri="s0.example/a"),
    tl(1, 2, 0, 1, uri="s1.example/b"),
    tl(1, 1, 1, 1, uri="s2.example/c"),
)


class TestProbSeen:
    def test_worked_trio_by_day(self):
        assert prob_seen(WORKED_TRIO, 0) == 1
        assert prob_seen(WORKED_TRIO, 1) == 1
        assert prob_seen(WORKED_TRIO, 2) == Fraction(1, 3)
        assert prob_seen(WORKED_TRIO, 3) == Fraction(2, 3)

    def test_worked_trio_page_split(self):
        assert prob_seen_on_page(WORKED_TRIO, 1, 2) == Fraction(2, 3)
        assert prob_seen_on_page(WORKED_TRIO, 1, 1) == Fraction(1, 3)
        assert prob_seen_on_page(WORKED_TRIO, 1, 3) == 0

    def test_truncated_timelines_leave_denominator(self):
        tls = (tl(1, 1), tl(2, uri="y.example/s"))
        assert prob_seen(tls, 0) == 1
        assert prob_seen(tls, 1) == 1  # only the first timeline reaches day 1

    def test_missing_day_leaves_denominator(self):
        tls = (tl(1, None, 0), tl(1, 1, 1, uri="y.example/s"))
        assert prob_seen(tls, 1) == 1
        assert prob_seen(tls, 2) == Fraction(1, 2)

    def test_beyond_all_timelines_raises(self):
        with pytest.raises(InsufficientDataError):
            prob_seen(WORKED_TRIO, 4)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            prob_seen(WORKED_TRIO, -1)
        with pytest.raises(ValueError):
            prob_seen_on_page(WORKED_TRIO, 0, 0)
        with pytest.raises(ValueError):
            prob_seen_on_page(WORKED_TRIO, 0, 6)


obs_strategy = st.tuples(
    st.integers(1, 5),
).flatmap(
    lambda head: st.lists(
        st.one_of(st.none(), st.integers(0, 5)), min_size=0, max_size=8
    ).map(lambda rest: head + tuple(rest))
)

timelines_strategy = st.lists(obs_strategy, min_size=1, max_size=12).map(
    lambda rows: tuple(
        from_observations(f"s{i}.example/x", D(1), row) for i, row in enumerate(rows)
    )
)


@given(timelines_strategy, st.integers(0, 8))
def test_page_split_partitions_prob_seen(tls, k):
    try:
        total = prob_seen(tls, k)
    except InsufficientDataError:
        for m in range(1, 6):
            with pytest.raises(InsufficientDataError):
                prob_seen_on_page(tls, k, m)
        return
    assert sum(prob_seen_on_page(tls, k, m) for m in range(1, 6)) == total


# The dense loops the sparse counter replaced: every cell of every row.


def dense_refind_counts(timelines):
    rows = []
    for t in timelines:
        obs = t.observations
        while len(rows) < len(obs):
            rows.append([0] * 6)
        for row, state in zip(rows, obs):
            if state is not None:
                row[state] += 1
    return rows


def dense_transition_counts(timelines):
    counts = [[0] * 6 for _ in range(6)]
    for t in timelines:
        obs = t.observations
        for k in range(len(obs) - 1):
            here, there = obs[k], obs[k + 1]
            if here is None or there is None:
                continue
            counts[here][there] += 1
    return counts


long_rows = st.tuples(
    st.integers(1, 5),
    st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=39),
).map(lambda head_rest: (head_rest[0], *head_rest[1]))

long_timelines = st.lists(long_rows, min_size=1, max_size=12).map(
    lambda rows: tuple(
        from_observations(f"s{i}.example/x", D(1), row)
        for i, row in enumerate(rows)
    )
)


@settings(max_examples=300)
@given(st.one_of(obs_strategy, long_rows))
def test_a_row_survives_the_sparse_form(row):
    t = from_observations("x.example/s", D(1), row)
    assert t.observations == row
    assert t.length == len(row)
    assert t.notation() == "{" + ", ".join("-" if v is None else str(v) for v in row) + "}"


@settings(max_examples=300)
@given(long_timelines)
def test_sparse_counter_matches_dense_loops(tls):
    assert _tally(tls)[0] == dense_refind_counts(tls)
    want = dense_transition_counts(tls)
    try:
        est = transition_matrix(tls)
    except InsufficientDataError:
        assert sum(map(sum, want)) == 0
    else:
        assert [list(row) for row in est.counts] == want


class TestTransitions:
    def test_worked_trio_counts(self):
        est = transition_matrix(WORKED_TRIO)
        assert est.total == 9
        assert est.counts[4][2] == 1
        assert est.counts[2][0] == 2
        assert est.counts[1][1] == 3
        assert est.counts[1][2] == 1
        assert est.counts[0][0] == 1
        assert est.counts[0][1] == 1
        assert est.rows()[2][0] == 1
        assert est.rows()[0][1] == Fraction(1, 2)

    def test_unobserved_rows_stay_undefined(self):
        est = transition_matrix(WORKED_TRIO)
        rows = est.rows()
        assert rows[3] is None and rows[5] is None

    def test_pairs_across_missing_day_not_counted(self):
        est = transition_matrix((tl(1, None, 2, 2),))
        assert est.total == 1
        assert est.counts[2][2] == 1

    def test_state_zero_reentry_counted(self):
        est = transition_matrix((tl(1, 0, 0, 3),))
        assert est.counts[1][0] == 1
        assert est.counts[0][0] == 1
        assert est.counts[0][3] == 1

    def test_no_pairs_raises(self):
        with pytest.raises(InsufficientDataError):
            transition_matrix((tl(1), tl(2, uri="y.example/s")))
        with pytest.raises(InsufficientDataError):
            transition_matrix((tl(1, None, 2),))

    @pytest.mark.parametrize(
        "counts",
        [((0,) * 6,) * 5, ((0,) * 6,) * 5 + ((0,) * 5,), ((0,) * 7,) * 6],
        ids=["five-rows", "short-row", "long-rows"],
    )
    def test_counts_are_six_by_six(self, counts):
        with pytest.raises(ValidationError, match="^counts must be 6x6$"):
            TransitionEstimate(counts)

    @given(timelines_strategy)
    def test_defined_rows_sum_to_one(self, tls):
        try:
            est = transition_matrix(tls)
        except InsufficientDataError:
            return
        for row in est.rows():
            if row is not None:
                assert sum(row) == 1


def grid_states(matrix):
    """Each row's states, read back from the rects' fills in the drawn grid."""
    state_of = {"url(#gap)": None, ABSENT_COLOR: 0, **{c: p for p, c in PAGE_COLORS.items()}}
    rows = {}
    for y, fill in re.findall(r'<rect x="\d+" y="(\d+)" [^>]* fill="([^"]+)"', render_temporal_grid(matrix)):
        rows.setdefault(int(y), []).append(state_of[fill])
    return tuple(tuple(rows[y]) for y in sorted(rows))


class TestTemporalMatrix:
    def test_rows_cover_whole_span(self):
        tls = (
            tl(2, 0, uri="a.example/s", first=D(1)),
            tl(1, uri="b.example/s", first=D(2)),
        )
        m = temporal_matrix(tls, start=D(1), days=2)
        assert [t.canonical_uri for t in m.timelines] == ["a.example/s", "b.example/s"]
        assert grid_states(m) == ((2, 0), (0, 1))

    def test_gap_days_render_as_missing(self):
        tls = (tl(1, uri="b.example/s", first=D(3)),)
        m = temporal_matrix(tls, start=D(1), days=3, gaps=frozenset({D(2)}))
        assert grid_states(m) == ((0, None, 1),)

    def test_missing_observations_pass_through(self):
        tls = (tl(1, None, 0, first=D(1)),)
        m = temporal_matrix(tls, start=D(1), days=3)
        assert grid_states(m) == ((1, None, 0),)

    def test_a_span_under_one_day_is_rejected(self):
        with pytest.raises(ValidationError, match="^span must be >= 1 day, got 0$"):
            temporal_matrix((), start=D(1), days=0)

    @pytest.mark.parametrize(
        "timeline", [tl(1, first=D(1)), tl(1, 0, 0, first=D(2))], ids=["before", "after"]
    )
    def test_a_timeline_outside_the_span_is_rejected(self, timeline):
        with pytest.raises(ValidationError, match="^timeline for x.example/s falls outside the span$"):
            temporal_matrix((timeline,), start=D(2), days=2)


@pytest.mark.parametrize(
    "count",
    [
        lambda store: avg_interval_rate(store, 1, RateKind.REPLACEMENT),
        compute_rates,
        compute_refind,
        compute_report,
        CollectionStore.build_timelines,
        oracle_report,
        oracle_transition_counts,
    ],
    ids=[
        "avg_interval_rate", "compute_rates", "compute_refind", "compute_report", "build_timelines",
        "oracle_report", "oracle_transition_counts",
    ],
)
def test_every_count_refuses_an_empty_store(count):
    with pytest.raises(InsufficientDataError, match="^store holds no snapshots$"):
        count(CollectionStore("topic", Vertical.GENERAL))


class TestStorePath:
    """The store builds sparse timelines in one walk; every count reads them."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_store_timelines_match_their_row_rebuilds_with_random_gap_days(self, data):
        days = data.draw(st.integers(3, 20), label="days")
        p = SynthParams(
            days=days,
            pages=data.draw(st.integers(1, 5), label="pages"),
            per_page=data.draw(st.integers(1, 4), label="per_page"),
            replacement_rate=data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="rate"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
        store = generate(p)
        holes = data.draw(st.sets(st.integers(1, days - 2), max_size=4), label="holes")
        for i in holes:
            del store.snapshots[p.start + timedelta(days=i)]
        built = store.build_timelines()
        rebuilt = tuple(
            from_observations(t.canonical_uri, t.first_seen, t.observations)
            for t in built
        )
        assert rebuilt == built
        assert _tally(rebuilt)[0] == _tally(built)[0]
        assert dense_transition_counts(rebuilt) == dense_transition_counts(built)
        try:
            est = transition_matrix(built)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                transition_matrix(rebuilt)
        else:
            assert transition_matrix(rebuilt).counts == est.counts

    def test_a_uri_listed_twice_in_a_day_counts_at_its_first_placement(self):
        def twice(day, a_pages, b_page):
            links = [("http://a.com/x", "A", a_pages[0]), ("http://b.com/y", "B", b_page)]
            return SerpSnapshot(
                query="topic",
                vertical=Vertical.GENERAL,
                date=D(day),
                results=results_from_links(links + [("http://a.com/x", "A again", a_pages[1])]),
            )

        store = store_of(twice(1, (1, 3), 1), twice(2, (2, 1), 3))
        report = compute_report(store)
        assert report == oracle_report(store)
        assert report.prob_seen_page[(0, 1)].value == 1.0
        assert report.prob_seen_page[(0, 3)].value == 0.0
        est = transition_matrix(store.build_timelines())
        assert [list(row) for row in est.counts] == oracle_transition_counts(store)
        assert est.counts[1][2] == 1 and est.counts[1][3] == 1

    @settings(max_examples=200, deadline=None)
    @given(messy_days())
    def test_the_scrape_path_and_the_store_path_count_alike(self, raw):
        """A store of raw days, whose links repeat a story at any pages and in
        any order, counts as the store of the same days deduplicated."""
        stores = store_of(*raw), store_of(*map(dedup_snapshot, raw))
        assert stores[0].build_timelines() == stores[1].build_timelines()
        want = oracle_report(stores[0])
        want_counts = oracle_transition_counts(stores[0])
        for store in stores:
            assert compute_report(store) == want == oracle_report(store)
            assert oracle_transition_counts(store) == want_counts
            try:
                counts = [list(row) for row in transition_matrix(store.build_timelines()).counts]
            except InsufficientDataError:
                counts = [[0] * 6 for _ in range(6)]
            assert counts == want_counts

    @settings(max_examples=100, deadline=None)
    @given(messy_days(span=15))
    def test_the_oracle_reads_each_day_as_the_scraper_keeps_it(self, raw):
        """The judge's first placement in a day is the one ``dedup_snapshot``
        keeps, at every lag that has a pair and on every page."""
        stores = store_of(*raw), store_of(*map(dedup_snapshot, raw))
        lags = range(1, len(stores[0].manifest.calendar))
        assert oracle_report(stores[0], lags) == oracle_report(stores[1], lags)
        assert oracle_transition_counts(stores[0]) == oracle_transition_counts(stores[1])

    @settings(max_examples=250, deadline=None)
    @given(messy_days(span=15))
    def test_every_count_reads_the_same_ordered_timelines(self, raw):
        """The report, ``prob`` and ``transitions`` all count the timelines
        of the one walk, which come in (first_seen, canonical_uri) order, and
        give the same cells."""
        store = store_of(*raw)
        timelines = store.build_timelines()
        keys = [(t.first_seen, t.canonical_uri) for t in timelines]
        assert keys == sorted(keys)
        prob, prob_page = refind_cells(timelines)
        report = compute_report(store)
        assert (report.prob_seen, report.prob_seen_page) == (prob, prob_page)
        assert compute_refind(store) == report._replace(replacement={}, new_story={})
        assert compute_rates(store) == report._replace(prob_seen={}, prob_seen_page={})
        counts = _tally(timelines)[1]
        try:
            assert [list(row) for row in transition_matrix(timelines).counts] == counts
        except InsufficientDataError:
            assert sum(map(sum, counts)) == 0

    def test_store_timelines_are_not_checked_again(self, monkeypatch):
        store = generate(SynthParams(days=8, pages=2, per_page=3, replacement_rate=0.5, seed=4))

        def counts():
            rate = avg_interval_rate(store, 2, RateKind.NEW_STORY, page=1)
            return store.build_timelines(), compute_report(store), compute_refind(store), compute_rates(store), rate

        want = counts()

        def refuse(cls, *fields):
            raise AssertionError("a timeline built from a checked store was checked again")

        monkeypatch.setattr(StoryTimeline, "__new__", refuse)
        assert counts() == want
        with pytest.raises(AssertionError):
            tl(1, 0)  # the public constructor still checks

    def test_report_builds_no_padded_row(self, monkeypatch):
        store = generate(SynthParams(days=6, pages=2, per_page=3, replacement_rate=0.5, seed=3))

        def refuse(self):
            raise AssertionError("compute_report built a padded row")

        monkeypatch.setattr(StoryTimeline, "observations", property(refuse))
        report = compute_report(store)
        assert report.prob_seen and report.replacement
        assert transition_matrix(store.build_timelines()).total


class TestReport:
    def fixture_report(self, harvey_snapshots):
        s07, s08 = harvey_snapshots
        store = CollectionStore("hurricane harvey", Vertical.GENERAL)
        store.ingest(s07)
        store.ingest(s08)
        return compute_report(store)

    def test_fixture_rates(self, harvey_snapshots):
        report = self.fixture_report(harvey_snapshots)
        assert report.replacement[(1, None)].value == float(Fraction(13, 50))
        assert report.replacement[(1, None)].n == 1
        assert report.new_story[(1, None)].value == float(Fraction(12, 49))
        assert report.replacement[(1, 1)].value == float(Fraction(2, 5))
        assert report.replacement[(1, 4)].value == float(Fraction(3, 10))
        assert report.new_story[(1, 4)].value == float(Fraction(2, 9))
        assert (7, None) not in report.replacement  # no weekly anchor in two days

    def test_fixture_probabilities(self, harvey_snapshots):
        report = self.fixture_report(harvey_snapshots)
        assert report.prob_seen[0].value == 1.0
        assert report.prob_seen[0].n == 62
        assert report.prob_seen[1].value == float(Fraction(37, 50))
        assert report.prob_seen[1].n == 50
        assert report.prob_seen_page[(1, 1)].value == float(Fraction(8, 50))

    def test_fixture_transitions(self, harvey_snapshots):
        s07, s08 = harvey_snapshots
        store = CollectionStore("hurricane harvey", Vertical.GENERAL)
        store.ingest(s07)
        store.ingest(s08)
        est = transition_matrix(store.build_timelines())
        assert est.total == 50
        rows = est.rows()
        assert rows[1][1] == Fraction(6, 10)
        assert rows[1][0] == Fraction(1, 10)
        assert rows[4][4] == Fraction(7, 10)
        assert rows[5][0] == Fraction(2, 10)
        assert est.rows()[0] is None

    def test_csv_round_trip(self, harvey_snapshots):
        report = self.fixture_report(harvey_snapshots)
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))[1:]
        cells = {
            "replacement_rate": report.replacement,
            "new_story_rate": report.new_story,
            "prob_seen": {
                **{(k, None): c for k, c in report.prob_seen.items()},
                **report.prob_seen_page,
            },
        }
        assert len(rows) == sum(map(len, cells.values()))
        for metric, vertical, interval, page, value, n in rows:
            assert vertical == report.vertical.value
            cell = cells[metric][(int(interval), int(page) if page else None)]
            assert float(value) == cell.value and int(n) == cell.n

    @settings(max_examples=100, deadline=None)
    @given(messy_days(), st.sampled_from(Vertical))
    def test_the_csv_reads_back_cell_for_cell(self, raw, vertical):
        """Parsed with ``csv.reader``, every row gives back its cell's metric,
        interval, page (empty for all pages), value to the bit and n."""
        store = CollectionStore("topic", vertical)
        for day in raw:
            store.ingest(day._replace(vertical=vertical))
        report = compute_report(store)
        want = {
            (metric, str(key), "" if page is None else str(page)): (cell.value.hex(), cell.n)
            for metric, cells in (("replacement_rate", report.replacement), ("new_story_rate", report.new_story))
            for (key, page), cell in cells.items()
        }
        want.update((("prob_seen", str(k), ""), (cell.value.hex(), cell.n)) for k, cell in report.prob_seen.items())
        want.update(
            (("prob_seen", str(k), str(m)), (cell.value.hex(), cell.n)) for (k, m), cell in report.prob_seen_page.items()
        )
        header, *rows = csv.reader(io.StringIO(report_to_csv(report)))
        assert header == ["metric", "vertical", "interval", "page", "value", "n"]
        assert {row[1] for row in rows} <= {vertical.value}
        got = {(metric, key, page): (float(value).hex(), int(n)) for metric, _, key, page, value, n in rows}
        assert len(got) == len(rows) and got == want

    def test_csv_header_and_shape(self, harvey_snapshots):
        report = self.fixture_report(harvey_snapshots)
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "metric,vertical,interval,page,value,n"
        assert all(line.count(",") == 5 for line in lines)
        assert lines[1].startswith("replacement_rate,general,1,,")


class TestRelations:
    """Two relations that follow from the paper's definitions, so they judge
    stores of any length without a second implementation. The stores span 45
    days, so the monthly lag can have pairs."""

    LAGS = (1, 2, 7, 30, 44, 45)  # 44 pairs the first day with the last; 45 has no pair

    @settings(max_examples=100, deadline=None)
    @given(messy_days(span=45, dense=True, links=5))
    def test_reversing_time_swaps_the_two_rates(self, raw):
        """Dated first + last - d, day d's snapshot turns each pair (d, d + lag)
        into (d' - lag, d'), whose later set was the earlier one: every
        replacement cell becomes the new-story cell, value and n, and back."""
        first, last = raw[0].date, raw[-1].date
        backwards = [day._replace(date=first + (last - day.date)) for day in reversed(raw)]
        forward, reverse = (compute_rates(store_of(*days), self.LAGS) for days in (raw, backwards))
        assert forward.replacement == reverse.new_story
        assert forward.new_story == reverse.replacement

    @settings(max_examples=100, deadline=None)
    @given(messy_days(span=45, dense=True, links=5))
    def test_swapping_two_pages_permutes_every_count(self, raw):
        """With pages 2 and 4 swapped in every link, each page's rate cells,
        refind cells and transition counts move to the other page, and the
        all-pages cells and P(seen) stay as they were."""
        def swap(page):
            return {2: 4, 4: 2}.get(page, page)

        swapped = [day._replace(results=[r._replace(page=swap(r.page)) for r in day.results]) for day in raw]
        stores = store_of(*raw), store_of(*swapped)
        rates, moved = (compute_rates(store, self.LAGS) for store in stores)
        for cells, moved_cells in ((rates.replacement, moved.replacement), (rates.new_story, moved.new_story)):
            assert moved_cells == {(lag, page and swap(page)): cell for (lag, page), cell in cells.items()}
        (prob, prob_page), (moved_prob, moved_prob_page) = (refind_cells(s.build_timelines()) for s in stores)
        assert moved_prob == prob
        assert moved_prob_page == {(k, swap(m)): cell for (k, m), cell in prob_page.items()}
        counts, moved_counts = (_tally(s.build_timelines())[1] for s in stores)
        assert moved_counts == [[counts[swap(i)][swap(j)] for j in range(6)] for i in range(6)]


def _replace_a_snapshot(store, spare):
    """Every date kept: the day's first link is dropped."""
    day = D(8)
    store.snapshots[day] = store.snapshots[day]._replace(results=store.snapshots[day].results[1:])


def _delete_a_snapshot(store, spare):
    del store.snapshots[D(8)]


def _ingest_a_new_day(store, spare):
    store.ingest(spare)


def _delete_one_and_ingest_another(store, spare):
    """As many dates as before, and the same first and last."""
    del store.snapshots[D(8)]
    store.ingest(spare)


class TestOneWalkOneTally:
    """An unchanged store is walked once and its walk tallied once; after any
    change to its snapshots it reads as a store built fresh from them."""

    @staticmethod
    def _store():
        """A 12-day store less its day 6, and the snapshot of day 6."""
        store = generate(SynthParams(days=12, pages=3, per_page=3, replacement_rate=0.4, seed=5))
        return store, store.snapshots.pop(D(6))

    def test_an_unchanged_store_is_walked_once(self):
        store, _ = self._store()
        walked = store.build_timelines()
        store.snapshots[D(8)] = store.snapshots[D(8)]  # the same item
        assert store.build_timelines() is walked
        assert _tally(walked) is _tally(store.build_timelines())

    @pytest.mark.parametrize(
        "change", [_replace_a_snapshot, _delete_a_snapshot, _ingest_a_new_day, _delete_one_and_ingest_another]
    )
    def test_a_changed_store_reads_as_a_fresh_one(self, change):
        store, spare = self._store()
        before = store.build_timelines()
        compute_report(store)
        transition_matrix(store.build_timelines())
        change(store, spare)
        fresh = CollectionStore.from_snapshots(store.topic, store.vertical, store.snapshots.values())
        assert fresh.build_timelines() != before  # the change moves the walk
        assert store.build_timelines() == fresh.build_timelines()
        assert compute_report(store) == compute_report(fresh)
        assert transition_matrix(store.build_timelines()) == transition_matrix(fresh.build_timelines())

    def test_a_list_is_counted_afresh(self):
        store, _ = self._store()
        timelines = list(store.build_timelines())
        first = refind_cells(timelines)
        timelines.append(tl(2, 0, 1, uri="late.example/s"))
        assert refind_cells(timelines) == refind_cells(tuple(timelines)) != first
        assert _tally(timelines) is not _tally(timelines)

    def test_equal_tuples_count_alike_and_others_apart(self):
        store, _ = self._store()
        walked = store.build_timelines()
        copied = tuple(list(walked))
        assert copied is not walked
        assert _tally(walked) == _tally(copied)
        assert refind_cells(copied) == refind_cells(walked)
        other = (*walked[:-1], tl(1, 1, uri="other.example/s"))  # as many timelines, one of them another
        assert _tally(other) != _tally(walked)
