import copy
import json
import pickle
import re
from datetime import date, datetime, timedelta

import pytest

from serpchurn.errors import SerpParseError, ValidationError
from serpchurn.fitting import RefindabilityModel
from serpchurn.metrics import ChurnReport, ReportCell, TemporalMatrix, TransitionEstimate
from serpchurn.model import (
    CollectionManifest,
    SerpResult,
    SerpSnapshot,
    StoryTimeline,
    Vertical,
    dedup_snapshot,
    results_from_links,
    snapshot_from_json,
    snapshot_to_json,
)
from serpchurn.serp_io import FetchPlan
from serpchurn.synth import SynthParams

from builders import IDENTITY_KERNEL, from_observations


def _result(uri, page, rank, canonical=None):
    return SerpResult(
        uri=uri,
        canonical_uri=canonical or uri.split("://")[1],
        title="t",
        page=page,
        rank=rank,
    )


def _snapshot(results):
    return SerpSnapshot(
        query="q", vertical=Vertical.GENERAL, date=date(2024, 1, 1), results=results
    )


_DAY, _NOON = date(2024, 1, 1), datetime(2024, 1, 1, 12)
_NAN, _INF = float("nan"), float("inf")
# a record built from a field of the wrong type or a non-finite number, and the
# message that refuses it, naming the field and the value
_WRONG = {
    "timeline-uri": (
        lambda: StoryTimeline(7, _DAY, 2, {0: 1}),
        f"canonical_uri must be a string and first_seen a date, got 7 and {_DAY!r}",
    ),
    "timeline-first-seen": (
        lambda: StoryTimeline("a.example/x", "2024-01-01", 2, {0: 1}),
        "canonical_uri must be a string and first_seen a date, got 'a.example/x' and '2024-01-01'",
    ),
    "timeline-datetime": (
        lambda: StoryTimeline("a.example/x", _NOON, 2, {0: 1}),
        f"canonical_uri must be a string and first_seen a date, got 'a.example/x' and {_NOON!r}",
    ),
    "timeline-pages-list": (
        lambda: StoryTimeline("a.example/x", _DAY, 2, [1, 2]),
        "pages must be a dict, got [1, 2]",
    ),
    "manifest-topic": (
        lambda: CollectionManifest(5, Vertical.GENERAL),
        "topic must be a string and vertical a Vertical, got 5 and <Vertical.GENERAL: 'general'>",
    ),
    "manifest-vertical": (
        lambda: CollectionManifest("t", "general"),
        "topic must be a string and vertical a Vertical, got 't' and 'general'",
    ),
    "manifest-dates": (
        lambda: CollectionManifest("t", Vertical.GENERAL, ("2024-01-01", "2024-01-03")),
        "dates must be dates, got '2024-01-01'",
    ),
    "manifest-datetime": (
        lambda: CollectionManifest("t", Vertical.GENERAL, (_NOON,)), f"dates must be dates, got {_NOON!r}"
    ),
    "snapshot-vertical": (
        lambda: SerpSnapshot("q", "general", _DAY, ()),
        f"vertical must be a Vertical and date a date, got 'general' and {_DAY!r}",
    ),
    "snapshot-date": (
        lambda: SerpSnapshot("q", Vertical.NEWS, "2024-01-01", ()),
        "vertical must be a Vertical and date a date, got <Vertical.NEWS: 'news'> and '2024-01-01'",
    ),
    "snapshot-datetime": (
        lambda: SerpSnapshot("q", Vertical.NEWS, _NOON, ()),
        f"vertical must be a Vertical and date a date, got <Vertical.NEWS: 'news'> and {_NOON!r}",
    ),
    "snapshot-tuple-result": (
        lambda: SerpSnapshot("q", Vertical.NEWS, _DAY, (("u", "a.example/x", "t", 1, 1),)),
        "results must be SerpResults, got ('u', 'a.example/x', 't', 1, 1)",
    ),
    "model-nan-c": (lambda: RefindabilityModel(0.1, 0.2, _NAN, 0.1), "c and sse must be finite, got nan and 0.1"),
    "model-nan-sse": (lambda: RefindabilityModel(0.1, 0.2, 1.0, _NAN), "c and sse must be finite, got 1.0 and nan"),
    "model-inf": (lambda: RefindabilityModel(0.1, 0.2, _INF, _INF), "c and sse must be finite, got inf and inf"),
    "model-negative-inf": (
        lambda: RefindabilityModel(0.1, 0.2, -_INF, -0.1), "c and sse must be finite, got -inf and -0.1"
    ),
    "model-text-coefficient": (lambda: RefindabilityModel("0.1", 0.2, 1.0, 0.1), "a must be a number, got '0.1'"),
    "model-text-flag": (
        lambda: RefindabilityModel(0.1, 0.2, 1.0, 0.1, degenerate="no", clamped=None),
        "degenerate and clamped must be bools, got 'no' and None",
    ),
}


def _kernel_with(entry):
    """The identity kernel with row 0's 1.0 spelled as ``entry``."""
    return [[entry, *IDENTITY_KERNEL[0][1:]], *IDENTITY_KERNEL[1:]]


# the same for the records built from user input, which ValidationError refuses
_WRONG_INPUT = {
    "plan-query-none": (
        lambda: FetchPlan(None),
        "query must be a string and vertical a Vertical, got None and <Vertical.GENERAL: 'general'>",
    ),
    "plan-vertical-text": (
        lambda: FetchPlan("q", vertical="news"), "query must be a string and vertical a Vertical, got 'q' and 'news'"
    ),
    "plan-pages-float": (lambda: FetchPlan("q", pages=2.0), "pages must be an int, got 2.0"),
    "plan-pages-bool": (lambda: FetchPlan("q", pages=True), "pages must be an int, got True"),
    "plan-delay-text": (lambda: FetchPlan("q", politeness_delay="3"), "politeness_delay must be a number, got '3'"),
    "plan-date-range-text": (
        lambda: FetchPlan("q", date_range=("2017-09-01", "2017-09-30")),
        "date_range must be a pair of dates, got ('2017-09-01', '2017-09-30')",
    ),
    "plan-date-range-datetime": (
        lambda: FetchPlan("q", date_range=(_DAY, _NOON)),
        f"date_range must be a pair of dates, got ({_DAY!r}, {_NOON!r})",
    ),
    "plan-fixture-dir": (lambda: FetchPlan("q", fixture_dir=5), "fixture_dir must be a path, got 5"),
    "synth-days-float": (lambda: SynthParams(days=2.5), "days must be an int, got 2.5"),
    "synth-days-bool": (lambda: SynthParams(days=True), "days must be an int, got True"),
    "synth-per-page-float": (lambda: SynthParams(days=2, per_page=2.0), "per_page must be an int, got 2.0"),
    "synth-rate-text": (
        lambda: SynthParams(days=2, replacement_rate="0.1"), "replacement_rate must be a number, got '0.1'"
    ),
    "synth-start-datetime": (
        lambda: SynthParams(days=2, start=datetime(2024, 1, 1)),
        "start must be a date, got datetime.datetime(2024, 1, 1, 0, 0)",
    ),
    "synth-topic-none": (
        lambda: SynthParams(days=2, topic=None),
        "topic must be a string and vertical a Vertical, got None and <Vertical.GENERAL: 'general'>",
    ),
    "synth-vertical-text": (
        lambda: SynthParams(days=2, vertical="news"),
        "topic must be a string and vertical a Vertical, got 'synthetic' and 'news'",
    ),
    "synth-kernel-bool": (
        lambda: SynthParams(days=2, transition_kernel=_kernel_with(True)),
        "kernel is not a matrix of numbers: True is not a number",
    ),
    "synth-kernel-text": (
        lambda: SynthParams(days=2, transition_kernel=_kernel_with("0.5")),
        "kernel is not a matrix of numbers: '0.5' is not a number",
    ),
    "synth-kernel-null": (
        lambda: SynthParams(days=2, transition_kernel=_kernel_with(None)),
        "kernel is not a matrix of numbers: None is not a number",
    ),
    "synth-kernel-int-past-float": (
        lambda: SynthParams(days=2, transition_kernel=_kernel_with(10**400)),
        "kernel is not a matrix of numbers: int too large to convert to float",
    ),
    "synth-kernel-number": (
        lambda: SynthParams(days=2, transition_kernel=5),
        "kernel is not a matrix of numbers: 'int' object is not iterable",
    ),
}

_LINK_DOC = (
    '{"query": "q", "vertical": "general", "date": "2024-01-01", "links": [{"uri": "http://a.example/x", '
    '"canonical_uri": "a.example/x", "title": "t", "page": %s, "rank": %s}]}'
)


class TestValidation:
    def test_page_bounds(self):
        with pytest.raises(ValueError):
            _result("https://a.example/x", page=0, rank=1)
        with pytest.raises(ValueError):
            _result("https://a.example/x", page=6, rank=1)

    def test_rank_positive(self):
        with pytest.raises(ValueError):
            _result("https://a.example/x", page=1, rank=0)

    def test_ranks_strictly_increasing(self):
        ok = _snapshot(
            (_result("https://a.example/1", 1, 1), _result("https://a.example/2", 1, 2))
        )
        assert len(ok.results) == 2
        with pytest.raises(ValueError):
            _snapshot(
                (
                    _result("https://a.example/1", 1, 2),
                    _result("https://a.example/2", 1, 2),
                )
            )

    def test_results_are_kept_as_a_tuple(self):
        results = [_result("https://a.example/1", 1, 1), _result("https://a.example/2", 1, 2)]
        snap = _snapshot(results)
        assert type(snap.results) is tuple and snap.results == tuple(results)

    def test_timeline_has_at_least_its_first_day(self):
        with pytest.raises(ValueError, match="^a timeline needs at least the first-seen observation$"):
            StoryTimeline("a.example/x", date(2024, 1, 1), 0, {0: 1})

    def test_timeline_first_day_must_be_on_page(self):
        with pytest.raises(ValueError):
            from_observations("a.example/x", date(2024, 1, 1), (0, 1))
        with pytest.raises(ValueError):
            from_observations("a.example/x", date(2024, 1, 1), (None, 1))
        for first in (2.0, True):
            with pytest.raises(ValueError, match=f"got {first!r}$"):
                from_observations("a.example/x", date(2024, 1, 1), (first, 1))
        t = from_observations("a.example/x", date(2024, 1, 1), (3, None, 0))
        assert t.length == 3

    def test_timeline_observation_range(self):
        for bad in (-1, 6, 2.5, 2.0, True):  # a state that is not an int page is no page
            with pytest.raises(ValueError, match=f"got {bad!r}$"):
                from_observations("a.example/x", date(2024, 1, 1), (1, 0, bad, None))
        for bad in (2.5, 4.0, True):  # nor is a length that is not an int a day count
            with pytest.raises(ValueError, match=f"^length and offsets must be ints, got {bad!r}$"):
                StoryTimeline("a.example/x", date(2024, 1, 1), bad, {0: 1})

    @pytest.mark.parametrize(
        "pages, unscraped",
        [
            ({0: 1, 2: 3}, {2}), ({0: 1, 4: 2}, ()), ({0: 1, -1: 2}, ()), ({0: 1}, {0}), ({0: 1}, {4}),
            ({0: 1, 1.0: 2}, ()), ({0: 1, True: 2}, ()), ({0: 1}, {1.5}),
        ],
        ids=[
            "page-and-unscraped", "page-past-end", "negative", "unscraped-day-0", "unscraped-past-end",
            "page-offset-float", "page-offset-bool", "unscraped-offset-float",
        ],
    )
    def test_timeline_offsets(self, pages, unscraped):
        with pytest.raises(ValueError):
            StoryTimeline("a.example/x", date(2024, 1, 1), 4, pages, frozenset(unscraped))

    def test_timeline_is_its_sparse_form(self):
        t = StoryTimeline("a.example/x", date(2024, 1, 1), 4, {0: 4, 1: 2}, frozenset({2}))
        row = from_observations("a.example/x", date(2024, 1, 1), (4, 2, None, 0))
        assert t == row and hash(t) == hash(row)
        assert t.observations == (4, 2, None, 0)
        for unscraped in ({2}, [2], iter([2])):  # any iterable of offsets is kept as a frozenset
            same = StoryTimeline("a.example/x", date(2024, 1, 1), 4, {0: 4, 1: 2}, unscraped)
            assert type(same.unscraped) is frozenset and same == t and hash(same) == hash(t)
        other = StoryTimeline("a.example/x", date(2024, 1, 1), 4, {0: 4, 1: 3}, frozenset({2}))
        assert t != other and hash(t) == hash(other)  # pages are left out of the hash

    def test_model_coefficient_ranges(self):
        RefindabilityModel(a=0.1, b=0.8, c=1.0, sse=0.0)
        with pytest.raises(ValueError):
            RefindabilityModel(a=-0.1, b=0.5, c=1.0, sse=0.0)
        with pytest.raises(ValueError):
            RefindabilityModel(a=0.6, b=0.6, c=1.0, sse=0.0)
        with pytest.raises(ValueError):
            RefindabilityModel(a=0.1, b=0.5, c=-1.0, sse=0.0)
        with pytest.raises(ValueError, match="^b must be in \\[0,1\\], got 1.5$"):
            RefindabilityModel(a=0.0, b=1.5, c=1.0, sse=0.0)
        with pytest.raises(ValueError, match="^sse must be >= 0, got -0.1$"):
            RefindabilityModel(a=0.1, b=0.5, c=1.0, sse=-0.1)

    @pytest.mark.parametrize("make, message", _WRONG.values(), ids=_WRONG)
    def test_a_field_of_the_wrong_type_or_not_finite_is_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("make, message", _WRONG_INPUT.values(), ids=_WRONG_INPUT)
    def test_an_input_field_of_the_wrong_type_is_a_validation_error(self, make, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make()

    def test_vertical_wire_names(self):
        assert Vertical("general") is Vertical.GENERAL
        assert Vertical("news") is Vertical.NEWS
        with pytest.raises(SerpParseError):
            Vertical("images")

    @pytest.mark.parametrize("value", ["images", "", None, ["general"], {}])
    def test_an_unknown_vertical_is_a_parse_error(self, value):
        # the enum's own lookup raises it, so no caller can leak a bare ValueError
        message = f"unknown vertical {value!r} (expected 'general' or 'news')"
        with pytest.raises(SerpParseError) as info:
            Vertical(value)
        assert str(info.value) == message


class TestManifest:
    @pytest.mark.parametrize(
        "days, start, end, calendar, gaps",
        [
            ((), None, None, (), ()),
            ((1, 2, 3), 1, 3, (1, 2, 3), ()),
            ((1, 3, 6), 1, 6, (1, 2, 3, 4, 5, 6), (2, 4, 5)),
        ],
        ids=["empty", "gapless", "gapped"],
    )
    def test_the_calendar_derives_from_the_dates(self, days, start, end, calendar, gaps):
        def day(n):
            return date(2024, 1, n)

        m = CollectionManifest("t", Vertical.NEWS, tuple(map(day, days)))
        assert (m.start_date, m.end_date) == (start and day(start), end and day(end))
        assert m.calendar == tuple(map(day, calendar))
        assert m.gaps == frozenset(map(day, gaps))

    @pytest.mark.parametrize(
        "dates",
        [
            (),
            (date(2024, 2, 29),),
            (date(2024, 1, 1), date(2024, 1, 2)),
            (date(2023, 12, 30), date(2024, 1, 2), date(2024, 1, 3), date(2024, 3, 1)),
            (date.max - timedelta(days=5), date.max - timedelta(days=2), date.max),
        ],
        ids=["empty", "single", "gapless", "gapped", "at-date-max"],
    )
    def test_the_gaps_are_the_calendar_days_without_a_date(self, dates):
        m = CollectionManifest("t", Vertical.NEWS, dates)
        assert m.gaps == frozenset(m.calendar).difference(dates)

    def test_manifests_with_equal_dates_are_equal(self):
        dates = (date(2024, 1, 1), date(2024, 1, 3))
        a, b = CollectionManifest("t", Vertical.NEWS, dates), CollectionManifest("t", Vertical.NEWS, list(dates))
        assert type(b.dates) is tuple  # as a list, the dates could not be hashed
        assert a == b and hash(a) == hash(b)
        assert a != CollectionManifest("t", Vertical.NEWS, dates[:1])


class TestDedup:
    def test_keeps_best_placement(self):
        snap = _snapshot(
            (
                _result("https://a.example/x", 2, 11, canonical="a.example/x"),
                _result("https://b.example/y", 2, 12, canonical="b.example/y"),
                _result("https://a.example/x?utm=1", 4, 31, canonical="a.example/x"),
            )
        )
        out = dedup_snapshot(snap)
        assert [r.canonical_uri for r in out.results] == ["a.example/x", "b.example/y"]
        assert out.results[0].page == 2 and out.results[0].rank == 11

    def test_idempotent(self):
        snap = _snapshot(
            (
                _result("https://a.example/x", 1, 1),
                _result("https://a.example/x", 3, 21, canonical="a.example/x"),
            )
        )
        once = dedup_snapshot(snap)
        assert dedup_snapshot(once) == once

    def test_first_placement_wins_over_a_lower_page(self):
        # the placement every count reads, even where a later one sits higher
        snap = _snapshot(
            (
                _result("https://a.example/x?v=1", 2, 11, canonical="a.example/x"),
                _result("https://a.example/x", 1, 15, canonical="a.example/x"),
            )
        )
        out = dedup_snapshot(snap)
        assert [(r.page, r.rank) for r in out.results] == [(2, 11)]

    def test_survivors_keep_their_order(self):
        snap = _snapshot(
            (
                _result("https://a.example/x", 3, 1),
                _result("https://b.example/y", 1, 2),
                _result("https://a.example/x?v=1", 1, 3, canonical="a.example/x"),
            )
        )
        out = dedup_snapshot(snap)
        assert [(r.canonical_uri, r.page, r.rank) for r in out.results] == [
            ("a.example/x", 3, 1),
            ("b.example/y", 1, 2),
        ]


def test_a_link_canonicalize_refuses_takes_no_rank():
    links = [("http://a.com/x", "A", 1), ("http://[::1/x", "bad", 1), ("http://@/x", "bad", 2), ("http://b.com/y", "B", 2)]
    assert [(r.canonical_uri, r.page, r.rank) for r in results_from_links(links)] == [
        ("a.com/x", 1, 1),
        ("b.com/y", 2, 2),
    ]


class TestInterchange:
    def test_round_trip_is_byte_identical(self):
        links = [
            ("https://en.wikipedia.org/wiki/Hurricane_Harvey", "Hurricane Harvey - Wikipedia", 1),
            ("http://www.chron.com/news/harvey/", "Harvey news", 1),
            ("https://weather.com/storms/harvey", "Harvey & after", 2),
        ]
        snap = SerpSnapshot(
            query="hurricane harvey",
            vertical=Vertical.NEWS,
            date=date(2017, 9, 7),
            results=results_from_links(links),
        )
        text = snapshot_to_json(snap)
        again = snapshot_from_json(text)
        assert again == snap
        assert snapshot_to_json(again) == text

    def test_document_shape(self):
        snap = _snapshot((_result("https://a.example/x", 1, 1),))
        doc = json.loads(snapshot_to_json(snap))
        assert list(doc) == ["query", "vertical", "date", "links"]
        assert list(doc["links"][0]) == ["uri", "canonical_uri", "title", "page", "rank"]
        assert doc["vertical"] == "general"
        assert doc["date"] == "2024-01-01"

    def test_compact_form_is_one_line(self):
        snap = _snapshot((_result("https://a.example/x", 1, 1),))
        text = snapshot_to_json(snap)
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert snapshot_from_json(text) == snap

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "{}",
            '{"query": "q", "vertical": "general", "date": "2024-01-01"}',
            '{"query": "q", "vertical": "nope", "date": "2024-01-01", "links": []}',
            '{"query": "q", "vertical": "general", "date": "01/01/2024", "links": []}',
            # ISO spellings that Python 3.11's fromisoformat takes and 3.10's does not
            '{"query": "q", "vertical": "general", "date": "20240101", "links": []}',
            '{"query": "q", "vertical": "general", "date": "2024-W01-1", "links": []}',
            '{"query": "q", "vertical": "general", "date": "2024W011", "links": []}',
            '{"query": 5, "vertical": "general", "date": "2024-01-01", "links": []}',
            # a page or rank that equals a whole number but is no int
            _LINK_DOC % ("1.0", "1"),
            _LINK_DOC % ("2.0", "1"),
            _LINK_DOC % ("true", "1"),
            _LINK_DOC % ("1", "1.0"),
            # a uri, canonical_uri or title that is no string
            _LINK_DOC.replace('"http://a.example/x"', "5") % ("1", "1"),
            _LINK_DOC.replace('"a.example/x"', "5") % ("1", "1"),
            _LINK_DOC.replace('"t"', "null") % ("1", "1"),
            # a lone surrogate escape, which no UTF-8 text can hold
            pytest.param(_LINK_DOC.replace('"t"', r'"\ud800"') % ("1", "1"), id="lone-surrogate"),
            # bytes are UTF-8 only, and no parser limit escapes as another error
            pytest.param((_LINK_DOC % ("1", "1")).encode("utf-16"), id="utf-16"),
            pytest.param(_LINK_DOC.replace('"t"', '"caf\xe9"').encode("latin-1") % (b"1", b"1"), id="latin-1"),
            pytest.param(_LINK_DOC.replace("{", '{"x": %s, ' % ("1" * 5000), 1) % ("1", "1"), id="5000-digits"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
        ],
    )
    def test_malformed_documents_raise(self, text):
        with pytest.raises(SerpParseError):
            snapshot_from_json(text)

    def test_notation(self):
        t = from_observations("a.example/x", date(2024, 1, 1), (4, 2, None, 0))
        assert t.notation() == "{4, 2, -, 0}"


def _link(**fields):
    return {"uri": "http://a.example/x", "canonical_uri": "a.example/x", "title": "t", "page": 1, "rank": 1, **fields}


def _without(key, **fields):
    link = _link(**fields)
    del link[key]
    return link


# links, query, and the message both the document reader and the constructors give
_FAULTY = {
    "true-page": ([_link(page=True)], "q", "page and rank must be ints, got True and 1"),
    "float-rank": ([_link(rank=2.0)], "q", "page and rank must be ints, got 1 and 2.0"),
    "page-0": ([_link(page=0)], "q", "page must be in [1, 5], got 0"),
    "page-6": ([_link(page=6)], "q", "page must be in [1, 5], got 6"),
    "rank-0": ([_link(rank=0)], "q", "rank must be >= 1, got 0"),
    "equal-rank": ([_link(), _link(rank=1)], "q", "ranks must be strictly increasing, got 1 after 1"),
    "falling-rank": ([_link(rank=3), _link(rank=2)], "q", "ranks must be strictly increasing, got 2 after 3"),
    "uri": ([_link(uri=5)], "q", "uri must be a string, got 5"),
    "canonical_uri": ([_link(canonical_uri=None)], "q", "canonical_uri must be a string, got None"),
    "title": ([_link(title=["t"])], "q", "title must be a string, got ['t']"),
    "query": ([_link()], 5, "query must be a string, got 5"),
    "query-before-ranks": ([_link(rank=3), _link(rank=2)], 5, "query must be a string, got 5"),
    "first-faulty-link": ([_link(rank=2), _link(page=7, rank=1), _link(uri=5)], "q", "page must be in [1, 5], got 7"),
    "fault-before-a-missing-key": ([_link(title=1), _without("rank")], "q", "title must be a string, got 1"),
}

# links and document keys whose absence the reader reports by name
_MISSING = {
    **{f"link-{key}": ([_link(), _without(key, rank=2)], key) for key in _link()},
    "missing-key-before-a-fault": ([_without("page"), _link(page=9)], "page"),
}


class TestLoadBoundary:
    """Each of a document's links is checked once, by its constructor, in its words."""

    @staticmethod
    def _doc(links, query="q", drop=None):
        doc = {"query": query, "vertical": "general", "date": "2024-01-01", "links": links}
        doc.pop(drop, None)
        return json.dumps(doc)

    @pytest.mark.parametrize("links, query, message", _FAULTY.values(), ids=_FAULTY)
    def test_a_faulty_document_reads_as_its_constructors_build(self, links, query, message):
        with pytest.raises(SerpParseError, match=f"^snapshot document is malformed: {re.escape(message)}$"):
            snapshot_from_json(self._doc(links, query))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            results = tuple(
                SerpResult(link["uri"], link["canonical_uri"], link["title"], link["page"], link["rank"])
                for link in links
            )
            SerpSnapshot(query, Vertical.GENERAL, date(2024, 1, 1), results)

    @pytest.mark.parametrize("links, key", _MISSING.values(), ids=_MISSING)
    def test_a_missing_link_key_is_named(self, links, key):
        with pytest.raises(SerpParseError, match=f"^snapshot document is malformed: '{key}'$"):
            snapshot_from_json(self._doc(links))

    @pytest.mark.parametrize("key", ["query", "vertical", "date", "links"])
    def test_a_missing_document_key_is_named(self, key):
        with pytest.raises(SerpParseError, match=f"^snapshot document is malformed: '{key}'$"):
            snapshot_from_json(self._doc([_link()], drop=key))

    @pytest.mark.parametrize("links", [5, "links", {"uri": "x"}, [5], [["uri"]]], ids=repr)
    def test_links_that_are_no_objects_are_malformed(self, links):
        want = None
        try:
            [link["uri"] for link in links]
        except TypeError as e:
            want = str(e)
        with pytest.raises(SerpParseError, match=f"^snapshot document is malformed: {re.escape(want)}$"):
            snapshot_from_json(self._doc(links))

    def test_a_loaded_snapshot_is_its_constructed_twin(self):
        snap = SerpSnapshot(
            query="q",
            vertical=Vertical.NEWS,
            date=date(2024, 1, 1),
            results=results_from_links(
                [("https://a.example/x", "A", 1), ("http://b.example/y/", "B", 3), ("https://a.example/x", "A", 5)]
            ),
        )
        loaded = snapshot_from_json(snapshot_to_json(snap))
        assert loaded == snap and hash(loaded) == hash(snap)
        assert [type(r) for r in loaded.results] == [SerpResult] * 3
        assert snapshot_from_json(self._doc([])) == SerpSnapshot("q", Vertical.GENERAL, date(2024, 1, 1), ())

    def test_a_clean_document_checks_no_link_twice(self, monkeypatch):
        text = self._doc([_link(), _link(uri="http://b.example/y", canonical_uri="b.example/y", page=2, rank=4)])
        checked = []
        new = SerpResult.__new__

        def count(cls, *fields):
            checked.append(fields)
            return new(cls, *fields)

        monkeypatch.setattr(SerpResult, "__new__", count)
        assert [(r.canonical_uri, r.page, r.rank) for r in snapshot_from_json(text).results] == [
            ("a.example/x", 1, 1),
            ("b.example/y", 2, 4),
        ]
        # each link goes through SerpResult's check exactly once
        assert checked == [
            ("http://a.example/x", "a.example/x", "t", 1, 1),
            ("http://b.example/y", "b.example/y", "t", 2, 4),
        ]


_D1, _D3 = date(2024, 1, 1), date(2024, 1, 3)
_A = SerpResult("u", "a.example/x", "A", 1, 1)
_B = SerpResult("v", "b.example", "B", 3, 4)
# one instance of each record, made by a function so that two calls give equal
# records that are not the same object; the repr, the field an assignment
# tries, and for a checked record a bad ``_replace`` and the error it raises
_RECORDS = {
    "SerpResult": (
        lambda: SerpResult("http://a.example/x", "a.example/x", "A", 2, 3),
        "SerpResult(uri='http://a.example/x', canonical_uri='a.example/x', title='A', page=2, rank=3)",
        "page", {"page": 9}, ValueError("page must be in [1, 5], got 9"),
    ),
    "SerpSnapshot": (
        lambda: SerpSnapshot("q", Vertical.NEWS, _D3, (_A, _B)),
        "SerpSnapshot(query='q', vertical=<Vertical.NEWS: 'news'>, date=datetime.date(2024, 1, 3), "
        "results=(SerpResult(uri='u', canonical_uri='a.example/x', title='A', page=1, rank=1), "
        "SerpResult(uri='v', canonical_uri='b.example', title='B', page=3, rank=4)))",
        "results", {"results": (_B, _A)}, ValueError("ranks must be strictly increasing, got 1 after 4"),
    ),
    "StoryTimeline": (
        lambda: StoryTimeline("a.example/x", _D1, 4, {0: 2, 3: 1}, frozenset({1})),
        "StoryTimeline(canonical_uri='a.example/x', first_seen=datetime.date(2024, 1, 1), length=4, "
        "pages={0: 2, 3: 1}, unscraped=frozenset({1}))",
        "pages", {"pages": {0: 9}}, ValueError("day-0 observation must be a page in [1,5], got 9"),
    ),
    "CollectionManifest": (
        lambda: CollectionManifest("q", Vertical.GENERAL, (_D1, _D3)),
        "CollectionManifest(topic='q', vertical=<Vertical.GENERAL: 'general'>, "
        "dates=(datetime.date(2024, 1, 1), datetime.date(2024, 1, 3)))",
        "dates", {"dates": (_D3, _D1)}, ValueError("dates must be strictly increasing, got 2024-01-01 after 2024-01-03"),
    ),
    "TransitionEstimate": (
        lambda: TransitionEstimate(tuple(tuple(int(i == j) for j in range(6)) for i in range(6))),
        "TransitionEstimate(counts=((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), "
        "(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)))",
        "counts", {"counts": ((1,),)}, ValidationError("counts must be 6x6"),
    ),
    "TemporalMatrix": (
        lambda: TemporalMatrix(_D1, 4, frozenset({date(2024, 1, 2)}), (StoryTimeline("a.example/x", _D1, 4, {0: 2}),)),
        "TemporalMatrix(start=datetime.date(2024, 1, 1), days=4, gaps=frozenset({datetime.date(2024, 1, 2)}), "
        "timelines=(StoryTimeline(canonical_uri='a.example/x', first_seen=datetime.date(2024, 1, 1), length=4, "
        "pages={0: 2}, unscraped=frozenset()),))",
        "days", None, None,
    ),
    "ReportCell": (lambda: ReportCell(0.25, 4), "ReportCell(value=0.25, n=4)", "n", None, None),
    "ChurnReport": (
        lambda: ChurnReport(Vertical.NEWS, {(1, None): ReportCell(0.5, 2)}, {}, {0: ReportCell(1.0, 3)}, {}),
        "ChurnReport(vertical=<Vertical.NEWS: 'news'>, replacement={(1, None): ReportCell(value=0.5, n=2)}, "
        "new_story={}, prob_seen={0: ReportCell(value=1.0, n=3)}, prob_seen_page={})",
        "vertical", None, None,
    ),
    "RefindabilityModel": (
        lambda: RefindabilityModel(0.25, 0.5, 0.125, 0.001, clamped=True),
        "RefindabilityModel(a=0.25, b=0.5, c=0.125, sse=0.001, degenerate=False, clamped=True)",
        "c", {"a": 2}, ValueError("a must be in [0,1], got 2"),
    ),
    "FetchPlan": (
        lambda: FetchPlan("hurricane harvey", pages=2, date_range=(_D1, _D3), politeness_delay=0.0),
        "FetchPlan(query='hurricane harvey', vertical=<Vertical.GENERAL: 'general'>, pages=2, "
        "date_range=(datetime.date(2024, 1, 1), datetime.date(2024, 1, 3)), politeness_delay=0.0, fixture_dir=None)",
        "query", {"query": " "}, ValidationError("query must be non-empty"),
    ),
    "SynthParams": (
        lambda: SynthParams(days=3, per_page=2, replacement_rate=0.5, seed=7, vertical=Vertical.NEWS),
        "SynthParams(days=3, pages=5, per_page=2, replacement_rate=0.5, transition_kernel=None, seed=7, "
        "topic='synthetic', vertical=<Vertical.NEWS: 'news'>, start=datetime.date(2024, 1, 1))",
        "days", {"days": 0}, ValidationError("days must be >= 1, got 0"),
    ),
}


class TestRecords:
    """Every record keeps the repr, equality, hash, pickling, copying and
    immutability it had as a frozen dataclass, and no way in skips its checks."""

    @pytest.mark.parametrize("make, text, field, bad, error", _RECORDS.values(), ids=_RECORDS)
    def test_a_record_behaves_as_it_did(self, make, text, field, bad, error):
        record, twin = make(), make()
        assert repr(record) == text
        assert record == twin and record is not twin
        if isinstance(record, ChurnReport):  # its fields are dicts
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(twin)
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(again) is type(record) and again == record
        for name in (field, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(twin, field))
        assert record == twin
        if bad is not None:  # _replace builds through _make, and both must check
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                record._replace(**bad)
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                type(record)._make({**record._asdict(), **bad}.values())
