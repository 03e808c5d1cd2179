from datetime import date
from pathlib import Path

import pytest
import requests

from serpchurn.errors import FixtureNotFound, RateLimited, TransportError
from serpchurn.serp_io import (
    FetchPlan,
    build_snapshot,
    fetch_serp_page,
    fixture_page_path,
    query_slug,
)
from serpchurn.model import Vertical

DAY = date(2017, 9, 7)


class FakeResponse:
    def __init__(self, status=200, text="<html></html>", headers=None):
        self.status_code = status
        self.text = text
        self.content = text.encode("utf-8")
        self.headers = headers or {}


class FakeSession:
    """Records requests and plays back canned responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": params, "headers": headers})
        resp = self.responses.pop(0)
        if isinstance(resp, Exception):
            raise resp
        return resp


def live_plan(**kw):
    defaults = dict(query="hurricane harvey", politeness_delay=2.0)
    defaults.update(kw)
    return FetchPlan(**defaults)


def test_query_slug():
    assert query_slug("hurricane harvey") == "hurricane-harvey"
    assert query_slug("L.A. fires, 2025!") == "l-a-fires-2025"


def test_fixture_layout(serp_root):
    plan = FetchPlan(
        query="hurricane harvey",
        fixture_dir=serp_root,
        politeness_delay=0.0,
    )
    path = fixture_page_path(plan, DAY, 3)
    assert path == serp_root / "hurricane-harvey" / "general" / "2017-09-07" / "p3.html"
    assert fetch_serp_page(plan, 3, DAY).startswith(b"<!doctype html>")


def test_fixture_range_layout(tmp_path):
    plan = FetchPlan(
        query="q",
        fixture_dir=tmp_path,
        date_range=(date(2017, 9, 1), date(2017, 9, 30)),
        politeness_delay=0.0,
    )
    path = fixture_page_path(plan, DAY, 1)
    assert path.parent.name == "2017-09-01_2017-09-30"


def test_missing_fixture_raises(serp_root):
    plan = FetchPlan(
        query="no such topic",
        fixture_dir=serp_root,
        politeness_delay=0.0,
    )
    with pytest.raises(FixtureNotFound):
        fetch_serp_page(plan, 1, DAY)


def test_live_request_params_and_throttle():
    session = FakeSession([FakeResponse()])
    slept = []
    fetch_serp_page(live_plan(), 2, DAY, session=session, sleep=slept.append)
    assert slept == [2.0]
    call = session.calls[0]
    assert call["params"]["q"] == "hurricane harvey"
    assert call["params"]["start"] == "10"
    assert "tbm" not in call["params"]
    assert "User-Agent" in call["headers"]


def test_live_news_and_date_range_params():
    session = FakeSession([FakeResponse()])
    plan = live_plan(
        vertical=Vertical.NEWS,
        date_range=(date(2017, 9, 1), date(2017, 9, 30)),
    )
    fetch_serp_page(plan, 1, DAY, session=session, sleep=lambda _: None)
    params = session.calls[0]["params"]
    assert params["tbm"] == "nws"
    assert params["tbs"] == "cdr:1,cd_min:9/1/2017,cd_max:9/30/2017"


def test_http_429_maps_to_rate_limited():
    session = FakeSession([FakeResponse(status=429, headers={"Retry-After": "60"})])
    with pytest.raises(RateLimited) as exc:
        fetch_serp_page(live_plan(), 1, DAY, session=session, sleep=lambda _: None)
    assert exc.value.retry_after == 60.0


def test_http_429_default_backoff():
    session = FakeSession([FakeResponse(status=429)])
    with pytest.raises(RateLimited) as exc:
        fetch_serp_page(live_plan(), 1, DAY, session=session, sleep=lambda _: None)
    assert exc.value.retry_after == 300.0


def test_block_page_in_200_response():
    session = FakeSession(
        [FakeResponse(text='<form action="/sorry/index">pick the hydrants</form>')]
    )
    with pytest.raises(RateLimited):
        fetch_serp_page(live_plan(), 1, DAY, session=session, sleep=lambda _: None)


def test_network_failure_maps_to_transport_error():
    session = FakeSession([requests.ConnectionError("refused")])
    with pytest.raises(TransportError):
        fetch_serp_page(live_plan(), 1, DAY, session=session, sleep=lambda _: None)


def test_http_500_maps_to_transport_error():
    session = FakeSession([FakeResponse(status=500)])
    with pytest.raises(TransportError):
        fetch_serp_page(live_plan(), 1, DAY, session=session, sleep=lambda _: None)


def test_plan_validation():
    with pytest.raises(ValueError):
        FetchPlan(query="  ")
    with pytest.raises(ValueError):
        FetchPlan(query="q", pages=0)
    with pytest.raises(ValueError):
        FetchPlan(query="q", pages=6)
    with pytest.raises(ValueError):
        FetchPlan(query="q", politeness_delay=-1)
    with pytest.raises(ValueError):
        FetchPlan(query="q", date_range=(date(2017, 9, 30), date(2017, 9, 1)))


def test_build_snapshot_whole_day(harvey_plan):
    snap = build_snapshot(harvey_plan, DAY)
    assert len(snap.results) == 50
    assert [r.rank for r in snap.results] == list(range(1, 51))
    assert {r.page for r in snap.results} == {1, 2, 3, 4, 5}


def test_build_snapshot_dedups_cross_page(harvey_plan):
    snap = build_snapshot(harvey_plan, date(2017, 9, 8))
    assert len(snap.results) == 49
    reds = [r for r in snap.results if "redcross" in r.canonical_uri]
    assert len(reds) == 1
    assert reds[0].page == 1


def test_build_snapshot_stops_at_block_page(serp_root):
    # 2017-09-09 p1 is the interstitial; no later page should be touched
    plan = FetchPlan(
        query="hurricane harvey",
        fixture_dir=serp_root,
        politeness_delay=0.0,
    )
    with pytest.raises(RateLimited):
        build_snapshot(plan, date(2017, 9, 9))


def test_build_snapshot_live_uses_session_per_page():
    pages = []
    for n in range(1, 4):
        pages.append(
            FakeResponse(
                text=f'<a href="https://site{n}.example/story"><h3>Story {n}</h3></a>'
            )
        )
    session = FakeSession(pages)
    slept = []
    plan = live_plan(pages=3)
    snap = build_snapshot(plan, DAY, session=session, sleep=slept.append)
    assert [r.page for r in snap.results] == [1, 2, 3]
    assert slept == [2.0, 2.0, 2.0]
    starts = [c["params"]["start"] for c in session.calls]
    assert starts == ["0", "10", "20"]
