import json
import socket
import threading
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest

from serpchurn import serp_io
from serpchurn.cli import main
from serpchurn.errors import FixtureNotFound, RateLimited, TransportError, ValidationError
from serpchurn.model import Vertical, snapshot_to_json
from serpchurn.serp_io import (
    FetchPlan,
    build_snapshot,
    fetch_serp_page,
    fixture_page_path,
    query_slug,
)

DAY = date(2017, 9, 7)


def _query(path):
    return {k: v[0] for k, v in parse_qs(urlsplit(path).query).items()}


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.calls.append({"path": self.path, "headers": dict(self.headers)})
        status, body, headers = self.server.reply(_query(self.path))
        self.send_response(status)
        headers = {"Content-Length": str(len(body)), **headers}
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class SerpServer(ThreadingHTTPServer):
    """A result-page server on 127.0.0.1 that records each request's path
    and headers and answers with ``reply(query)``: (status, body, headers)."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.calls = []

    def serve(self, *replies):
        """Answer the next calls with these replies, in order."""
        queue = list(replies)
        self.reply = lambda query: queue.pop(0)


@pytest.fixture(scope="module")
def serp_server():
    srv = SerpServer()
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join()


def _search_at(monkeypatch, port):
    """Send live fetches to ``port`` on 127.0.0.1, past any proxy."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setattr(serp_io, "SEARCH_URL", f"http://127.0.0.1:{port}/search")


@pytest.fixture
def server(serp_server, monkeypatch):
    """The module's server with no calls recorded yet and the default reply,
    standing in for the search engine."""
    serp_server.calls.clear()
    serp_server.reply = lambda query: (200, b"<html></html>", {})
    _search_at(monkeypatch, serp_server.server_port)
    return serp_server


@pytest.fixture
def refused(monkeypatch):
    """Point the search URL at a loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    _search_at(monkeypatch, port)


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


def test_live_request_params_and_throttle(server):
    slept = []
    fetch_serp_page(live_plan(), 2, DAY, sleep=slept.append)
    assert slept == [2.0]
    call = server.calls[0]
    assert call["path"] == "/search?q=hurricane+harvey&start=10"
    params = _query(call["path"])
    assert params["q"] == "hurricane harvey"
    assert params["start"] == "10"
    assert "tbm" not in params
    assert call["headers"]["User-Agent"].startswith("Mozilla/5.0 ")


def test_live_news_and_date_range_params(server):
    plan = live_plan(
        vertical=Vertical.NEWS,
        date_range=(date(2017, 9, 1), date(2017, 9, 30)),
    )
    fetch_serp_page(plan, 1, DAY, sleep=lambda _: None)
    call = server.calls[0]
    assert call["path"] == (
        "/search?q=hurricane+harvey&start=0&tbm=nws"
        "&tbs=cdr%3A1%2Ccd_min%3A9%2F1%2F2017%2Ccd_max%3A9%2F30%2F2017"
    )
    params = _query(call["path"])
    assert params["tbm"] == "nws"
    assert params["tbs"] == "cdr:1,cd_min:9/1/2017,cd_max:9/30/2017"


def test_http_429_maps_to_rate_limited(server):
    server.serve((429, b"", {"Retry-After": "60"}))
    with pytest.raises(RateLimited) as exc:
        fetch_serp_page(live_plan(), 1, DAY, sleep=lambda _: None)
    assert exc.value.retry_after == 60.0
    assert str(exc.value) == "server returned 429; retry after 60 s"


@pytest.mark.parametrize(
    "headers",
    [{}, {"Retry-After": "soon"}]
    + [{"Retry-After": v} for v in ("nan", "inf", "-5", "1e3", "Wed, 21 Oct 2026 07:28:00 GMT", "\u00b2")],
    ids=["missing", "unparseable", "nan", "inf", "negative", "exponent", "http-date", "superscript-two"],
)
def test_http_429_default_backoff(server, headers):
    server.serve((429, b"", headers))
    with pytest.raises(RateLimited) as exc:
        fetch_serp_page(live_plan(), 1, DAY, sleep=lambda _: None)
    assert exc.value.retry_after == 300.0
    assert str(exc.value) == "server returned 429; retry after 300 s"


@pytest.mark.parametrize(
    "digits, retry_after, shown",
    [(308, float("9" * 308), "1e+308"), (309, 300.0, "300"), (400, 300.0, "300")],
)
def test_http_429_backoff_past_the_largest_float_is_the_default(server, digits, retry_after, shown):
    # 308 nines still fit a float; past 1.8e308 float() reads inf, which is no delay
    server.serve((429, b"", {"Retry-After": "9" * digits}))
    with pytest.raises(RateLimited) as exc:
        fetch_serp_page(live_plan(), 1, DAY, sleep=lambda _: None)
    assert exc.value.retry_after == retry_after
    assert str(exc.value) == f"server returned 429; retry after {shown} s"


def test_block_page_in_200_response(server):
    server.serve((200, b'<form action="/sorry/index">pick the hydrants</form>', {}))
    with pytest.raises(RateLimited):
        build_snapshot(live_plan(), DAY, sleep=lambda _: None)


def test_network_failure_maps_to_transport_error(refused):
    with pytest.raises(TransportError, match="^fetch failed for page 1: "):
        fetch_serp_page(live_plan(), 1, DAY, sleep=lambda _: None)


def test_http_500_maps_to_transport_error(server):
    server.serve((500, b"", {}))
    with pytest.raises(TransportError, match="^HTTP 500 for page 1$"):
        fetch_serp_page(live_plan(), 1, DAY, sleep=lambda _: None)


def test_plan_validation():
    with pytest.raises(ValidationError):
        FetchPlan(query="  ")
    with pytest.raises(ValidationError):
        FetchPlan(query="q", pages=0)
    with pytest.raises(ValidationError):
        FetchPlan(query="q", pages=6)
    for delay in (-1, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            FetchPlan(query="q", politeness_delay=delay)
    with pytest.raises(ValidationError):
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


def test_build_snapshot_live_fetches_each_page(server):
    server.serve(
        *(
            (200, f'<a href="https://site{n}.example/story"><h3>Story {n}</h3></a>'.encode(), {})
            for n in range(1, 4)
        )
    )
    slept = []
    plan = live_plan(pages=3)
    snap = build_snapshot(plan, DAY, sleep=slept.append)
    assert [r.page for r in snap.results] == [1, 2, 3]
    assert slept == [2.0, 2.0, 2.0]
    starts = [_query(c["path"])["start"] for c in server.calls]
    assert starts == ["0", "10", "20"]


def test_live_and_fixture_modes_give_one_snapshot(server, harvey_plan):
    day_dir = fixture_page_path(harvey_plan, DAY, 1).parent
    server.reply = lambda query: (200, (day_dir / f"p{int(query['start']) // 10 + 1}.html").read_bytes(), {})
    live = build_snapshot(live_plan(politeness_delay=0.0), DAY)
    assert snapshot_to_json(live) == snapshot_to_json(build_snapshot(harvey_plan, DAY))


# -- a live scrape's failures reach the CLI as their own tags ---------------

SCRAPE = ["scrape", "--query", "hurricane harvey", "--delay", "0", "--date", "2017-09-07", "--pages", "2"]
PAGE = (200, b'<a href="https://site.example/story"><h3>Story</h3></a>', {})


@pytest.mark.parametrize(
    "failure, code, line",
    [
        ((429, b"", {"Retry-After": "60"}), 5, "error: rate-limited: server returned 429; retry after 60 s\n"),
        ((500, b"", {}), 1, "error: transport: "),
        ((200, b"<html>", {"Content-Length": "100"}), 1, "error: transport: "),
        ((200, b'<div class="g-recaptcha"></div>', {}), 5, "error: rate-limited: "),
    ],
    ids=["429", "500", "truncated", "block-page"],
)
def test_a_failed_live_scrape_stores_nothing(capsys, tmp_path, server, failure, code, line):
    server.serve(PAGE, failure)  # page 1 arrives, page 2 fails
    root = tmp_path / "col"
    assert main([*SCRAPE, "--store", str(root)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(line) and err.count("\n") == 1, err
    assert len(server.calls) == 2
    assert not list(tmp_path.rglob("*.json"))


def test_a_refused_live_scrape_is_a_transport_error(capsys, tmp_path, refused):
    assert main([*SCRAPE, "--store", str(tmp_path / "col")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: transport: fetch failed for page 1: ") and err.count("\n") == 1, err
    assert not list(tmp_path.rglob("*.json"))


# -- a malformed result href is skipped, not the day ------------------------

MALFORMED_HREFS = [
    "http://[::1/x",
    "/url?q=http://[::1/x&amp;sa=U",
    "http://a.com:abc/x",
    "http://@/x",
    "http://a.com:99999/x",
]


@pytest.mark.parametrize(
    "bad",
    [[href] for href in MALFORMED_HREFS] + [MALFORMED_HREFS],
    ids=["ipv6", "ipv6-redirect", "port-text", "no-host", "port-range", "all-five"],
)
def test_a_scrape_skips_a_malformed_link_and_stores_the_day(capsys, tmp_path, bad):
    links = ["https://first.example/a", *bad, "https://second.example/b"]
    page = tmp_path / "serp" / "q" / "general" / "2017-09-07" / "p1.html"
    page.parent.mkdir(parents=True)
    page.write_text(
        "".join(f'<a href="{href}"><h3>Story {n}</h3></a>' for n, href in enumerate(links)),
        encoding="utf-8",
    )
    root = tmp_path / "col"
    code = main([
        "scrape", "--query", "q", "--fixture", str(tmp_path / "serp"), "--delay", "0",
        "--date", "2017-09-07", "--pages", "1", "--store", str(root),
    ])
    assert (code, *capsys.readouterr()) == (0, "", "ingested 2017-09-07: 2 links\n")
    stored = json.loads((root / "snapshots" / "2017-09-07.json").read_bytes())
    assert [(link["canonical_uri"], link["title"], link["rank"]) for link in stored["links"]] == [
        ("first.example/a", "Story 0", 1),
        ("second.example/b", f"Story {len(links) - 1}", 2),
    ]
