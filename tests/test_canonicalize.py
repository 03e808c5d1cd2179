import string

import pytest
from hypothesis import given, strategies as st

from serpchurn.errors import UriParseError
from serpchurn.model import canonicalize


def test_alias_pair_collapses():
    plain = "https://www.redcross.org/donate/disaster-donations"
    tracked = (
        "http://www.redcross.org/donate/disaster-donations"
        "?campname=irma&campmedium=aspot"
    )
    want = "www.redcross.org/donate/disaster-donations"
    assert canonicalize(plain) == want
    assert canonicalize(tracked) == want


def test_scheme_and_fragment_dropped():
    assert canonicalize("https://example.org/a/b#sec") == "example.org/a/b"
    assert canonicalize("http://example.org/a/b") == "example.org/a/b"


def test_host_lowercased_path_kept():
    assert canonicalize("HTTP://Example.ORG/News/Item") == "example.org/News/Item"


def test_default_ports_dropped_other_ports_kept():
    assert canonicalize("http://example.org:80/x") == "example.org/x"
    assert canonicalize("https://example.org:443/x") == "example.org/x"
    assert canonicalize("http://example.org:8080/x") == "example.org:8080/x"


def test_an_ipv6_host_keeps_its_brackets():
    assert canonicalize("https://[2001:DB8::1]:443/a/") == "[2001:db8::1]/a"
    assert canonicalize("http://[::1]:8080/x") == "[::1]:8080/x"


def test_trailing_slashes_stripped():
    assert canonicalize("https://example.org/a/") == "example.org/a"
    assert canonicalize("https://example.org/a///") == "example.org/a"
    assert canonicalize("https://example.org/") == "example.org"


def test_schemeless_input_is_host_first():
    assert canonicalize("www.example.org/a") == "www.example.org/a"
    assert canonicalize("example.org") == "example.org"


def test_userinfo_dropped():
    assert canonicalize("https://alice:pw@example.org/x") == "example.org/x"


def test_query_dropped():
    assert canonicalize("https://example.org/x?a=1&b=2") == "example.org/x"


def test_nonstandard_scheme():
    assert canonicalize("synth://story/7") == "story/7"


@pytest.mark.parametrize(
    "bad",
    ["", "   ", "https://", "http:///path", "http://exa mple:99x/", "http://[::1/x", "[::1", "http://＃.com/"],
)
def test_unparseable_raises(bad):
    with pytest.raises(UriParseError):
        canonicalize(bad)


def test_error_carries_input():
    with pytest.raises(UriParseError) as exc:
        canonicalize("https://")
    assert exc.value.uri == "https://"


_host_label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
_path_seg = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.", min_size=1, max_size=10
)


@st.composite
def uris(draw):
    scheme = draw(st.sampled_from(["http://", "https://", "HTTP://", ""]))
    host = ".".join(draw(st.lists(_host_label, min_size=1, max_size=3)))
    port = draw(st.sampled_from(["", ":80", ":443", ":8080", ":3000"]))
    path = "".join("/" + draw(_path_seg) for _ in range(draw(st.integers(0, 3))))
    trail = draw(st.sampled_from(["", "/", "//"]))
    query = draw(st.sampled_from(["", "?x=1", "?a=b&c=d"]))
    frag = draw(st.sampled_from(["", "#top"]))
    return f"{scheme}{host}{port}{path}{trail}{query}{frag}"


@given(uris())
def test_idempotent(uri):
    once = canonicalize(uri)
    assert canonicalize(once) == once


@given(uris())
def test_never_longer_than_input(uri):
    assert len(canonicalize(uri)) <= len(uri)


@given(uris())
def test_no_scheme_query_or_fragment_survives(uri):
    out = canonicalize(uri)
    assert "://" not in out
    assert "?" not in out and "#" not in out
    assert not out.endswith("/")
