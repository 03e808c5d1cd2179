"""Exception hierarchy shared across the package.

Each class sets its own CLI exit code and ``error: <tag>:``; library
callers can catch ``SerpChurnError`` for anything this package raises on
purpose.
"""

from __future__ import annotations


class SerpChurnError(Exception):
    """Base class for all errors raised by serpchurn."""
    exit_code, tag = 1, "internal"


class UriParseError(SerpChurnError):
    """A URI could not be parsed (no host). Carries the offending input."""
    exit_code, tag = 6, "uri-parse"

    def __init__(self, uri: str, reason: str = "no host"):
        super().__init__(f"cannot canonicalize {uri!r}: {reason}")
        self.uri = uri


class SerpParseError(SerpChurnError):
    """A SERP page or snapshot/manifest document is malformed."""
    exit_code, tag = 6, "serp-parse"


class RateLimited(SerpChurnError):
    """The engine served a CAPTCHA/interstitial or returned HTTP 429.

    ``retry_after`` is the suggested backoff in seconds.
    """
    exit_code, tag = 5, "rate-limited"

    def __init__(self, message: str, retry_after: float = 300.0):
        super().__init__(message)
        self.retry_after = retry_after


class TransportError(SerpChurnError):
    """Network-level failure while fetching a live SERP."""
    exit_code, tag = 1, "transport"


class FixtureNotFound(SerpChurnError):
    """No fixture file exists for the requested (query, vertical, date, page)."""
    exit_code, tag = 3, "fixture-missing"


class StoreMissingError(SerpChurnError):
    """The requested collection store does not exist on disk."""
    exit_code, tag = 3, "store-missing"


class StoreMismatchError(SerpChurnError):
    """A snapshot was offered to a store with a different topic or vertical."""
    exit_code, tag = 2, "store-mismatch"


class InsufficientDataError(SerpChurnError):
    """An operation has no data to work with: an empty store, no anchor pairs,
    an empty set that defines a rate, or too few points for the decay fit."""
    exit_code, tag = 4, "insufficient-data"


class ValidationError(SerpChurnError):
    """Invalid input: a flag value, date, interval, fetch plan or kernel (say, not
    stochastic)."""
    exit_code, tag = 2, "validation"
