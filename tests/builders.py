"""Builders that only the tests need: a timeline from its spelled-out row,
and the kernel under which no story moves."""

from __future__ import annotations

from datetime import date
from typing import Iterable

from serpchurn.model import N_STATES, StoryTimeline
from serpchurn.synth import Kernel

IDENTITY_KERNEL: Kernel = tuple(
    tuple(1.0 if i == j else 0.0 for j in range(N_STATES)) for i in range(N_STATES)
)


def from_observations(canonical_uri: str, first_seen: date, row: Iterable[int | None]) -> StoryTimeline:
    """The timeline of a spelled-out row: a page, 0 or None for each day."""
    row = tuple(row)
    # offset 0 goes in whatever it holds, so that the constructor checks it
    pages = {k: v for k, v in enumerate(row) if k == 0 or v not in (None, 0)}
    unscraped = frozenset(k for k, v in enumerate(row) if v is None)
    return StoryTimeline(canonical_uri, first_seen, len(row), pages, unscraped)
