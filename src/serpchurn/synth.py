"""Synthetic collection generator with known churn dynamics.

Stories live in states 0-5: their page when listed, 0 when absent from
the pages. Each day, every visible story is replaced with probability
``replacement_rate`` (the old story is gone for good and a fresh one is
born on the same page); survivors then move between states according to
``transition_kernel`` (stories stay put when no kernel is given).
Stories in state 0 cannot be replaced but a kernel row for state 0 can
bring them back onto the pages.

Randomness comes from ``random.Random(seed)``, the stdlib Mersenne
Twister, consuming one float draw per replacement check and one per
kernel move, in story insertion order. The same parameters therefore
always produce byte-identical snapshots.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from datetime import date, timedelta
from typing import Iterator

from .errors import ValidationError
from .model import (
    N_STATES,
    Checked,
    PAGES_MAX,
    SerpSnapshot,
    Vertical,
    results_from_links,
)
from .store import CollectionStore

Kernel = tuple[tuple[float, ...], ...]

_ROW_SUM_TOL = 1e-9


def validate_kernel(kernel: Kernel) -> None:
    if len(kernel) != N_STATES or any(len(row) != N_STATES for row in kernel):
        raise ValidationError(f"kernel must be {N_STATES}x{N_STATES}")
    for i, row in enumerate(kernel):
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"kernel row {i} has a non-finite entry")
        if any(p < 0.0 for p in row):
            raise ValidationError(f"kernel row {i} has a negative entry")
        if abs(sum(row) - 1.0) > _ROW_SUM_TOL:
            raise ValidationError(f"kernel row {i} sums to {sum(row)}, not 1")


class SynthParams(
    Checked, namedtuple("SynthParams", "days pages per_page replacement_rate transition_kernel seed topic vertical start")
):
    """Shape and dynamics of one generated collection."""

    __slots__ = ()

    def __new__(cls, days: int, pages: int = PAGES_MAX, per_page: int = 10, replacement_rate: float = 0.0,
                transition_kernel: Kernel | None = None, seed: int = 0, topic: str = "synthetic",
                vertical: Vertical = Vertical.GENERAL, start: date = date(2024, 1, 1)):
        if days < 1:
            raise ValidationError(f"days must be >= 1, got {days}")
        if (date.max - start).days < days - 1:
            raise ValidationError(f"{days} days from {start} run past {date.max}")
        if not 1 <= pages <= PAGES_MAX:
            raise ValidationError(f"pages must be in [1,{PAGES_MAX}], got {pages}")
        if per_page < 1:
            raise ValidationError(f"per_page must be >= 1, got {per_page}")
        if not 0.0 <= replacement_rate <= 1.0:
            raise ValidationError(f"replacement_rate must be in [0,1], got {replacement_rate}")
        if transition_kernel is not None:
            validate_kernel(transition_kernel)
        fields = days, pages, per_page, replacement_rate, transition_kernel, seed, topic, vertical, start
        return tuple.__new__(cls, fields)


def _kernel_move(row: tuple[float, ...], u: float) -> int:
    acc = 0.0
    for state, p in enumerate(row):
        acc += p
        if u < acc:
            return state
    return len(row) - 1  # rounding slack: the draw fell off the end


def _snapshot(params: SynthParams, day_idx: int, states: dict[int, int]) -> SerpSnapshot:
    # by page, then insertion order: a fresh story gets the next id and a move keeps its key
    visible = sorted((state, sid) for sid, state in states.items() if state >= 1)
    links = [(f"synth://story/{sid}", f"Story {sid}", state) for state, sid in visible]
    return SerpSnapshot(
        query=params.topic,
        vertical=params.vertical,
        date=params.start + timedelta(days=day_idx),
        results=results_from_links(links),
    )


def iter_snapshots(params: SynthParams) -> Iterator[SerpSnapshot]:
    """Generate one snapshot per day, deterministically from the seed."""
    rng = random.Random(params.seed)
    states: dict[int, int] = {}
    next_id = 0
    for page in range(1, params.pages + 1):
        for _ in range(params.per_page):
            states[next_id] = page
            next_id += 1
    yield _snapshot(params, 0, states)
    for day_idx in range(1, params.days):
        for sid, state in list(states.items()):
            if (
                state != 0
                and params.replacement_rate > 0.0
                and rng.random() < params.replacement_rate
            ):
                del states[sid]
                states[next_id] = state  # a fresh story takes the page slot
                next_id += 1
                continue
            if params.transition_kernel is not None:
                states[sid] = _kernel_move(
                    params.transition_kernel[state], rng.random()
                )
        yield _snapshot(params, day_idx, states)


def generate(params: SynthParams, root=None) -> CollectionStore:
    """Build a whole synthetic collection as a store (on disk if rooted)."""
    return CollectionStore.from_snapshots(
        params.topic, params.vertical, iter_snapshots(params), root=root
    )
