"""Decay-curve fitting for refind probabilities.

The model is P(k) = a + b*e^(-c*k). For any fixed c the optimal (a, b)
is a linear least-squares solve: the 2x2 normal equations of the design
[1, e^(-c*k)], summed with ``math.fsum``. The fit scans a coarse grid
over c, solves (a, b) at each step, then refines the best c by
golden-section search. No iterative nonlinear solver, no starting-point
sensitivity: the same points, in any order, give the same coefficients.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from datetime import date
from operator import mul
from typing import Sequence

from .errors import InsufficientDataError
from .model import Checked, StoryTimeline, Vertical
from .metrics import refind_cells

MIN_POINTS = 4  # three parameters need at least one spare observation

_GRID_LO = 0.01
_GRID_HI = 5.0
_GRID_STEPS = 500
_B_FLOOR = 1e-9  # below this the decay term is indistinguishable from zero
_REL_TOL = 1e-12
_MAX_REFINE = 200


class RefindabilityModel(Checked, namedtuple("RefindabilityModel", "a b c sse degenerate clamped")):
    """Coefficients of the decay curve P(k) = a + b*e^(-c*k).

    ``a`` is the long-run asymptote, ``b`` the decay amplitude, ``c`` the
    per-day decay constant; ``sse`` is the fit's residual sum of squares.
    """

    __slots__ = ()
    _AB_SLACK = 1e-9

    def __new__(cls, a: float, b: float, c: float, sse: float, degenerate: bool = False, clamped: bool = False):
        """``degenerate``: c is unidentifiable (b == 0); ``clamped``: the
        parameters were pulled back into their valid ranges."""
        for name, value in (("a", a), ("b", b), ("c", c), ("sse", sse)):
            if type(value) not in (int, float):  # not True, nor "0.1"
                raise ValueError(f"{name} must be a number, got {value!r}")
        if type(degenerate) is not bool or type(clamped) is not bool:
            raise ValueError(f"degenerate and clamped must be bools, got {degenerate!r} and {clamped!r}")
        if not (math.isfinite(c) and math.isfinite(sse)):  # NaN fails every comparison below
            raise ValueError(f"c and sse must be finite, got {c} and {sse}")
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a must be in [0,1], got {a}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0,1], got {b}")
        if a + b > 1.0 + cls._AB_SLACK:
            raise ValueError(f"a + b must not exceed 1, got {a + b}")
        if c < 0.0:
            raise ValueError(f"c must be >= 0, got {c}")
        if sse < 0.0:
            raise ValueError(f"sse must be >= 0, got {sse}")
        return tuple.__new__(cls, (a, b, c, sse, degenerate, clamped))


def _decay(c: float, ks: Sequence[float]) -> list[float]:
    neg_c = -c  # -c * k is (-c) * k
    return [math.exp(neg_c * k) for k in ks]


def _sse(a: float, b: float, es: Sequence[float], ps: Sequence[float]) -> float:
    """Sum of squared residuals of a + b*e against ps, summed directly."""
    return math.fsum([(r := p - (a + b * e)) * r for e, p in zip(es, ps)])


def _solve_ab(
    c: float, ks: Sequence[float], ps: Sequence[float], p_bar: float
) -> tuple[float, float, float]:
    """Best (a, b) for a fixed decay constant, plus the resulting SSE.

    Solves the normal equations of the design [1, e^(-c*k)], centred so
    that b is one ratio of ``math.fsum`` sums. When the decay column has
    no spread, every e^(-c*k) having underflowed to zero say, b is
    unidentifiable and the best fit is the mean with b = 0. ``p_bar`` is
    the mean of ``ps``, ``math.fsum(ps) / len(ps)``, the same at every c.
    """
    es = _decay(c, ks)
    e_bar = math.fsum(es) / len(es)
    de = [e - e_bar for e in es]
    sxx = math.fsum(map(mul, de, de))  # the normal matrix's determinant over n
    if sxx <= 0.0:
        a, b = p_bar, 0.0
    else:
        b = (math.fsum(map(mul, de, ps)) - p_bar * math.fsum(de)) / sxx
        a = p_bar - b * e_bar
    return a, b, _sse(a, b, es, ps)


def _golden_refine(ks, ps, p_bar: float, lo: float, hi: float) -> float:
    """Shrink [lo, hi] around the SSE minimum in c and return the best c.

    Stops once an iteration improves SSE by less than a 1e-12 relative
    step, or after a fixed budget; on noiseless data the budget runs out
    first, which drives c to machine precision.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - invphi * (hi - lo)
    c2 = lo + invphi * (hi - lo)
    f1 = _solve_ab(c1, ks, ps, p_bar)[2]
    f2 = _solve_ab(c2, ks, ps, p_bar)[2]
    best_c, best_f = (c1, f1) if f1 <= f2 else (c2, f2)
    for _ in range(_MAX_REFINE):
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = _solve_ab(c1, ks, ps, p_bar)[2]
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = _solve_ab(c2, ks, ps, p_bar)[2]
        cand_c, cand_f = (c1, f1) if f1 <= f2 else (c2, f2)
        if cand_f < best_f:
            gain = best_f - cand_f
            floor = best_f if best_f > 0.0 else 1.0
            best_c, best_f = cand_c, cand_f
            if gain / floor < _REL_TOL:
                break
    return best_c


def fit_exponential(points: Sequence[tuple[float, float]]) -> RefindabilityModel:
    """Fit P(k) = a + b*e^(-c*k) to (day offset, probability) points.

    Needs at least four points with distinct, finite, non-negative offsets
    and probabilities in [0, 1]. When the amplitude collapses to zero the
    decay constant is unidentifiable and the fit degrades to the best
    constant, flagged as degenerate. Out-of-range coefficients are
    pulled back into [0, 1] (and a + b <= 1) with the clamped flag set.
    """
    if len(points) < MIN_POINTS:
        raise InsufficientDataError(f"need at least {MIN_POINTS} points, got {len(points)}")
    ks = [float(k) for k, _ in points]
    ps = [float(p) for _, p in points]
    if len(set(ks)) != len(ks):
        raise ValueError("day offsets must be distinct")
    if any(k < 0 for k in ks):
        raise ValueError("day offsets must be >= 0")
    if not all(math.isfinite(k) for k in ks):
        raise ValueError("day offsets must be finite")
    if not all(0 <= p <= 1 for p in ps):  # NaN fails both comparisons
        raise ValueError("probabilities must lie in [0, 1]")

    p_bar = math.fsum(ps) / len(ps)
    step = (_GRID_HI - _GRID_LO) / (_GRID_STEPS - 1)
    grid = [_GRID_LO + i * step for i in range(_GRID_STEPS - 1)] + [_GRID_HI]
    sses = [_solve_ab(c, ks, ps, p_bar)[2] for c in grid]
    i = sses.index(min(sses))  # ties resolve to the smallest c
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    c = _golden_refine(ks, ps, p_bar, lo, hi)
    a, b, _ = _solve_ab(c, ks, ps, p_bar)

    degenerate = b < _B_FLOOR
    clamped = False
    if degenerate:
        # flat or rising data: the decay term carries no signal
        clamped = b < -_B_FLOOR
        a, b, c = p_bar, 0.0, 0.0
    # a <= mean(ps) <= 1: the mean itself, or less since b > 0 and every e >= 0
    if a < 0.0:
        a, clamped = 0.0, True
    if b > 1.0:
        b, clamped = 1.0, True
    if a + b > 1.0:
        b, clamped = 1.0 - a, True
    sse = _sse(a, b, _decay(c, ks), ps)
    return RefindabilityModel(a=a, b=b, c=c, sse=sse, degenerate=degenerate, clamped=clamped)


def refind_points(timelines: Sequence[StoryTimeline], max_k: int | None = None) -> list[tuple[int, float]]:
    """(k, observed probability) pairs for k = 0..max_k (default: every
    offset), skipping days where no timeline was eligible."""
    prob, _ = refind_cells(timelines)
    return [(k, cell.value) for k, cell in prob.items() if max_k is None or k <= max_k]


def eval_model(model: RefindabilityModel, k: float) -> float:
    """The modelled probability at day k, pinned to [0, 1]."""
    p = model.a + model.b * math.exp(-model.c * k)
    return min(1.0, max(0.0, p))


def algebraic_form(model: RefindabilityModel) -> str:
    return f"P(k) = {model.a:.4f} + {model.b:.4f}*e^(-{model.c:.4f}k)"


def model_doc(
    model: RefindabilityModel,
    vertical: Vertical,
    n_points: int,
    fitted_at: date,
) -> str:
    """Serialize a fitted model with enough context to reuse it.

    ``fitted_at`` is the newest snapshot date behind the fit, so the
    document is identical across reruns over the same collection.
    """
    doc = {"vertical": vertical.value, **model._asdict(), "n_points": n_points, "fitted_at": fitted_at.isoformat()}
    return json.dumps(doc, indent=2) + "\n"
