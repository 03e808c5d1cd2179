"""Decay-curve fitting for refind probabilities.

The model is P(k) = a + b*e^(-c*k). For any fixed c the optimal (a, b)
is a linear least-squares solve, so the fit scans a coarse grid over c,
solves (a, b) in closed form at each step, then refines the best c by
golden-section search. No iterative nonlinear solver, no starting-point
sensitivity: the same points always produce the same coefficients.
"""

from __future__ import annotations

import json
import math
from datetime import date
from typing import Sequence

import numpy as np

from .errors import (
    FitConvergenceError,
    UnderdeterminedFitError,
    ValidationError,
)
from .model import RefindabilityModel, StoryTimeline, Vertical
from .metrics import refind_cells

MIN_POINTS = 4  # three parameters need at least one spare observation

_GRID_LO = 0.01
_GRID_HI = 5.0
_GRID_STEPS = 500
_B_FLOOR = 1e-9  # below this the decay term is indistinguishable from zero
_REL_TOL = 1e-12
_MAX_REFINE = 200


def _solve_ab(c: float, ks: np.ndarray, ps: np.ndarray) -> tuple[float, float, float]:
    """Best (a, b) for a fixed decay constant, plus the resulting SSE."""
    design = np.column_stack([np.ones_like(ks), np.exp(-c * ks)])
    coef, *_ = np.linalg.lstsq(design, ps, rcond=None)
    resid = ps - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def _golden_refine(ks, ps, lo: float, hi: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the SSE minimum in c.

    Stops once an iteration improves SSE by less than a 1e-12 relative
    step, or after a fixed budget; on noiseless data the budget runs out
    first, which drives c to machine precision.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - invphi * (hi - lo)
    c2 = lo + invphi * (hi - lo)
    f1 = _solve_ab(c1, ks, ps)[2]
    f2 = _solve_ab(c2, ks, ps)[2]
    best_c, best_f = (c1, f1) if f1 <= f2 else (c2, f2)
    for _ in range(_MAX_REFINE):
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            f1 = _solve_ab(c1, ks, ps)[2]
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            f2 = _solve_ab(c2, ks, ps)[2]
        cand_c, cand_f = (c1, f1) if f1 <= f2 else (c2, f2)
        if cand_f < best_f:
            gain = best_f - cand_f
            floor = best_f if best_f > 0.0 else 1.0
            best_c, best_f = cand_c, cand_f
            if gain / floor < _REL_TOL:
                break
    return best_c, best_f


def fit_exponential(points: Sequence[tuple[float, float]]) -> RefindabilityModel:
    """Fit P(k) = a + b*e^(-c*k) to (day offset, probability) points.

    Needs at least four points with distinct non-negative offsets and
    probabilities in [0, 1]. When the amplitude collapses to zero the
    decay constant is unidentifiable and the fit degrades to the best
    constant, flagged as degenerate. Out-of-range coefficients are
    pulled back into [0, 1] (and a + b <= 1) with the clamped flag set.
    """
    if len(points) < MIN_POINTS:
        raise UnderdeterminedFitError(
            f"need at least {MIN_POINTS} points, got {len(points)}"
        )
    pts = sorted((float(k), float(p)) for k, p in points)
    ks = np.array([k for k, _ in pts])
    ps = np.array([p for _, p in pts])
    if len(set(ks.tolist())) != len(pts):
        raise ValueError("day offsets must be distinct")
    if (ks < 0).any():
        raise ValueError("day offsets must be >= 0")
    if (ps < 0).any() or (ps > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")

    grid = np.linspace(_GRID_LO, _GRID_HI, _GRID_STEPS)
    sses = np.array([_solve_ab(c, ks, ps)[2] for c in grid])
    if not np.isfinite(sses).all():
        raise FitConvergenceError("least-squares scan produced non-finite error")
    i = int(np.argmin(sses))  # ties resolve to the smallest c
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    c, _ = _golden_refine(ks, ps, float(lo), float(hi))
    a, b, sse = _solve_ab(c, ks, ps)
    if not math.isfinite(sse):
        raise FitConvergenceError("refinement produced non-finite error", sse=sse)

    clamped = False
    if b < _B_FLOOR:
        # flat or rising data: the decay term carries no signal
        clamped = b < -_B_FLOOR
        a = float(ps.mean())
        b = 0.0
        c = 0.0
        sse = float(((ps - a) ** 2).sum())
        return RefindabilityModel(
            a=min(max(a, 0.0), 1.0), b=b, c=c, sse=sse, degenerate=True, clamped=clamped
        )
    if a < 0.0:
        a, clamped = 0.0, True
    elif a > 1.0:
        a, clamped = 1.0, True
    if b > 1.0:
        b, clamped = 1.0, True
    if a + b > 1.0:
        b, clamped = 1.0 - a, True
    if clamped:
        sse = float(((ps - (a + b * np.exp(-c * ks))) ** 2).sum())
    return RefindabilityModel(a=a, b=b, c=c, sse=sse, clamped=clamped)


def refind_points(timelines: Sequence[StoryTimeline], max_k: int) -> list[tuple[int, float]]:
    """(k, observed probability) pairs for k = 0..max_k, skipping days
    where no timeline was eligible."""
    prob, _ = refind_cells(timelines, ())
    return [(k, cell.value) for k, cell in prob.items() if k <= max_k]


def fit_from_timelines(
    timelines: Sequence[StoryTimeline], max_k: int
) -> RefindabilityModel:
    return fit_exponential(refind_points(timelines, max_k))


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
    doc = {
        "vertical": vertical.value,
        "a": model.a,
        "b": model.b,
        "c": model.c,
        "sse": model.sse,
        "degenerate": model.degenerate,
        "clamped": model.clamped,
        "n_points": n_points,
        "fitted_at": fitted_at.isoformat(),
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_doc(text: str) -> tuple[RefindabilityModel, Vertical]:
    try:
        doc = json.loads(text)
        model = RefindabilityModel(
            a=doc["a"],
            b=doc["b"],
            c=doc["c"],
            sse=doc["sse"],
            degenerate=doc.get("degenerate", False),
            clamped=doc.get("clamped", False),
        )
        return model, Vertical.from_wire(doc["vertical"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"model document is malformed: {e}") from None
