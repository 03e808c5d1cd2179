import json
import math
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from serpchurn.errors import UnderdeterminedFitError, ValidationError
from serpchurn.fitting import (
    algebraic_form,
    eval_model,
    fit_exponential,
    fit_from_timelines,
    model_doc,
    model_from_doc,
    refind_points,
)
from serpchurn.model import StoryTimeline, Vertical


def curve(a, b, c, n=21):
    return [(k, a + b * math.exp(-c * k)) for k in range(n)]


# coefficient pairs published for the two verticals
GENERAL_COEFFS = (0.0362, 0.9560, 0.9159)
NEWS_COEFFS = (0.0469, 0.9370, 0.9806)


@pytest.mark.parametrize("coeffs", [GENERAL_COEFFS, NEWS_COEFFS])
def test_noiseless_recovery(coeffs):
    a, b, c = coeffs
    m = fit_exponential(curve(a, b, c))
    assert abs(m.a - a) <= 1e-3
    assert abs(m.b - b) <= 1e-3
    assert abs(m.c - c) <= 1e-3
    assert m.sse <= 1e-10
    assert not m.degenerate and not m.clamped


def test_evaluation_at_day_one():
    m = fit_exponential(curve(*GENERAL_COEFFS))
    assert abs(eval_model(m, 1) - 0.4188) <= 5e-4


def test_deterministic_repeat():
    pts = curve(0.05, 0.9, 1.2, n=15)
    first = fit_exponential(pts)
    second = fit_exponential(pts)
    assert first == second


def test_point_order_does_not_matter():
    pts = curve(0.05, 0.9, 1.2, n=12)
    assert fit_exponential(pts) == fit_exponential(list(reversed(pts)))


def test_flat_data_degenerates():
    m = fit_exponential([(k, 0.4) for k in range(8)])
    assert m.degenerate
    assert m.b == 0.0 and m.c == 0.0
    assert m.a == pytest.approx(0.4)
    assert m.sse == pytest.approx(0.0)


def test_rising_data_degenerates_with_clamp_flag():
    m = fit_exponential([(k, 0.1 + 0.05 * k) for k in range(8)])
    assert m.degenerate and m.clamped
    assert m.b == 0.0 and m.c == 0.0


def test_noisy_data_still_fits():
    a, b, c = 0.1, 0.8, 0.7
    pts = [
        (k, min(1.0, max(0.0, a + b * math.exp(-c * k) + (0.01 if k % 2 else -0.01))))
        for k in range(15)
    ]
    m = fit_exponential(pts)
    assert abs(m.a - a) < 0.05
    assert abs(m.c - c) < 0.2
    assert m.sse <= sum((p - (a + b * math.exp(-c * k))) ** 2 for k, p in pts) + 1e-9


def test_too_few_points():
    with pytest.raises(UnderdeterminedFitError):
        fit_exponential(curve(0.1, 0.8, 1.0, n=3))


def test_duplicate_offsets_rejected():
    with pytest.raises(ValueError):
        fit_exponential([(0, 1.0), (1, 0.5), (1, 0.4), (2, 0.3)])


def test_out_of_range_probabilities_rejected():
    with pytest.raises(ValueError):
        fit_exponential([(0, 1.2), (1, 0.5), (2, 0.3), (3, 0.2)])
    with pytest.raises(ValueError):
        fit_exponential([(-1, 0.5), (0, 0.5), (1, 0.5), (2, 0.5)])


def test_eval_model_clamps():
    m = fit_exponential(curve(0.0, 1.0, 2.0))
    assert 0.0 <= eval_model(m, 0) <= 1.0
    assert 0.0 <= eval_model(m, 100) <= 1.0


def test_algebraic_form():
    m = fit_exponential(curve(*GENERAL_COEFFS))
    assert algebraic_form(m) == "P(k) = 0.0362 + 0.9560*e^(-0.9159k)"


def test_refind_points_skip_unobservable_days():
    tls = (
        StoryTimeline("a.example/s", date(2024, 1, 1), (1, None, 0, 1)),
        StoryTimeline("b.example/s", date(2024, 1, 2), (2, None, 1, 0)),
    )
    pts = refind_points(tls, 5)
    assert [k for k, _ in pts] == [0, 2, 3]
    assert [k for k, _ in refind_points(tls, 2)] == [0, 2]
    assert refind_points(tls, -1) == []
    assert refind_points(tls, -5) == []


def test_fit_from_timelines_smoke():
    a, b, c = 0.1, 0.85, 1.0
    tls = []
    # many stories whose refind pattern follows the curve closely
    for i in range(400):
        obs = [1]
        for k in range(1, 12):
            p = a + b * math.exp(-c * k)
            obs.append(1 if (i % 100) < round(p * 100) else 0)
        tls.append(StoryTimeline(f"s{i}.example/x", date(2024, 1, 1), tuple(obs)))
    m = fit_from_timelines(tuple(tls), 11)
    assert abs(m.a - a) < 0.05 and abs(m.c - c) < 0.25


def test_model_doc_round_trip():
    m = fit_exponential(curve(*NEWS_COEFFS))
    doc = model_doc(m, Vertical.NEWS, 21, date(2017, 9, 30))
    again, vertical = model_from_doc(doc)
    assert vertical is Vertical.NEWS
    assert again == m
    with pytest.raises(ValidationError):
        model_from_doc("{not json")
    for field, value in (("a", 2), ("c", -1)):  # out of the model's ranges
        bad = json.loads(doc)
        bad[field] = value
        with pytest.raises(ValidationError):
            model_from_doc(json.dumps(bad))


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.0, 0.3),
    st.floats(0.2, 0.7),
    st.floats(0.05, 3.0),
)
def test_recovery_property(a, b, c):
    m = fit_exponential(curve(a, b, c, n=16))
    for k in (0, 1, 5, 15):
        want = a + b * math.exp(-c * k)
        assert abs(eval_model(m, k) - want) < 1e-4
