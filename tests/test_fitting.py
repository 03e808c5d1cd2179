import json
import math
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from serpchurn.errors import UnderdeterminedFitError
from serpchurn.fitting import (
    algebraic_form,
    eval_model,
    fit_exponential,
    model_doc,
    refind_points,
)
from serpchurn.model import Vertical
from serpchurn.synth import SynthParams, generate

from builders import from_observations


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


@pytest.mark.parametrize(
    "points, want",
    [
        # e^(-c*k) underflows to zero at these offsets for the large c on the grid
        (
            [(200 + i, 0.3 - 0.01 * i) for i in range(4)],
            (0.0, 1.0, 0.0100000000000307, 0.092392252245278),
        ),
        (
            [(160 + i, 0.5 * math.exp(-0.05 * i)) for i in range(6)],
            (0.0, 1.0, 0.0499999999999971, 1.18371930008568),
        ),
        # e^(-c*k) < 1e-17 at every point, yet the decay constant is still
        # identifiable from the ratios and the clamped model keeps it
        (
            [(50 + k, 0.2 + 0.5 * math.exp(-0.8 * k)) for k in range(12)],
            (0.2, 0.8, 0.8, 0.3132425863185629),
        ),
    ],
)
def test_far_offsets(points, want):
    m = fit_exponential(points)
    assert [m.a, m.b, m.c, m.sse] == pytest.approx(want, rel=0, abs=1e-9)
    assert m.clamped and not m.degenerate


def test_a_tie_across_the_grid_goes_to_the_smallest_c():
    """Past k = 1e5 every e^(-c*k) on the grid underflows to zero, so each
    grid step fits the same design [1, 0, 0, 0] with the same SSE; the fit
    refines between the first two steps, not the last two."""
    m = fit_exponential([(0, 1.0), (1e5, 0.2), (2e5, 0.2), (3e5, 0.2)])
    assert [m.a, m.b] == pytest.approx([0.2, 0.8], rel=0, abs=1e-12)
    assert 0.01 <= m.c <= 0.02
    assert not m.clamped and not m.degenerate


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
    with pytest.raises(ValueError):
        fit_exponential([(0, float("nan")), (1, 0.5), (2, 0.3), (3, 0.2)])
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fit_exponential([(0, 0.9), (1, 0.5), (2, 0.3), (k, 0.2)])


def test_eval_model_clamps():
    m = fit_exponential(curve(0.0, 1.0, 2.0))
    assert 0.0 <= eval_model(m, 0) <= 1.0
    assert 0.0 <= eval_model(m, 100) <= 1.0


def test_algebraic_form():
    m = fit_exponential(curve(*GENERAL_COEFFS))
    assert algebraic_form(m) == "P(k) = 0.0362 + 0.9560*e^(-0.9159k)"


def test_refind_points_skip_unobservable_days():
    tls = (
        from_observations("a.example/s", date(2024, 1, 1), (1, None, 0, 1)),
        from_observations("b.example/s", date(2024, 1, 2), (2, None, 1, 0)),
    )
    pts = refind_points(tls, 5)
    assert [k for k, _ in pts] == [0, 2, 3]
    assert [k for k, _ in refind_points(tls, 2)] == [0, 2]
    assert refind_points(tls, -1) == []
    assert refind_points(tls, -5) == []


def test_refind_points_default_to_the_whole_span():
    store = generate(SynthParams(days=40, replacement_rate=0.3, seed=3))
    timelines = store.build_timelines()
    span = len(store.manifest.calendar)
    assert refind_points(timelines) == refind_points(timelines, span - 1)
    assert refind_points(timelines)[-1][0] == span - 1


def test_fit_from_timelines_smoke():
    """The README's library path: a fit of the refind points of timelines."""
    a, b, c = 0.1, 0.85, 1.0
    tls = []
    # many stories whose refind pattern follows the curve closely
    for i in range(400):
        obs = [1]
        for k in range(1, 12):
            p = a + b * math.exp(-c * k)
            obs.append(1 if (i % 100) < round(p * 100) else 0)
        tls.append(from_observations(f"s{i}.example/x", date(2024, 1, 1), tuple(obs)))
    m = fit_exponential(refind_points(tuple(tls), 11))
    assert abs(m.a - a) < 0.05 and abs(m.c - c) < 0.25


def test_model_doc_round_trip():
    m = fit_exponential(curve(*NEWS_COEFFS))
    doc = model_doc(m, Vertical.NEWS, 21, date(2017, 9, 30))
    # compared as a list of items, since comparing dicts ignores the keys' order
    assert list(json.loads(doc).items()) == list({
        "vertical": "news",
        "a": m.a,
        "b": m.b,
        "c": m.c,
        "sse": m.sse,
        "degenerate": m.degenerate,
        "clamped": m.clamped,
        "n_points": 21,
        "fitted_at": "2017-09-30",
    }.items())


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(0, 60), st.floats(0.0, 1.0), min_size=4, max_size=12))
def test_the_fitted_level_never_exceeds_the_mean(points):
    # why a fit never needs pulling down to a = 1
    ps = list(points.values())
    assert fit_exponential(list(points.items())).a <= math.fsum(ps) / len(ps)


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


# offsets that stress the decay column: integers, tiny floats where every
# e^(-c*k) is about 1, and far floats where every one underflows to zero
OFFSETS = st.one_of(st.integers(0, 800), st.floats(1e-300, 1.0), st.floats(140.0, 800.0))
SCATTERED = st.dictionaries(OFFSETS, st.floats(0.0, 1.0), min_size=4, max_size=25).map(lambda d: list(d.items()))


@st.composite
def float_runs(draw, max_size):
    """Up to ``max_size`` offsets, each the next float after the one before: their
    e^(-c*k) differ by an ulp or not at all, so sxx is tiny, subnormal or zero."""
    k, n = draw(st.floats(0.0, 800.0)), draw(st.integers(4, max_size))
    ps = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    points = []
    for p in ps:
        points.append((k, p))
        k = math.nextafter(k, math.inf)
    return points


@settings(max_examples=200, deadline=None)
@given(st.one_of(SCATTERED, float_runs(300)))
def test_valid_points_always_fit_with_a_finite_error(points):
    # Accepted points give a finite error without a guard. Every e^(-c*k) lies
    # in [0, 1]. When sxx > 0 the largest de^2 did not underflow, so
    # |b| <= 4n / max|de| and every |b*(e - e_bar)| is at most 4n; a nonzero de
    # is at least about 2^-53 * e_bar, so rounding adds only O(n) more, and the
    # scan's SSE is O(n^3). After the clamps, or the degenerate reset, a + b*e
    # lies in [0, 1], so every residual lies in [-1, 1] and the SSE is at most n.
    m = fit_exponential(points)
    assert math.isfinite(m.sse) and m.sse <= len(points)


@settings(max_examples=100, deadline=None)
@given(st.one_of(SCATTERED, float_runs(25)), st.randoms(use_true_random=False))
def test_the_order_of_the_points_changes_no_bit(points, rng):
    # every sum is a correctly rounded math.fsum and every other step works one
    # point at a time; repr tells apart any two floats, 0.0 and -0.0 included
    shuffled = points.copy()
    rng.shuffle(shuffled)
    assert repr(fit_exponential(shuffled)) == repr(fit_exponential(sorted(points)))
