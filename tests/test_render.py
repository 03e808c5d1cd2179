import hashlib
import tracemalloc
from datetime import date, timedelta

from hypothesis import given, settings, strategies as st

from serpchurn.fitting import fit_exponential
from serpchurn.metrics import (
    compute_report,
    temporal_matrix,
    transition_matrix,
)
from serpchurn.render import (
    ABSENT_COLOR,
    PAGE_COLORS,
    format_compare,
    format_prob_table,
    format_rate_table,
    format_timelines,
    format_transitions,
    render_fit_curve,
    render_page_rate_bars,
    render_temporal_grid,
    temporal_grid_lines,
)
from serpchurn.synth import SynthParams, generate

from builders import from_observations

D = lambda day: date(2024, 1, day)

TLS = (
    from_observations("a.example/s", D(1), (4, 2, None, 0)),
    from_observations("b.example/s", D(2), (1, None, 1)),
)
MATRIX = temporal_matrix(TLS, start=D(1), days=4, gaps=frozenset({D(3)}))


def test_grid_has_one_rect_per_cell():
    svg = render_temporal_grid(MATRIX)
    assert svg.count("<rect") == 2 * 4
    assert svg.count("<svg") == 1 and svg.strip().endswith("</svg>")


def test_grid_missing_days_hatched_with_lines():
    svg = render_temporal_grid(MATRIX)
    assert 'fill="url(#gap)"' in svg
    assert "<line" in svg  # the hatch itself is drawn with lines, not rects
    assert svg.count('fill="url(#gap)"') == 2  # one unscraped day, seen by both rows


def test_grid_uses_page_palette():
    svg = render_temporal_grid(MATRIX)
    assert PAGE_COLORS[4] == "rgb(109,109,109)" and PAGE_COLORS[4] in svg
    assert PAGE_COLORS[2] == "rgb(128,255,104)" and PAGE_COLORS[2] in svg
    assert PAGE_COLORS[1] == "rgb(34,185,4)" and PAGE_COLORS[1] in svg
    assert 'fill="#ffffff"' in svg  # state 0


def test_palette_values_pinned():
    assert PAGE_COLORS == {
        1: "rgb(34,185,4)",
        2: "rgb(128,255,104)",
        3: "rgb(230,230,0)",
        4: "rgb(109,109,109)",
        5: "rgb(251,0,6)",
    }


def test_grid_deterministic():
    assert render_temporal_grid(MATRIX) == render_temporal_grid(MATRIX)


def test_empty_grid():
    svg = render_temporal_grid(temporal_matrix((), start=D(1), days=3))
    assert svg.count("<rect") == 0
    assert _sha256(svg) == "3e91d78ccfcbb660e96bb2cf5df6030fc2e700561e1a54b7698ea40ffebca062"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_bytes_pinned_on_the_readme_store():
    store = generate(SynthParams(days=10, pages=2, per_page=5, replacement_rate=0.3, seed=42))
    m = store.manifest
    matrix = temporal_matrix(
        store.build_timelines(), start=m.start_date, days=len(m.calendar), gaps=m.gaps
    )
    assert _sha256(render_temporal_grid(matrix)) == (
        "d4353cb2c6b097822f7c8996f27d49e95296240322d9f5e3c6ff1129eac015d1"
    )


def test_grid_bytes_pinned_on_padded_rows():
    """A story first seen after a gap day, an unscraped offset inside a
    timeline, and timelines that end before the span does."""
    tls = (
        from_observations("a.example/s", D(1), (1, 0, None, 5, 0, 2)),
        from_observations("b.example/s", D(4), (3, 4, 0)),
        from_observations("c.example/s", D(2), (4, None, 1)),
    )
    svg = render_temporal_grid(temporal_matrix(tls, start=D(1), days=6, gaps={D(3)}))
    assert svg.count("<rect") == 18
    assert svg.count('fill="url(#gap)"') == 5
    assert _sha256(svg) == (
        "499252afafd8763ee3b823182505138f16fc77f28966a8752ad39b0867f78959"
    )


def test_grid_holds_one_row_at_a_time():
    """Drawing the grid holds about the SVG's text and its joined copy, not
    a stories x days matrix of cells or a string per rect beside it."""
    store = generate(SynthParams(days=30, replacement_rate=0.35, seed=5))
    m = store.manifest
    timelines = store.build_timelines()
    tracemalloc.start()
    try:
        svg = render_temporal_grid(
            temporal_matrix(timelines, start=m.start_date, days=len(m.calendar), gaps=m.gaps)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.count("<rect") == len(timelines) * 30
    assert peak <= 2.5 * len(svg)


def reference_grid_lines(matrix):
    """The grid spelled cell by cell from each timeline's padded row: the
    header, one string per story row, then the closing tag."""
    cell = 12
    rows = len(matrix.timelines)
    width = matrix.days * cell if rows else 0
    height = rows * cell
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        "<defs>\n"
        '<pattern id="gap" width="6" height="6" patternUnits="userSpaceOnUse">\n'
        '<line x1="0" y1="6" x2="6" y2="0" stroke="#999999" stroke-width="1"/>\n'
        "</pattern>\n"
        "</defs>\n"
    )
    heads = [f'<rect x="{ci * cell}" y="' for ci in range(matrix.days)]
    tails = {
        state: f'" width="{cell}" height="{cell}" fill="{fill}" stroke="#dddddd" stroke-width="0.5"/>\n'
        for state, fill in {None: "url(#gap)", 0: ABSENT_COLOR, **PAGE_COLORS}.items()
    }
    lead = tuple(
        None if matrix.start + timedelta(days=i) in matrix.gaps else 0
        for i in range(matrix.days)
    )
    for ri, t in enumerate(matrix.timelines):
        offset = (t.first_seen - matrix.start).days
        row = lead[:offset] + t.observations + (None,) * (matrix.days - offset - t.length)
        y = str(ri * cell)
        yield "".join([head + y + tails[state] for head, state in zip(heads, row)])
    yield "</svg>\n"


@st.composite
def grids(draw):
    """A span of 1-12 days with any gap days, and timelines through the public
    constructor that start at any offset, may end before the span does, and
    hold pages, state 0 and unscraped offsets in any order."""
    days = draw(st.integers(1, 12), label="days")
    start = D(1)
    gaps = draw(st.sets(st.integers(0, days - 1)), label="gaps")
    timelines = []
    for i in range(draw(st.integers(0, 6), label="stories")):
        offset = draw(st.integers(0, days - 1))
        rest = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=days - offset - 1))
        row = (draw(st.integers(1, 5)), *rest)
        timelines.append(from_observations(f"s{i}.example/x", start + timedelta(days=offset), row))
    return temporal_matrix(
        timelines, start=start, days=days, gaps=frozenset(start + timedelta(days=g) for g in gaps)
    )


@settings(max_examples=300)
@given(grids())
def test_grid_rows_match_the_cell_by_cell_reference(matrix):
    assert list(temporal_grid_lines(matrix)) == list(reference_grid_lines(matrix))


def test_the_reference_draws_the_pinned_grids():
    store = generate(SynthParams(days=10, pages=2, per_page=5, replacement_rate=0.3, seed=42))
    m = store.manifest
    matrix = temporal_matrix(store.build_timelines(), start=m.start_date, days=len(m.calendar), gaps=m.gaps)
    assert _sha256("".join(reference_grid_lines(matrix))) == (
        "d4353cb2c6b097822f7c8996f27d49e95296240322d9f5e3c6ff1129eac015d1"
    )
    assert "".join(reference_grid_lines(MATRIX)) == render_temporal_grid(MATRIX)


def test_bar_chart_one_bar_per_page():
    svg = render_page_rate_bars([(1, 0.42), (2, 0.3), (5, 1.0)])
    assert svg.count("<rect") == 3
    assert PAGE_COLORS[5] in svg
    assert "p5" in svg


def test_fit_curve_contains_points_and_line():
    pts = [(float(k), 0.1 + 0.8 * (0.5**k)) for k in range(6)]
    model = fit_exponential(pts)
    svg = render_fit_curve(pts, model)
    assert svg.count("<circle") == 6
    assert svg.count("<polyline") == 1


def _report():
    return compute_report(generate(SynthParams(days=5, pages=2, per_page=3, replacement_rate=0.5, seed=2)))


def test_rate_table_lists_all_cells():
    text = format_rate_table(_report())
    assert text.splitlines()[0].split() == ["metric", "interval", "page", "mean", "n"]
    assert "replacement_rate" in text and "new_story_rate" in text
    assert " all " in text


def test_prob_table_shape():
    text = format_prob_table(_report())
    lines = text.splitlines()
    assert lines[0].split()[:3] == ["k", "P(seen)", "n"]
    assert len(lines) == 1 + 5  # header + one row per day offset


def test_transition_table_marks_unobserved_rows():
    est = transition_matrix(TLS)
    text = format_transitions(est)
    assert text.splitlines()[0].startswith("from\\to")
    assert "-" in text


def test_timeline_listing_uses_brace_notation():
    text = "".join(format_timelines(TLS))
    assert "{4, 2, -, 0}" in text
    assert "a.example/s" in text


def test_no_timelines_list_as_one_newline():
    assert list(format_timelines(())) == ["\n"]


def test_compare_block():
    general = {f"s{i}" for i in range(100)}
    news = {f"s{i}" for i in range(60, 140)}  # 80 stories, 40 of them shared
    text = format_compare("general", general, "news", news)
    assert "overlap" in text and "0.5000" in text
    assert "recall general->news: 0.4000" in text
