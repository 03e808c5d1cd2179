"""Text and SVG rendering of metrics output.

All renderers are pure string builders with fixed number formatting, so
the same inputs always produce byte-identical output. The SVG views use
no scripts and no external assets.
"""

from __future__ import annotations

from datetime import timedelta
from typing import TYPE_CHECKING, AbstractSet, Iterator, Sequence

from .metrics import ChurnReport, TemporalMatrix, TransitionEstimate, overlap, rate_rows, recall
from .model import PAGES_MAX, StoryTimeline

if TYPE_CHECKING:
    from .fitting import RefindabilityModel

# Fill colors for page states 1-5 on the temporal grid and bar charts.
PAGE_COLORS = {
    1: "rgb(34,185,4)",
    2: "rgb(128,255,104)",
    3: "rgb(230,230,0)",
    4: "rgb(109,109,109)",
    5: "rgb(251,0,6)",
}
ABSENT_COLOR = "#ffffff"  # state 0: scraped but not in the pages


# -- SVG ----------------------------------------------------------------


def _svg(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )


def temporal_grid_lines(matrix: TemporalMatrix) -> Iterator[str]:
    """Story-by-day grid; exactly one 12-pixel square rect per cell.

    Page states use the page palette, state 0 is white, and days with no
    snapshot are hatched via a line pattern (keeping the rect count equal
    to rows x columns). Yields the header, then one string per story row
    (each rect ending in a newline), then the closing tag, so a writer
    holds one row of the SVG at a time, never the grid's cells.
    """
    cell = 12
    rows = len(matrix.timelines)
    width = matrix.days * cell if rows else 0
    height = rows * cell
    yield (
        _svg(width, height) + "\n"
        "<defs>\n"
        '<pattern id="gap" width="6" height="6" patternUnits="userSpaceOnUse">\n'
        '<line x1="0" y1="6" x2="6" y2="0" stroke="#999999" stroke-width="1"/>\n'
        "</pattern>\n"
        "</defs>\n"
    )
    # each rect is a column's head, the row's y, and the state's tail: a row is
    # its y joining the first head and, per column, its state's tail and the next head
    heads = [f'<rect x="{ci * cell}" y="' for ci in range(matrix.days)] + [""]
    joints = {
        state: heads[:1] + [
            f'" width="{cell}" height="{cell}" fill="{fill}" stroke="#dddddd" stroke-width="0.5"/>\n{head}'
            for head in heads[1:]
        ]
        for state, fill in {None: "url(#gap)", 0: ABSENT_COLOR, **PAGE_COLORS}.items()
    }
    lead = heads[:1] + [
        joints[None if matrix.start + timedelta(days=i) in matrix.gaps else 0][i + 1]
        for i in range(matrix.days)
    ]
    for ri, t in enumerate(matrix.timelines):
        at = (t.first_seen - matrix.start).days + 1
        row = lead[:at] + joints[0][at : at + t.length] + joints[None][at + t.length :]
        yield str(ri * cell).join(t.spell(row, at, lambda state, i: joints[state][i]))
    yield "</svg>\n"


def render_temporal_grid(matrix: TemporalMatrix) -> str:
    """The whole temporal grid SVG as one string; see ``temporal_grid_lines``."""
    return "".join(temporal_grid_lines(matrix))


def render_page_rate_bars(rates: Sequence[tuple[int, float]]) -> str:
    """One bar per page for a rate in [0, 1], colored by page, on a 360x240 chart."""
    width, height, pad = 360, 240, 24
    chart_h = height - 2 * pad
    n = max(len(rates), 1)
    slot = (width - 2 * pad) / n
    bar_w = slot * 0.7
    parts = [_svg(width, height)]
    for i, (page, value) in enumerate(rates):
        clamped = min(1.0, max(0.0, value))
        bar_h = clamped * chart_h
        x = pad + i * slot + (slot - bar_w) / 2
        y = pad + (chart_h - bar_h)
        color = PAGE_COLORS.get(page, "#444444")
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h:.1f}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - 6}" font-size="11" '
            f'text-anchor="middle" fill="#333333">p{page}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" font-size="10" '
            f'text-anchor="middle" fill="#333333">{value:.2f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_fit_curve(
    points: Sequence[tuple[float, float]], model: RefindabilityModel
) -> str:
    """Observed probabilities as dots, the fitted curve as a polyline; 480x320."""
    from .fitting import eval_model  # here, so the table commands never load the fitter

    width, height, pad = 480, 320, 30
    max_k = max((k for k, _ in points), default=1.0) or 1.0
    plot_w = width - 2 * pad
    plot_h = height - 2 * pad

    def sx(k: float) -> float:
        return pad + (k / max_k) * plot_w

    def sy(p: float) -> float:
        return pad + (1.0 - p) * plot_h

    steps = 200
    samples = []
    for i in range(steps + 1):
        k = max_k * i / steps
        samples.append(f"{sx(k):.1f},{sy(eval_model(model, k)):.1f}")
    parts = [
        _svg(width, height),
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="#333333" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#333333" stroke-width="1"/>',
        f'<polyline points="{" ".join(samples)}" fill="none" '
        'stroke="#1f6fd6" stroke-width="1.5"/>',
    ]
    for k, p in points:
        parts.append(
            f'<circle cx="{sx(k):.1f}" cy="{sy(p):.1f}" r="3" fill="#d62728"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- text ---------------------------------------------------------------


def format_rate_table(report: ChurnReport) -> str:
    """Replacement and new-story means by interval and page."""
    lines = [f"{'metric':<18} {'interval':>8} {'page':>4} {'mean':>8} {'n':>6}"]
    for name, days, page, c in rate_rows(report):
        page_s = "all" if page is None else str(page)
        lines.append(f"{name:<18} {days:>7}d {page_s:>4} {c.value:>8.4f} {c.n:>6}")
    return "\n".join(lines) + "\n"


def format_prob_table(report: ChurnReport) -> str:
    """P(seen) by day offset, with the split over pages 1-5 alongside."""
    pages = range(1, PAGES_MAX + 1)
    head = f"{'k':>4} {'P(seen)':>8} {'n':>6}" + "".join(
        f" {'p' + str(m):>7}" for m in pages
    )
    lines = [head]
    for k in sorted(report.prob_seen):
        c = report.prob_seen[k]
        row = f"{k:>4} {c.value:>8.4f} {c.n:>6}"
        for m in pages:
            pc = report.prob_seen_page.get((k, m))
            row += f" {pc.value:>7.4f}" if pc else f" {'-':>7}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def format_transitions(est: TransitionEstimate) -> str:
    """Row-stochastic day-to-day movement table; '-' rows were never left."""
    n = len(est.counts)
    lines = ["from\\to " + "".join(f"{j:>8}" for j in range(n))]
    for i, row in enumerate(est.rows()):
        if row is None:
            cells = "".join(f"{'-':>8}" for _ in range(n))
        else:
            cells = "".join(f"{float(p):>8.4f}" for p in row)
        lines.append(f"{i:>7} {cells}")
    return "\n".join(lines) + "\n"


def format_timelines(timelines: Sequence[StoryTimeline]) -> Iterator[str]:
    """One line per story, as it comes; a lone newline when there is none."""
    if not timelines:
        yield "\n"
    for t in timelines:
        yield f"{t.first_seen.isoformat()}  {t.notation()}  {t.canonical_uri}\n"


def format_compare(label_a: str, set_a: AbstractSet[str], label_b: str, set_b: AbstractSet[str]) -> str:
    return (
        f"{'collection':<12} {'stories':>8}\n"
        f"{label_a:<12} {len(set_a):>8}\n"
        f"{label_b:<12} {len(set_b):>8}\n"
        f"common       {len(set_a & set_b):>8}\n"
        f"overlap      {float(overlap(set_a, set_b)):>8.4f}\n"
        f"recall {label_a}->{label_b}: {float(recall(set_a, set_b)):.4f}\n"
        f"recall {label_b}->{label_a}: {float(recall(set_b, set_a)):.4f}\n"
    )
