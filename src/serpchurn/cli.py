"""Command-line interface.

One subcommand per pipeline stage: scrape pages into snapshots, ingest
snapshot documents, then read stats, timelines, metrics, probabilities,
transitions, fitted models, comparisons and rendered reports back out.
``--store`` points at a collection directory; ``-`` streams snapshot
documents over stdin/stdout instead (one compact JSON doc per line).
stdin, stdout and every file are UTF-8, whatever the locale. Each command
imports the modules it runs in its own body, so ``stats`` loads no metrics.

Exit codes: 0 success, 1 transport, I/O or internal failure, 2 usage
or validation error, 3 missing store or fixture, 4 not enough data,
5 rate limited, 6 unparseable input; each error class carries its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import (
    InsufficientDataError,
    SerpChurnError,
    StoreMismatchError,
    StoreMissingError,
    ValidationError,
)
from .model import (
    DEFAULT_DELAY,
    INTERVAL_NAMES,
    PAGES_MAX,
    RefindabilityModel,
    SerpSnapshot,
    Vertical,
    parse_date,
    snapshot_from_json,
    snapshot_to_json,
)
from .store import (
    CollectionStore,
    iter_snapshot_stream,
    open_store,
    store_from_stream,
)

if TYPE_CHECKING:
    from .metrics import ChurnReport
    from .synth import Kernel

STORE_ENV = "SERPCHURN_STORE"


def _store_arg(value: str | None) -> str:
    resolved = value or os.environ.get(STORE_ENV)
    if not resolved:
        raise ValidationError(f"--store is required (or set {STORE_ENV})")
    return resolved


def _load_store(args) -> CollectionStore:
    """The collection that ``--store`` or $SERPCHURN_STORE names; ``-`` reads stdin."""
    arg = _store_arg(args.store)
    if arg == "-":
        return store_from_stream(sys.stdin.buffer)
    return open_store(Path(arg))


def _append(store_arg: str, snapshots: list[SerpSnapshot], note: str) -> Iterable[str] | None:
    """The snapshots' stream lines for ``-``; else add them to the collection of
    the first one's query and vertical, which is never loaded, and print ``note``
    to stderr."""
    if store_arg == "-":
        return map(snapshot_to_json, snapshots)
    head = snapshots[0]
    CollectionStore.from_snapshots(head.query, head.vertical, snapshots, root=Path(store_arg))
    print(note, file=sys.stderr)
    return None


def _parse_date(text: str) -> date:
    try:
        return parse_date(text)
    except ValueError as e:
        raise ValidationError(str(e)) from None


def _interval_days(text: str) -> int:
    """The lag in days that an interval name (daily, weekly, monthly) or
    count (7, 7d) stands for. A count is ASCII digits only, as int() would
    also take ``+7``, ``1_0`` and other scripts' digits."""
    key = text.strip().lower()
    if key in INTERVAL_NAMES:
        return INTERVAL_NAMES[key]
    count = re.fullmatch(r"(-?)0*([0-9]+)d?", key)
    if count is None:
        raise ValidationError(f"unknown interval {text!r}")
    sign, digits = count.groups()
    try:
        return int(sign + digits)
    except ValueError:  # past int()'s digit limit: under one day, or as long as the longest calendar
        if sign:
            raise ValidationError(
                f"interval must be >= 1 day, got a negative count of {len(digits)} digits"
            ) from None
        return (date.max - date.min).days + 1


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write one string, or each of an iterable's strings as it comes, to ``out``
    or stdout, as UTF-8 whatever the locale, so both carry the same bytes."""
    chunks = (chunk.encode("utf-8") for chunk in ([text] if isinstance(text, str) else text))
    if out:
        with open(out, "wb") as fp:
            fp.writelines(chunks)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)


def _table(report: ChurnReport, fmt: str, text_table: Callable[[ChurnReport], str]) -> str:
    """The report as CSV for ``--format csv``, else as its text table."""
    from .metrics import report_to_csv

    return report_to_csv(report) if fmt == "csv" else text_table(report)


def _fit(
    store: CollectionStore, max_k: int | None = None
) -> tuple[list[tuple[int, float]], RefindabilityModel]:
    """Refind points up to ``max_k`` (default: every offset) and their fit."""
    from .fitting import fit_exponential, refind_points

    points = refind_points(store.build_timelines(), max_k)
    return points, fit_exponential(points)


# -- subcommand bodies --------------------------------------------------


def _cmd_scrape(args) -> Iterable[str] | None:
    from .serp_io import FetchPlan, build_snapshot

    date_range = None
    if args.date_start or args.date_end:
        if not (args.date_start and args.date_end):
            raise ValidationError("--date-start and --date-end go together")
        date_range = (_parse_date(args.date_start), _parse_date(args.date_end))
    plan = FetchPlan(
        query=args.query,
        vertical=Vertical(args.vertical),
        pages=args.pages,
        date_range=date_range,
        politeness_delay=args.delay,
        fixture_dir=Path(args.fixture) if args.fixture else None,
    )
    day = _parse_date(args.date) if args.date else date.today()
    snapshot = build_snapshot(plan, day)
    note = f"ingested {snapshot.date.isoformat()}: {len(snapshot.results)} links"
    return _append(_store_arg(args.store), [snapshot], note)


def _cmd_ingest(args) -> Iterable[str] | None:
    docs = []
    for name in args.files:
        if name == "-":
            docs.extend(iter_snapshot_stream(sys.stdin.buffer))
        else:
            path = Path(name)
            if not path.is_file():
                raise StoreMissingError(f"no snapshot file at {path}")
            docs.append(snapshot_from_json(path.read_bytes()))
    if not docs:
        raise InsufficientDataError("nothing to ingest")
    return _append(_store_arg(args.store), docs, f"ingested {len(docs)} snapshot(s)")


def _cmd_stats(args) -> str:
    store = _load_store(args)
    total, uniq, span = store.collection_stats()
    m = store.manifest
    lines = [
        f"topic:      {m.topic}",
        f"vertical:   {m.vertical.value}",
        f"snapshots:  {len(m.dates)}",
        f"span days:  {span}",
        f"gap days:   {len(m.gaps)}",
        f"links:      {total}",
        f"stories:    {uniq}",
    ]
    if m.start_date:
        lines.insert(2, f"first day:  {m.start_date.isoformat()}")
        lines.insert(3, f"last day:   {m.end_date.isoformat()}")
    return "\n".join(lines) + "\n"


def _cmd_timelines(args) -> Iterable[str]:
    from .render import format_timelines

    return format_timelines(_load_store(args).build_timelines())


def _cmd_metrics(args) -> str:
    from .metrics import compute_rates
    from .render import format_rate_table

    store = _load_store(args)
    intervals = [_interval_days(part) for part in args.intervals.split(",") if part]
    if not intervals:
        raise ValidationError("--intervals names no interval")
    return _table(compute_rates(store, intervals), args.format, format_rate_table)


def _cmd_prob(args) -> str:
    from .metrics import compute_refind
    from .render import format_prob_table

    return _table(compute_refind(_load_store(args)), args.format, format_prob_table)


def _cmd_transitions(args) -> str:
    from .metrics import transition_matrix
    from .render import format_transitions

    est = transition_matrix(_load_store(args).build_timelines())
    if args.counts:
        return "".join(" ".join(str(c) for c in row) + "\n" for row in est.counts)
    return format_transitions(est)


def _cmd_fit(args) -> None:
    from .fitting import algebraic_form, model_doc

    if args.max_k is not None and args.max_k < 0:
        raise ValidationError(f"--max-k must be >= 0, got {args.max_k}")
    store = _load_store(args)
    m = store.manifest
    if args.vertical and Vertical(args.vertical) is not m.vertical:
        raise StoreMismatchError(
            f"store holds the {m.vertical.value} vertical, not {args.vertical}"
        )
    points, model = _fit(store, args.max_k)
    doc = model_doc(model, m.vertical, len(points), m.end_date)
    _emit(doc, args.output)  # first, so an unwritable -o prints no algebraic form
    print(algebraic_form(model), file=sys.stderr)


def _cmd_compare(args) -> str:
    from .render import format_compare

    stores = [open_store(Path(args.store_a)), open_store(Path(args.store_b))]
    set_a, set_b = (store.stories() for store in stores)
    label_a, label_b = (store.vertical.value for store in stores)
    if label_a == label_b:
        label_a, label_b = "a", "b"
    return format_compare(label_a, set_a, label_b, set_b)


def _cmd_report(args) -> str | Iterable[str]:
    from .metrics import compute_rates, temporal_matrix
    from .render import render_fit_curve, render_page_rate_bars, temporal_grid_lines

    store = _load_store(args)
    if args.kind == "page-chart":
        days = _interval_days(args.interval)
        cells = compute_rates(store, [days]).replacement
        rates = [(p, cells[days, p].value) for p in range(1, PAGES_MAX + 1) if (days, p) in cells]
        if not rates:
            raise InsufficientDataError("no page has enough data to chart")
        return render_page_rate_bars(rates)
    if args.kind == "temporal-grid":
        m = store.manifest
        matrix = temporal_matrix(
            store.build_timelines(), start=m.start_date, days=len(m.calendar), gaps=m.gaps
        )
        return temporal_grid_lines(matrix)
    points, model = _fit(store)  # fit-curve
    return render_fit_curve([(float(k), p) for k, p in points], model)


def _read_kernel(path: str) -> Kernel:
    try:
        rows = [list(row) for row in json.loads(Path(path).read_text(encoding="utf-8"))]
        bad = [x for row in rows for x in row if type(x) not in (int, float)]  # true, "1", null
        if bad:
            raise TypeError(f"{bad[0]!r} is not a number")
        return tuple(tuple(map(float, row)) for row in rows)
    except (TypeError, ValueError, OverflowError, RecursionError) as e:
        raise ValidationError(f"kernel file {path} is not a matrix of numbers: {e}") from None


def _cmd_synth(args) -> Iterable[str] | None:
    from .synth import SynthParams, iter_snapshots

    params = SynthParams(
        days=args.days,
        pages=args.pages,
        per_page=args.per_page,
        replacement_rate=args.rate,
        transition_kernel=_read_kernel(args.kernel) if args.kernel else None,
        seed=args.seed,
        topic=args.topic,
        vertical=Vertical(args.vertical),
        start=_parse_date(args.start),
    )
    store_arg = _store_arg(args.store)
    note = f"generated {args.days} day(s) into {store_arg}"
    return _append(store_arg, list(iter_snapshots(params)), note)


# -- parser -------------------------------------------------------------


@functools.cache  # one parser per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serpchurn",
        description="Track story URIs across result pages over time.",
    )
    parser.set_defaults(output=None)
    sub = parser.add_subparsers(dest="command", required=True)
    verticals = [v.value for v in Vertical]

    def add_store(p):
        p.add_argument(
            "--store",
            default=None,
            help=f"collection directory, or - for stdio streaming "
            f"(default: ${STORE_ENV})",
        )

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write here, not stdout")

    p = sub.add_parser("scrape", help="fetch one day of result pages")
    p.add_argument("--query", required=True)
    p.add_argument("--vertical", choices=verticals, default=Vertical.GENERAL.value)
    p.add_argument("--pages", type=int, default=PAGES_MAX)
    p.add_argument("--fixture", default=None, help="replay saved pages from this dir")
    p.add_argument("--delay", type=float, default=DEFAULT_DELAY)
    p.add_argument("--date", default=None, help="snapshot date (default today)")
    p.add_argument("--date-start", default=None, help="restrict results from")
    p.add_argument("--date-end", default=None, help="restrict results to")
    add_store(p)

    p = sub.add_parser("ingest", help="add snapshot documents to a collection")
    p.add_argument("files", nargs="+", help="snapshot JSON files, or - for stdin")
    add_store(p)

    p = sub.add_parser("stats", help="collection totals")
    add_store(p)

    p = sub.add_parser("timelines", help="per-story page observations")
    add_store(p)
    add_output(p)

    p = sub.add_parser("metrics", help="replacement and new-story rates")
    p.add_argument("--intervals", default=",".join(INTERVAL_NAMES))
    p.add_argument("--format", choices=["text", "csv"], default="text")
    add_store(p)
    add_output(p)

    p = sub.add_parser("prob", help="probability of refinding by day offset")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    add_store(p)
    add_output(p)

    p = sub.add_parser("transitions", help="day-to-day page movement")
    p.add_argument("--counts", action="store_true", help="raw counts, not rates")
    add_store(p)
    add_output(p)

    p = sub.add_parser("fit", help="fit the refind decay model")
    p.add_argument("--vertical", choices=verticals, default=None)
    p.add_argument("--max-k", type=int, default=None, help="last day offset fitted (default: the span's)")
    add_store(p)
    add_output(p)

    p = sub.add_parser("compare", help="story overlap between two collections")
    p.add_argument("--store-a", required=True)
    p.add_argument("--store-b", required=True)
    add_output(p)

    p = sub.add_parser("report", help="render one view of a collection")
    p.add_argument("--kind", choices=["fit-curve", "page-chart", "temporal-grid"], required=True)
    p.add_argument("--format", choices=["svg"], default="svg")
    p.add_argument("--interval", default="daily", help="interval for page-chart")
    add_store(p)
    add_output(p)

    p = sub.add_parser("synth", help="generate a synthetic collection")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--pages", type=int, default=PAGES_MAX)
    p.add_argument("--per-page", type=int, default=10)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", default=None, help="JSON file with a 6x6 row-stochastic matrix")
    p.add_argument("--topic", default="synthetic")
    p.add_argument("--vertical", choices=verticals, default=Vertical.GENERAL.value)
    p.add_argument("--start", default="2024-01-01")
    add_store(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        text = globals()[f"_cmd_{args.command}"](args)  # each command runs its _cmd_<command>
        if text is not None:  # else the command wrote what it had
            _emit(text, args.output)
        return 0
    except SerpChurnError as e:
        print(f"error: {e.tag}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a bug, not bad input: keep the traceback
        import traceback

        traceback.print_exc()
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
