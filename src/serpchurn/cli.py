"""Command-line interface.

One subcommand per pipeline stage: scrape pages into snapshots, ingest
snapshot documents, then read stats, timelines, metrics, probabilities,
transitions, fitted models, comparisons and rendered reports back out.
``--store`` points at a collection directory; ``-`` streams snapshot
documents over stdin/stdout instead (one compact JSON doc per line).

Exit codes: 0 success, 1 transport failure, 2 usage or validation
error, 3 missing store or fixture, 4 not enough data, 5 rate limited,
6 unparseable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path

from .errors import (
    FixtureNotFound,
    InsufficientDataError,
    RateLimited,
    SerpChurnError,
    SerpParseError,
    StoreMismatchError,
    StoreMissingError,
    TransportError,
    UriParseError,
    ValidationError,
)
from .fitting import (
    algebraic_form,
    fit_exponential,
    model_doc,
    refind_points,
)
from .metrics import (
    IntervalSpec,
    RateKind,
    avg_interval_rate,
    compute_rates,
    compute_refind,
    overlap,
    recall,
    report_to_csv,
    temporal_matrix,
    transition_matrix,
)
from .model import Vertical, snapshot_from_json, snapshot_to_json
from .render import (
    format_compare,
    format_prob_table,
    format_rate_table,
    format_timelines,
    format_transitions,
    render_fit_curve,
    render_page_rate_bars,
    render_temporal_grid,
)
from .serp_io import DEFAULT_DELAY, FetchPlan, build_snapshot
from .store import (
    CollectionStore,
    dump_snapshot_stream,
    open_store,
    store_from_stream,
)
from .synth import SynthParams, generate, iter_snapshots, validate_kernel

STORE_ENV = "SERPCHURN_STORE"

_EXIT_TAGS: list[tuple[type, int, str]] = [
    (RateLimited, 5, "rate-limited"),
    (StoreMissingError, 3, "store-missing"),
    (FixtureNotFound, 3, "fixture-missing"),
    (InsufficientDataError, 4, "insufficient-data"),
    (UriParseError, 6, "uri-parse"),
    (SerpParseError, 6, "serp-parse"),
    (StoreMismatchError, 2, "store-mismatch"),
    (ValidationError, 2, "validation"),
    (TransportError, 1, "transport"),
]


def _store_arg(value: str | None) -> str:
    resolved = value or os.environ.get(STORE_ENV)
    if not resolved:
        raise ValidationError(f"--store is required (or set {STORE_ENV})")
    return resolved


def _load_store(arg: str) -> CollectionStore:
    if arg == "-":
        return store_from_stream(sys.stdin)
    return open_store(Path(arg))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommand bodies --------------------------------------------------


def _cmd_scrape(args) -> int:
    date_range = None
    if args.date_start or args.date_end:
        if not (args.date_start and args.date_end):
            raise ValidationError("--date-start and --date-end go together")
        date_range = (date.fromisoformat(args.date_start), date.fromisoformat(args.date_end))
    plan = FetchPlan(
        query=args.query,
        vertical=Vertical.from_wire(args.vertical),
        pages=args.pages,
        date_range=date_range,
        politeness_delay=args.delay,
        fixture_dir=Path(args.fixture) if args.fixture else None,
    )
    day = date.fromisoformat(args.date) if args.date else date.today()
    snapshot = build_snapshot(plan, day)
    store_arg = _store_arg(args.store)
    if store_arg == "-":
        sys.stdout.write(snapshot_to_json(snapshot, compact=True) + "\n")
        return 0
    root = Path(store_arg)
    try:
        store = open_store(root)
    except StoreMissingError:
        store = CollectionStore.create(args.query, plan.vertical, root=root)
    store.ingest(snapshot)
    print(
        f"ingested {snapshot.date.isoformat()}: {len(snapshot.results)} links",
        file=sys.stderr,
    )
    return 0


def _cmd_ingest(args) -> int:
    docs = []
    for name in args.files:
        if name == "-":
            docs.extend(
                snapshot_from_json(line) for line in sys.stdin if line.strip()
            )
        else:
            path = Path(name)
            if not path.is_file():
                raise StoreMissingError(f"no snapshot file at {path}")
            docs.append(snapshot_from_json(path.read_text(encoding="utf-8")))
    if not docs:
        raise InsufficientDataError("nothing to ingest")
    store_arg = _store_arg(args.store)
    if store_arg == "-":
        dump_snapshot_stream(docs, sys.stdout)
        return 0
    root = Path(store_arg)
    try:
        store = open_store(root)
    except StoreMissingError:
        store = CollectionStore.create(docs[0].query, docs[0].vertical, root=root)
    for snap in docs:
        store.ingest(snap)
    print(f"ingested {len(docs)} snapshot(s)", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    store = _load_store(_store_arg(args.store))
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
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_timelines(args) -> int:
    store = _load_store(_store_arg(args.store))
    _emit(format_timelines(store.build_timelines()), args.output)
    return 0


def _parse_intervals(text: str) -> list[int]:
    return [IntervalSpec.from_name(part).days for part in text.split(",") if part]


def _cmd_metrics(args) -> int:
    store = _load_store(_store_arg(args.store))
    report = compute_rates(store, intervals=_parse_intervals(args.intervals))
    if args.format == "csv":
        _emit(report_to_csv(report), args.output)
    else:
        _emit(format_rate_table(report), args.output)
    return 0


def _cmd_prob(args) -> int:
    store = _load_store(_store_arg(args.store))
    report = compute_refind(store)
    if args.format == "csv":
        _emit(report_to_csv(report), args.output)
    else:
        _emit(format_prob_table(report), args.output)
    return 0


def _cmd_transitions(args) -> int:
    store = _load_store(_store_arg(args.store))
    est = transition_matrix(store.build_timelines())
    if args.counts:
        rows = [" ".join(str(c) for c in row) for row in est.counts]
        _emit("\n".join(rows) + "\n", args.output)
    else:
        _emit(format_transitions(est), args.output)
    return 0


def _cmd_fit(args) -> int:
    store = _load_store(_store_arg(args.store))
    if args.vertical and Vertical.from_wire(args.vertical) is not store.manifest.vertical:
        raise StoreMismatchError(
            f"store holds the {store.manifest.vertical.value} vertical, "
            f"not {args.vertical}"
        )
    timelines = store.build_timelines()
    _, _, span = store.collection_stats()
    max_k = args.max_k if args.max_k is not None else span - 1
    points = refind_points(timelines, max_k)
    model = fit_exponential(points)
    doc = model_doc(
        model, store.manifest.vertical, len(points), max(store.snapshots)
    )
    _emit(doc, args.output)
    print(algebraic_form(model), file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    store_a = open_store(Path(args.store_a))
    store_b = open_store(Path(args.store_b))
    set_a = {
        r.canonical_uri for s in store_a.snapshots.values() for r in s.results
    }
    set_b = {
        r.canonical_uri for s in store_b.snapshots.values() for r in s.results
    }
    label_a = store_a.manifest.vertical.value
    label_b = store_b.manifest.vertical.value
    if label_a == label_b:
        label_a, label_b = "a", "b"
    _emit(
        format_compare(
            label_a,
            label_b,
            len(set_a),
            len(set_b),
            len(set_a & set_b),
            overlap(set_a, set_b),
            recall(set_a, set_b),
            recall(set_b, set_a),
        ),
        args.output,
    )
    return 0


_REPORT_FORMATS = {
    "rates-table": ("text", "csv"),
    "prob-table": ("text", "csv"),
    "page-chart": ("svg",),
    "temporal-grid": ("svg",),
    "fit-curve": ("svg",),
}


def _cmd_report(args) -> int:
    allowed = _REPORT_FORMATS[args.kind]
    if args.format not in allowed:
        raise ValidationError(
            f"kind {args.kind} supports format(s): {', '.join(allowed)}"
        )
    store = _load_store(_store_arg(args.store))
    if args.kind == "rates-table":
        report = compute_rates(store)
        text = report_to_csv(report) if args.format == "csv" else format_rate_table(report)
    elif args.kind == "prob-table":
        report = compute_refind(store)
        text = report_to_csv(report) if args.format == "csv" else format_prob_table(report)
    elif args.kind == "page-chart":
        spec = IntervalSpec.from_name(args.interval)
        rates = []
        for page in range(1, 6):
            try:
                mean, _ = avg_interval_rate(store, spec, RateKind.REPLACEMENT, page)
            except InsufficientDataError:
                continue
            rates.append((page, float(mean)))
        if not rates:
            raise InsufficientDataError("no page has enough data to chart")
        text = render_page_rate_bars(rates)
    elif args.kind == "temporal-grid":
        timelines = store.build_timelines()
        _, _, span = store.collection_stats()
        matrix = temporal_matrix(
            timelines,
            start=min(store.snapshots),
            days=span,
            gaps=store.manifest.gaps,
        )
        text = render_temporal_grid(matrix)
    else:  # fit-curve
        timelines = store.build_timelines()
        _, _, span = store.collection_stats()
        points = refind_points(timelines, span - 1)
        model = fit_exponential(points)
        text = render_fit_curve([(float(k), p) for k, p in points], model)
    _emit(text, args.output)
    return 0


def _cmd_synth(args) -> int:
    kernel = None
    if args.kernel:
        raw = json.loads(Path(args.kernel).read_text(encoding="utf-8"))
        kernel = tuple(tuple(float(x) for x in row) for row in raw)
        validate_kernel(kernel)
    params = SynthParams(
        days=args.days,
        pages=args.pages,
        per_page=args.per_page,
        replacement_rate=args.rate,
        transition_kernel=kernel,
        seed=args.seed,
        topic=args.topic,
        vertical=Vertical.from_wire(args.vertical),
        start=date.fromisoformat(args.start),
    )
    store_arg = _store_arg(args.store)
    if store_arg == "-":
        dump_snapshot_stream(iter_snapshots(params), sys.stdout)
        return 0
    generate(params, root=Path(store_arg))
    print(f"generated {args.days} day(s) into {store_arg}", file=sys.stderr)
    return 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serpchurn",
        description="Track story URIs across result pages over time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p, flag="--store"):
        p.add_argument(
            flag,
            default=None,
            help=f"collection directory, or - for stdio streaming "
            f"(default: ${STORE_ENV})",
        )

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write here, not stdout")

    p = sub.add_parser("scrape", help="fetch one day of result pages")
    p.add_argument("--query", required=True)
    p.add_argument("--vertical", choices=["general", "news"], default="general")
    p.add_argument("--pages", type=int, default=5)
    p.add_argument("--fixture", default=None, help="replay saved pages from this dir")
    p.add_argument("--delay", type=float, default=DEFAULT_DELAY)
    p.add_argument("--date", default=None, help="snapshot date (default today)")
    p.add_argument("--date-start", default=None, help="restrict results from")
    p.add_argument("--date-end", default=None, help="restrict results to")
    add_store(p)
    p.set_defaults(func=_cmd_scrape)

    p = sub.add_parser("ingest", help="add snapshot documents to a collection")
    p.add_argument("files", nargs="+", help="snapshot JSON files, or - for stdin")
    add_store(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="collection totals")
    add_store(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("timelines", help="per-story page observations")
    add_store(p)
    add_output(p)
    p.set_defaults(func=_cmd_timelines)

    p = sub.add_parser("metrics", help="replacement and new-story rates")
    p.add_argument("--intervals", default="daily,weekly,monthly")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    add_store(p)
    add_output(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("prob", help="probability of refinding by day offset")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    add_store(p)
    add_output(p)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("transitions", help="day-to-day page movement")
    p.add_argument("--counts", action="store_true", help="raw counts, not rates")
    add_store(p)
    add_output(p)
    p.set_defaults(func=_cmd_transitions)

    p = sub.add_parser("fit", help="fit the refind decay model")
    p.add_argument("--vertical", choices=["general", "news"], default=None)
    p.add_argument("--max-k", type=int, default=None)
    add_store(p)
    add_output(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="story overlap between two collections")
    p.add_argument("--store-a", required=True)
    p.add_argument("--store-b", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="render one view of a collection")
    p.add_argument("--kind", choices=sorted(_REPORT_FORMATS), required=True)
    p.add_argument("--format", choices=["text", "csv", "svg"], default="text")
    p.add_argument("--interval", default="daily", help="interval for page-chart")
    add_store(p)
    add_output(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic collection")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--pages", type=int, default=5)
    p.add_argument("--per-page", type=int, default=10)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", default=None, help="JSON file with a 6x6 row-stochastic matrix")
    p.add_argument("--topic", default="synthetic")
    p.add_argument("--vertical", choices=["general", "news"], default="general")
    p.add_argument("--start", default="2024-01-01")
    add_store(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except SerpChurnError as e:
        for klass, code, tag in _EXIT_TAGS:
            if isinstance(e, klass):
                print(f"error: {tag}: {e}", file=sys.stderr)
                return code
        print(f"error: internal: {e}", file=sys.stderr)
        return 1
    except (ValueError, json.JSONDecodeError) as e:
        print(f"error: validation: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
