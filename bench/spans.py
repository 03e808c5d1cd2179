"""Spans and counts around calls into the package's public functions.

``install`` replaces each target function with a wrapper in every
``serpchurn`` module that binds it (``cli`` and ``fitting`` import names
from ``metrics``, the package root re-exports most of them), so a call is
recorded whichever name it goes through. Spans stay in memory as
``[name, start, end, parent]`` and are written out when the run ends.

A layer's self time is the sum of its spans' durations less the time their
direct child spans cover, so ``compute_report`` does not count the
``avg_interval_rate`` and ``prob_seen`` calls it makes.

This module imports nothing from ``serpchurn`` until ``install`` runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_parse(counts, args, result):
    counts["serp_io.pages"] += 1
    counts["serp_io.links"] += len(result)


def _count_loaded(counts, args, result):
    counts["store.snapshots_loaded"] += len(result.snapshots)


def _count_cells(counts, args, result):
    counts["store.timeline_cells"] += sum(len(t.observations) for t in result)


def _count_svg(counts, args, result):
    counts["render.svg_bytes"] += len(result)


def _count_points(counts, args, result):
    counts["fitting.points"] += len(args[0])


# (span name, module, attribute or Class.method, count hook)
TARGETS = (
    ("cli.main", "serpchurn.cli", "main", None),
    ("serp_io.build_snapshot", "serpchurn.serp_io", "build_snapshot", None),
    ("serp_io.parse_serp_html", "serpchurn.serp_io", "parse_serp_html", _count_parse),
    ("model.canonicalize", "serpchurn.model", "canonicalize", _count_calls("model.canonicalize_calls")),
    ("model.dedup_snapshot", "serpchurn.model", "dedup_snapshot", None),
    ("model.snapshot_to_json", "serpchurn.model", "snapshot_to_json", None),
    ("model.snapshot_from_json", "serpchurn.model", "snapshot_from_json", None),
    ("store.open_store", "serpchurn.store", "open_store", _count_loaded),
    ("store.ingest", "serpchurn.store", "CollectionStore.ingest", None),
    ("store.build_timelines", "serpchurn.store", "CollectionStore.build_timelines", _count_cells),
    ("metrics.compute_report", "serpchurn.metrics", "compute_report", None),
    ("metrics.avg_interval_rate", "serpchurn.metrics", "avg_interval_rate",
     _count_calls("metrics.avg_interval_rate_calls")),
    ("metrics.prob_seen", "serpchurn.metrics", "prob_seen", _count_calls("metrics.prob_seen_calls")),
    ("metrics.prob_seen_on_page", "serpchurn.metrics", "prob_seen_on_page", None),
    ("metrics.transition_matrix", "serpchurn.metrics", "transition_matrix", None),
    ("metrics.report_to_csv", "serpchurn.metrics", "report_to_csv", None),
    ("metrics.temporal_matrix", "serpchurn.metrics", "temporal_matrix", None),
    ("fitting.refind_points", "serpchurn.fitting", "refind_points", None),
    ("fitting.fit_exponential", "serpchurn.fitting", "fit_exponential", _count_points),
    ("render.render_temporal_grid", "serpchurn.render", "render_temporal_grid", _count_svg),
    ("render.format_rate_table", "serpchurn.render", "format_rate_table", None),
    ("render.format_prob_table", "serpchurn.render", "format_prob_table", None),
    ("render.render_fit_curve", "serpchurn.render", "render_fit_curve", None),
)

# Per-layer metrics that are times (self seconds of a span) and counts.
# ``synth.generate_s`` is timed around set-up, ``cli.import_s`` with fresh
# interpreters; neither comes from a wrapper.
TIME_METRICS = tuple(f"{name}_s" for name, *_ in TARGETS) + ("synth.generate_s", "cli.import_s")
COUNT_METRICS = (
    "cli.processes",
    "serp_io.pages",
    "serp_io.links",
    "model.canonicalize_calls",
    "store.snapshots_loaded",
    "store.disk_kb",
    "store.timeline_cells",
    "metrics.avg_interval_rate_calls",
    "metrics.prob_seen_calls",
    "render.svg_bytes",
    "fitting.points",
)


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``serpchurn`` module that binds it."""
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "serpchurn" or n.startswith("serpchurn.")]
        for name, modname, attr, count in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> Counter:
    """Seconds by span name, each span less what its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


def layer_metrics(dumps) -> dict:
    """Per-layer times and counts summed over one pass's trace dumps."""
    times: Counter = Counter()
    counts: Counter = Counter()
    for d in dumps:
        times.update(self_times(d["spans"]))
        counts.update(d["counts"])
    out = {f"{name}_s": times.get(name, 0.0) for name, *_ in TARGETS}
    out.update({key: counts.get(key, 0) for key in COUNT_METRICS})
    return out


def disk_kb(roots) -> float:
    """Size in KB of the files under the given store directories."""
    return sum(p.stat().st_size for root in roots for p in root.rglob("*") if p.is_file()) / 1024


def write(path, dumps) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(dumps, fp)
