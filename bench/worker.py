"""One set-up or one pass of an in-process workload, in a fresh interpreter.

    python bench/worker.py setup WORKLOAD SEED INPUT_DIR
    python bench/worker.py pass WORKLOAD INPUT_DIR PASS_DIR [TRACE_FILE]

``run.py`` starts one of these per set-up and per pass, so a pass's peak
RSS holds none of set-up's allocations. A pass writes the program's
outputs under PASS_DIR for the checks and prints one JSON line: the
latency of each operation, the failures, the pass's wall time and peak
RSS, and with a trace file its per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import inputs
import spans


def paper_pass(inp: Path, out: Path) -> dict:
    """Analyse each collection the way the CLI's commands do, through the API."""
    from serpchurn import fitting, metrics, render, store

    ops, failed = [], 0
    for i in range(inputs.PAPER_QUERIES):
        t0 = time.perf_counter()
        try:
            st = store.open_store(inp / "stores" / f"c{i}")
            report = metrics.compute_report(st)
            csv_text = metrics.report_to_csv(report)
            rate_table = render.format_rate_table(report)
            prob_table = render.format_prob_table(report)
            timelines = st.build_timelines()
            est = metrics.transition_matrix(timelines)
            _, _, span = st.collection_stats()
            points = fitting.refind_points(timelines, span - 1)
            model = fitting.fit_exponential(points)
            model_text = fitting.model_doc(model, st.manifest.vertical, len(points), max(st.snapshots))
            curve = render.render_fit_curve([(float(k), p) for k, p in points], model)
            grid = None
            if i == inputs.GRID_COLLECTION:
                matrix = metrics.temporal_matrix(
                    timelines, start=min(st.snapshots), days=span, gaps=st.manifest.gaps
                )
                grid = render.render_temporal_grid(matrix)
                del matrix
        except Exception:  # one collection failing must not hide the others
            print(f"collection {i} failed:", file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        ops.append((time.perf_counter() - t0) * 1000)
        files = {
            "csv": csv_text,
            "rates.txt": rate_table,
            "prob.txt": prob_table,
            "fit.json": model_text,
            "points.json": json.dumps(points),
            "transitions.json": json.dumps(est.counts),
            "curve.svg": curve,
        }
        if grid is not None:
            files["grid.json"] = json.dumps(
                {"rects": grid.count("<rect"), "sha256": hashlib.sha256(grid.encode()).hexdigest()}
            )
            del grid
        for suffix, text in files.items():
            (out / f"c{i}.{suffix}").write_text(text, encoding="utf-8")
    return {"ops_ms": ops, "attempted": inputs.PAPER_QUERIES, "failed": failed, "wall_s": sum(ops) / 1000,
            "stores": inp / "stores"}


def daily_pass(inp: Path, out: Path) -> dict:
    """Scrape one day at a time into a fresh store, as a daily cron job would."""
    from serpchurn import cli

    days = json.loads((inp / "days.json").read_text(encoding="utf-8"))["scrape"]
    fixture, store = str(inp / "fixture"), str(out / "store")
    ops, failed, log = [], 0, []
    start = time.perf_counter()
    for day in days:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([
                    "scrape", "--query", inputs.DAILY_QUERY, "--fixture", fixture,
                    "--date", day, "--delay", "0", "--store", store,
                ])
            except Exception:  # a crash is one failed scrape, not the end of the pass
                traceback.print_exc()
                code = -1
        ops.append((time.perf_counter() - t0) * 1000)
        failed += code != 0
        log.append([day, code, err.getvalue()])
    wall = time.perf_counter() - start
    (out / "scrape-log.json").write_text(json.dumps(log), encoding="utf-8")
    return {"ops_ms": ops, "attempted": len(days), "failed": failed, "wall_s": wall, "stores": out / "store"}


PASSES = {"paper-analysis": paper_pass, "daily-collect": daily_pass}


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        workload, seed, root = argv[1], int(argv[2]), Path(argv[3])
        root.mkdir(parents=True)
        print(json.dumps({"synth_s": inputs.MAKE_INPUTS[workload](root, seed)}))
        return 0
    workload, inp, out = argv[1], Path(argv[2]), Path(argv[3])
    trace_file = argv[4] if len(argv) > 4 else None
    tracer = None
    if trace_file:
        tracer = spans.Tracer()
        tracer.install()
    result = PASSES[workload](inp, out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stores = result.pop("stores")
    if tracer is not None:
        dump = tracer.dump()
        result["layers"] = spans.layer_metrics([dump])
        result["layers"]["store.disk_kb"] = spans.disk_kb([stores])
        spans.write(trace_file, [dump])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
