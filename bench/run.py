"""Benchmark of serpchurn: the paper's analysis, the daily collector and the
README pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package under test is ``src/serpchurn``.
Set-up (compile the bytecode, build the workload's inputs from the seed)
runs three times and reports the median. Set-ups alternate with passes,
and whole passes go on until S seconds have gone by since the first one,
at least two of them. Each pass starts in a fresh interpreter (``worker.py``) or,
for ``readme-pipeline``, as one ``python -m serpchurn`` child per step.
The first pass's outputs are checked against an independent recomputation
(``checks.py``), and every later pass must give byte-identical outputs.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from a traced run.
A summary goes to stderr. Everything the run writes is under
``.bench_work/``; the spans of a traced run are kept there in
``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("paper-analysis", "daily-collect", "readme-pipeline")
SETUP_REPEATS = 3
MIN_PASSES = 2
README_REPEATS = 4  # pipelines per readme-pipeline pass, each in a fresh directory
IMPORT_PAIRS = 7  # fresh-interpreter pairs behind cli.import_s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(src: Path) -> dict:
    """The package under test first on the path, a fixed hash seed."""
    env = dict(os.environ)
    env.pop("SERPCHURN_STORE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def check_package(src: Path, env: dict, cwd: Path) -> None:
    """Refuse to run if a child would import another serpchurn (as C7 does)."""
    init = src / "serpchurn" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package at {init}; run from the root of a serpchurn checkout")
    probe = subprocess.run(
        [sys.executable, "-c", "import serpchurn; print(serpchurn.__file__)"],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    if probe.returncode != 0 or Path(probe.stdout.strip()).resolve() != init.resolve():
        raise BenchError(f"children import {probe.stdout.strip() or probe.stderr.strip()}, not {init}")


def run_child(cmd: list[str], env: dict, cwd: Path, **kw) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, **kw)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def worker(args: list[str], env: dict, cwd: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    if out.returncode != 0:
        raise BenchError(f"worker {args[:2]} failed:\n{out.stderr}")
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- checks of one pass's outputs -------------------------------------------


def check_paper(inp: Path, out: Path) -> list[str]:
    plains = json.loads((inp / "plain.json").read_text(encoding="utf-8"))
    errors = []
    for i, plain in enumerate(plains):
        def read(suffix):
            return (out / f"c{i}.{suffix}").read_text(encoding="utf-8")

        csv_text = read("csv")
        points = json.loads(read("points.json"))
        found = checks.check_report_csv(csv_text, plain)
        found += checks.check_prob_properties(csv_text)
        found += checks.check_transitions(json.loads(read("transitions.json")), plain)
        found += checks.check_fit(json.loads(read("fit.json")), points, plain)
        if read("curve.svg").count("<circle") != len(points):
            found.append("fit curve does not draw one dot per point")
        if read("rates.txt").count("\n") != 1 + len(checks.rate_cells(plain)):
            found.append("rate table does not have one row per rate cell")
        if read("prob.txt").count("\n") != 1 + len(checks.refind_counts(plain)):
            found.append("prob table does not have one row per day offset")
        if (out / f"c{i}.grid.json").exists():
            found += checks.check_grid(json.loads(read("grid.json"))["rects"], plain)
        errors += [f"collection {i}: {e}" for e in found]
    return errors


def check_daily(inp: Path, out: Path) -> list[str]:
    plain = json.loads((inp / "plain.json").read_text(encoding="utf-8"))
    days = json.loads((inp / "days.json").read_text(encoding="utf-8"))
    store = out / "store"
    errors = []
    for day, code, message in json.loads((out / "scrape-log.json").read_text(encoding="utf-8")):
        want = f"ingested {day}: {len(plain[day])} links\n"
        if code != 0 or message != want:
            errors.append(f"scrape {day}: exit {code}, said {message!r}, want {want!r}")
    for day, links in plain.items():
        doc = json.loads((store / "snapshots" / f"{day}.json").read_text(encoding="utf-8"))
        errors += checks.check_stored_day(doc, links)
    manifest = json.loads((store / "collection.json").read_text(encoding="utf-8"))
    errors += checks.check_manifest(manifest, days["scrape"], days["skipped"])
    return errors


def check_readme(inp: Path, outputs: dict[str, str]) -> list[str]:
    plain = json.loads((inp / "plain.json").read_text(encoding="utf-8"))
    errors = checks.check_stats(outputs["stats"], plain)
    errors += checks.check_report_csv(outputs["metrics"], plain, rates=True, probs=False)
    errors += checks.check_report_csv(outputs["prob"], plain, rates=False, probs=True)
    errors += checks.check_prob_properties(outputs["prob"])
    oracle = checks.csv_rows((inp / "oracle.csv").read_text(encoding="utf-8"))
    cli_rows = {**checks.csv_rows(outputs["metrics"]), **checks.csv_rows(outputs["prob"])}
    if cli_rows != oracle:
        errors.append("metrics and prob CSV disagree with oracle_report")
    errors += checks.check_transition_table(outputs["transitions"], plain)
    fit = json.loads(outputs["fit"])
    points = checks.refind_points(plain)
    errors += checks.check_fit(fit, points)
    if fit.get("n_points") != len(points):
        errors.append(f"fit used {fit.get('n_points')} points, want {len(points)}")
    errors += checks.check_grid(outputs["grid"].count("<rect"), plain)
    return errors


# -- passes -----------------------------------------------------------------


def readme_steps(inp: Path) -> list[tuple[str, list[str], str | None, str]]:
    """(name, argv, stdin file, stdout file) of each README pipeline step."""
    return [tuple(step) for step in json.loads((inp / "steps.json").read_text(encoding="utf-8"))]


def readme_pass(ctx: dict, out: Path, traced: bool) -> dict:
    ops, peaks, failed, dumps = [], [], 0, []
    env = dict(ctx["env"], SERPCHURN_STORE="demo")
    steps = readme_steps(ctx["inputs"])
    first_outputs = None
    start = time.perf_counter()
    for rep in range(README_REPEATS):
        cwd = out / f"run{rep}"
        cwd.mkdir()
        for n, (name, argv, stdin_name, stdout_name) in enumerate(steps):
            if traced:
                cmd = [sys.executable, str(BENCH / "launch.py"), str(cwd / f"trace{n}.json"), *argv]
            else:
                cmd = [sys.executable, "-m", "serpchurn", *argv]
            stdin = open(cwd / stdin_name, "rb") if stdin_name else subprocess.DEVNULL
            with open(cwd / stdout_name, "wb") as fout, open(cwd / f"{name}.err", "wb") as ferr:
                code, wall, peak = run_child(cmd, env, cwd, stdin=stdin, stdout=fout, stderr=ferr)
            if stdin_name:
                stdin.close()
            ops.append(wall * 1000)
            peaks.append(peak)
            failed += code != 0
        if first_outputs is None:
            first_outputs = {name: (cwd / f).read_text(encoding="utf-8") for name, _, _, f in steps}
        if traced:
            for p in sorted(cwd.glob("trace*.json")):
                dumps += json.loads(p.read_text(encoding="utf-8"))
                p.unlink()
    result = {"ops_ms": ops, "attempted": len(ops), "failed": failed,
              "wall_s": time.perf_counter() - start, "peak_rss_mb": max(peaks)}
    result["outputs"] = first_outputs
    if traced:
        result["dumps"] = dumps
        layers = spans.layer_metrics(dumps)
        layers["cli.processes"] = len(ops)
        layers["store.disk_kb"] = spans.disk_kb(out.glob("run*/demo"))
        result["layers"] = layers
    return result


def checked(check, *args) -> list[str]:
    """A check's errors; outputs it cannot even read are one more error."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return [f"{check.__name__}: outputs unreadable: {e!r}"]


def run_pass(ctx: dict, traced: bool) -> tuple[dict, list[str], str]:
    """One pass in a clean directory: (result, check errors, output digest)."""
    out = ctx["work"] / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    inp, workload = ctx["inputs"], ctx["workload"]
    try:
        if workload == "readme-pipeline":
            result = readme_pass(ctx, out, traced)
            outputs = result.pop("outputs")
            errors = checked(check_readme, inp, outputs) if not ctx["checked"] else []
            for rep in range(1, README_REPEATS):
                if digest(out / f"run{rep}" / "demo") != digest(out / "run0" / "demo") or any(
                    (out / f"run{rep}" / f).read_bytes() != outputs[name].encode()
                    for name, _, _, f in readme_steps(inp)
                ):
                    errors.append(f"pipeline repeat {rep} differs from the first")
            fingerprint = hashlib.sha256("".join(outputs.values()).encode()).hexdigest()
        else:
            trace_file = out / "trace.json"
            args = ["pass", workload, str(inp), str(out)] + ([str(trace_file)] if traced else [])
            result = worker(args, ctx["env"], ctx["work"])
            if traced:
                result["dumps"] = json.loads(trace_file.read_text(encoding="utf-8"))
                trace_file.unlink()
            check = check_paper if workload == "paper-analysis" else check_daily
            errors = checked(check, inp, out) if not ctx["checked"] else []
            fingerprint = digest(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ctx["checked"] = True
    return result, errors, fingerprint


def import_seconds(env: dict, cwd: Path) -> float:
    """Fresh ``import serpchurn.cli`` less a bare interpreter, median of pairs."""
    diffs = []
    for _ in range(IMPORT_PAIRS):
        _, full, _ = run_child([sys.executable, "-c", "import serpchurn.cli"], env, cwd)
        _, bare, _ = run_child([sys.executable, "-c", "pass"], env, cwd)
        diffs.append(full - bare)
    return statistics.median(diffs)


def set_up(workload: str, seed: int, src: Path, env: dict, target: Path) -> tuple[float, float]:
    """Compile the package's bytecode and build the inputs into target:
    (wall seconds, seconds inside synth.generate)."""
    t0 = time.perf_counter()
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-f", "-q", "-l", str(src / "serpchurn"), str(BENCH)],
        env=env, cwd=target.parent, capture_output=True, text=True,
    )
    if compiled.returncode != 0:
        raise BenchError(f"bytecode compilation failed:\n{compiled.stdout}{compiled.stderr}")
    info = worker(["setup", workload, str(seed), str(target)], env, target.parent)
    return time.perf_counter() - t0, info["synth_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    work = root / ".bench_work" / args.workload
    env = child_env(src)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_package(src, env, work)

    # set-ups alternate with passes (S P S P S, then passes until the time is
    # up), so that both sample the machine's speed over the whole run
    setup_s, synth_s, passes, errors, fingerprints = [], [], [], [], set()
    ctx = {"workload": args.workload, "env": env, "work": work, "checked": False}
    start = None
    while len(setup_s) < SETUP_REPEATS or len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if len(setup_s) < SETUP_REPEATS and len(setup_s) <= len(passes):
            target = work / f"input{len(setup_s)}"
            seconds, synth = set_up(args.workload, args.seed, src, env, target)
            setup_s.append(seconds)
            synth_s.append(synth)
            if "inputs" in ctx:
                shutil.rmtree(ctx["inputs"])
            ctx["inputs"] = target
            continue
        if start is None:
            start = time.perf_counter()
        result, pass_errors, fingerprint = run_pass(ctx, bool(args.trace))
        passes.append(result)
        errors += pass_errors
        fingerprints.add(fingerprint)
    if len(fingerprints) != 1:
        errors.append("outputs differ between passes")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    ops = [ms for p in passes for ms in p["ops_ms"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    walls = [p["wall_s"] for p in passes]
    print(
        f"{args.workload}: {len(passes)} passes, wall_s {[round(w, 3) for w in walls]}, "
        f"setup_s {[round(s, 3) for s in setup_s]}",
        file=sys.stderr,
    )
    if args.trace:
        metrics = {}
        for name in spans.TIME_METRICS:
            if name == "synth.generate_s":
                value = statistics.median(synth_s)
            elif name == "cli.import_s":
                value = import_seconds(env, work)
            else:
                value = statistics.median(p["layers"][name] for p in passes)
            metrics[name] = {"value": value, "unit": "s"}
        for name in spans.COUNT_METRICS:
            values = {p["layers"][name] for p in passes}
            if len(values) != 1:
                print(f"count {name} differs between passes: {sorted(values)}", file=sys.stderr)
            metrics[name] = {"value": passes[0]["layers"][name], "unit": "KB" if name.endswith("_kb") else "count"}
        spans.write(root / ".bench_work" / f"trace-{args.workload}.json", [d for p in passes for d in p["dumps"]])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(ops), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
