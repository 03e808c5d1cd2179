import argparse
import io
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import date
from pathlib import Path

import pytest

import serpchurn
from serpchurn import cli, errors
from serpchurn.cli import main
from serpchurn.errors import SerpParseError
from serpchurn.metrics import compute_rates, report_to_csv
from serpchurn.model import SerpSnapshot, StoryTimeline, Vertical, results_from_links, snapshot_to_json
from serpchurn.store import open_store
from serpchurn.synth import SynthParams, generate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def synth_store(tmp_path):
    root = tmp_path / "col"
    assert (
        main(
            [
                "synth",
                "--days",
                "8",
                "--pages",
                "2",
                "--per-page",
                "4",
                "--rate",
                "0.4",
                "--seed",
                "12",
                "--store",
                str(root),
            ]
        )
        == 0
    )
    return root


@pytest.fixture
def harvey_store(tmp_path, serp_root):
    """Scrape both fixture days into a store on disk."""
    root = tmp_path / "harvey"
    for day in ("2017-09-07", "2017-09-08"):
        code = main(
            [
                "scrape",
                "--query",
                "hurricane harvey",
                "--fixture",
                str(serp_root),
                "--delay",
                "0",
                "--date",
                day,
                "--store",
                str(root),
            ]
        )
        assert code == 0
    return root


# every error class, its exit code and its tag, subclasses included
EXIT_CODES = [
    (errors.UriParseError("x"), 6, "uri-parse"),
    (errors.SerpParseError("m"), 6, "serp-parse"),
    (errors.RateLimited("m"), 5, "rate-limited"),
    (errors.TransportError("m"), 1, "transport"),
    (errors.FixtureNotFound("m"), 3, "fixture-missing"),
    (errors.StoreMissingError("m"), 3, "store-missing"),
    (errors.StoreMismatchError("m"), 2, "store-mismatch"),
    (errors.InsufficientDataError("m"), 4, "insufficient-data"),
    (errors.UndefinedRateError("m"), 4, "insufficient-data"),
    (errors.UnderdeterminedFitError("m"), 4, "insufficient-data"),
    (errors.ValidationError("m"), 2, "validation"),
    (errors.SerpChurnError("m"), 1, "internal"),
]


class TestExitCodes:
    def test_missing_store_is_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--store", str(tmp_path / "nope"))
        assert code == 3
        assert err.startswith("error: store-missing:")

    def test_missing_fixture_is_3(self, capsys, tmp_path, serp_root):
        code, _, err = run(
            capsys,
            "scrape",
            "--query",
            "no such topic",
            "--fixture",
            str(serp_root),
            "--delay",
            "0",
            "--date",
            "2017-09-07",
            "--store",
            str(tmp_path / "x"),
        )
        assert code == 3
        assert "fixture-missing" in err

    def test_insufficient_data_is_4(self, capsys, tmp_path):
        root = tmp_path / "one"
        main(["synth", "--days", "1", "--store", str(root)])
        code, _, err = run(capsys, "transitions", "--store", str(root))
        assert code == 4
        assert "insufficient-data" in err

    def test_underdetermined_fit_is_4(self, capsys, tmp_path):
        root = tmp_path / "short"
        main(["synth", "--days", "3", "--store", str(root)])
        code, _, err = run(capsys, "fit", "--store", str(root))
        assert code == 4

    def test_rate_limited_scrape_is_5(self, capsys, tmp_path, serp_root):
        code, _, err = run(
            capsys,
            "scrape",
            "--query",
            "hurricane harvey",
            "--fixture",
            str(serp_root),
            "--delay",
            "0",
            "--pages",
            "1",
            "--date",
            "2017-09-09",
            "--store",
            str(tmp_path / "x"),
        )
        assert code == 5
        assert err.startswith("error: rate-limited:")

    def test_unparseable_snapshot_is_6(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"query": "q"}', encoding="utf-8")
        code, _, err = run(
            capsys, "ingest", str(bad), "--store", str(tmp_path / "col")
        )
        assert code == 6
        assert "serp-parse" in err

    def test_usage_error_is_2(self, capsys):
        assert main([]) == 2
        assert main(["no-such-command"]) == 2

    def test_store_mismatch_is_2(self, capsys, tmp_path, serp_root):
        root = tmp_path / "col"
        main(["synth", "--days", "1", "--topic", "other", "--store", str(root)])
        code, _, err = run(
            capsys,
            "scrape",
            "--query",
            "hurricane harvey",
            "--fixture",
            str(serp_root),
            "--delay",
            "0",
            "--date",
            "2017-09-07",
            "--store",
            str(root),
        )
        assert code == 2
        assert "store-mismatch" in err

    def test_missing_store_flag_is_2(self, capsys, monkeypatch):
        monkeypatch.delenv("SERPCHURN_STORE", raising=False)
        code, _, err = run(capsys, "stats")
        assert code == 2
        assert "SERPCHURN_STORE" in err

    @pytest.mark.parametrize(
        "error, code, tag",
        EXIT_CODES,
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
    )
    def test_each_error_class_exits_with_its_code_and_tag(
        self, capsys, monkeypatch, error, code, tag
    ):
        def fail(args):
            raise error

        monkeypatch.setattr("serpchurn.cli._cmd_stats", fail)
        assert run(capsys, "stats", "--store", "unused") == (code, "", f"error: {tag}: {error}\n")

    def test_every_error_class_is_pinned(self):
        classes, todo = set(), [errors.SerpChurnError]
        while todo:
            classes.add(todo[-1])
            todo.extend(todo.pop().__subclasses__())
        assert {type(error) for error, _, _ in EXIT_CODES} == classes

    def test_bad_report_combo_is_2(self, capsys, synth_store):
        code, _, err = run(
            capsys,
            "report",
            "--kind",
            "temporal-grid",
            "--format",
            "csv",
            "--store",
            str(synth_store),
        )
        assert code == 2


def test_store_flag_from_environment(capsys, monkeypatch, synth_store):
    monkeypatch.setenv("SERPCHURN_STORE", str(synth_store))
    code, out, _ = run(capsys, "stats")
    assert code == 0
    assert "snapshots:  8" in out


def test_scraped_fixture_collection(capsys, harvey_store):
    code, out, _ = run(capsys, "stats", "--store", str(harvey_store))
    assert code == 0
    assert "links:      99" in out
    assert "stories:    62" in out
    assert "vertical:   general" in out


def test_stats_counts_the_stores_stories(capsys, harvey_store):
    _, out, _ = run(capsys, "stats", "--store", str(harvey_store))
    assert f"stories:    {len(open_store(harvey_store).stories())}\n" in out


def test_a_block_marker_beside_result_links_is_scraped(capsys, tmp_path, serp_root, headline_marker_root):
    stored = []
    for i, pages in enumerate((serp_root, headline_marker_root)):
        root = tmp_path / f"col{i}"
        code, out, err = run(
            capsys, "scrape", "--query", "hurricane harvey", "--fixture", str(pages),
            "--delay", "0", "--date", "2017-09-07", "--store", str(root),
        )
        assert (code, out, err) == (0, "", "ingested 2017-09-07: 50 links\n")
        stored.append((root / "snapshots" / "2017-09-07.json").read_bytes())
    assert stored[0] == stored[1]


def test_metrics_csv_contains_exact_daily_rate(capsys, harvey_store):
    code, out, _ = run(
        capsys, "metrics", "--format", "csv", "--store", str(harvey_store)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "metric,vertical,interval,page,value,n"
    assert "replacement_rate,general,1,,0.26,1" in lines
    assert "new_story_rate,general,1,4,%r,1" % (2 / 9) in lines


def test_metrics_by_default_prints_the_library_default_rates(capsys, tmp_path):
    """The CLI's default intervals are the library's, so a monthly row shows."""
    store = generate(SynthParams(days=32, pages=2, per_page=3, replacement_rate=0.3, seed=4), root=tmp_path / "s")
    code, out, _ = run(capsys, "metrics", "--format", "csv", "--store", str(tmp_path / "s"))
    assert (code, out) == (0, report_to_csv(compute_rates(store)))
    assert ",30,," in out


def test_metrics_output_is_deterministic(capsys, harvey_store):
    _, first, _ = run(capsys, "metrics", "--format", "csv", "--store", str(harvey_store))
    _, second, _ = run(capsys, "metrics", "--format", "csv", "--store", str(harvey_store))
    assert first == second


def test_timelines_listing(capsys, harvey_store):
    code, out, _ = run(capsys, "timelines", "--store", str(harvey_store))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 62
    assert any("{1, 1}" in line for line in lines)


def test_transitions_counts_grid(capsys, harvey_store):
    code, out, _ = run(capsys, "transitions", "--counts", "--store", str(harvey_store))
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 6 and all(len(r) == 6 for r in rows)
    total = sum(int(x) for row in rows for x in row)
    assert total == 50


def test_fit_model_document(capsys, synth_store):
    code, out, err = run(capsys, "fit", "--store", str(synth_store))
    assert code == 0
    doc = json.loads(out)
    assert doc["vertical"] == "general"
    assert 0 <= doc["a"] <= 1 and doc["n_points"] == 8
    assert doc["fitted_at"] == "2024-01-08"
    assert "P(k) =" in err

    code, _, err = run(
        capsys, "fit", "--vertical", "news", "--store", str(synth_store)
    )
    assert code == 2
    assert "store-mismatch" in err


@pytest.mark.parametrize(
    "max_k, code, err",
    [
        ("-1", 2, "error: validation: --max-k must be >= 0, got -1\n"),
        ("2", 4, "error: insufficient-data: need at least 4 points, got 3\n"),
    ],
    ids=["negative", "three-points"],
)
def test_fit_max_k_too_small_exits(capsys, synth_store, max_k, code, err):
    capsys.readouterr()
    assert run(capsys, "fit", "--max-k", max_k, "--store", str(synth_store)) == (code, "", err)


def test_prob_table(capsys, synth_store):
    code, out, _ = run(capsys, "prob", "--store", str(synth_store))
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["k", "P(seen)"]
    code, out, _ = run(capsys, "prob", "--format", "csv", "--store", str(synth_store))
    assert code == 0
    assert all(
        line.startswith("prob_seen,") for line in out.splitlines()[1:] if line
    )


def test_fit_curve_draws_the_fitted_points(capsys, synth_store):
    store = ("--store", str(synth_store))
    code, doc, _ = run(capsys, "fit", *store)
    assert code == 0
    code, svg, _ = run(capsys, "report", "--kind", "fit-curve", "--format", "svg", *store)
    assert code == 0
    assert svg.count("<circle") == json.loads(doc)["n_points"]


def test_report_svg_kinds(capsys, synth_store):
    for kind in ("temporal-grid", "page-chart", "fit-curve"):
        code, out, _ = run(
            capsys,
            "report",
            "--kind",
            kind,
            "--format",
            "svg",
            "--store",
            str(synth_store),
        )
        assert code == 0, kind
        assert out.startswith("<svg"), kind
        assert out.strip().endswith("</svg>")


def test_report_tables(capsys, harvey_store):
    code, out, _ = run(capsys, "metrics", "--store", str(harvey_store))
    assert code == 0
    assert "replacement_rate" in out
    code, out, _ = run(capsys, "prob", "--format", "csv", "--store", str(harvey_store))
    assert code == 0
    assert out.startswith("metric,vertical,interval,page,value,n")


@pytest.mark.parametrize("kind", ["rates-table", "prob-table"])
def test_a_table_is_no_report_kind(capsys, synth_store, kind):
    code, out, err = run(capsys, "report", "--kind", kind, "--store", str(synth_store))
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_report_draws_svg_by_default(capsys, synth_store):
    store = ("--store", str(synth_store))
    code, svg, _ = run(capsys, "report", "--kind", "temporal-grid", "--format", "svg", *store)
    assert code == 0 and svg.startswith("<svg")
    assert run(capsys, "report", "--kind", "temporal-grid", *store) == (0, svg, "")


@pytest.mark.parametrize("intervals", [",", ""], ids=["comma", "empty"])
def test_an_empty_interval_list_is_a_usage_error(capsys, synth_store, intervals):
    capsys.readouterr()
    code, out, err = run(capsys, "metrics", "--intervals", intervals, "--store", str(synth_store))
    assert code == 2
    assert out == ""
    assert err == "error: validation: --intervals names no interval\n"


@pytest.mark.parametrize(
    "command",
    [["metrics", "--intervals"], ["report", "--kind", "page-chart", "--interval"]],
    ids=["metrics", "page-chart"],
)
def test_an_interval_count_is_ascii_digits(capsys, synth_store, command):
    capsys.readouterr()
    store = ("--store", str(synth_store))
    weekly = run(capsys, *command, "weekly", *store)
    assert weekly[0] == 0
    for same in ("7", "7d", "7D", " 7 ", " Weekly"):
        assert run(capsys, *command, same, *store) == weekly
    for bad in ("7ddd", "+7", "\u0667d", "\u0663", "1_0"):
        assert run(capsys, *command, bad, *store) == (
            2, "", f"error: validation: unknown interval {bad!r}\n"
        )


@pytest.mark.parametrize(
    "argv, got",
    [
        (["metrics", "--intervals", "0"], "0"),
        (["metrics", "--intervals=-7d"], "-7"),
        (["report", "--kind", "page-chart", "--interval", "0"], "0"),
        # past int()'s 4,300-digit limit, which formatting the count would meet again
        (["metrics", f"--intervals=-{'9' * 5000}"], "a negative count of 5000 digits"),
    ],
    ids=["metrics-0", "metrics-minus-7d", "page-chart-0", "metrics-minus-5000-digits"],
)
def test_a_lag_under_one_day_is_a_validation_error(capsys, synth_store, argv, got):
    capsys.readouterr()
    assert run(capsys, *argv, "--store", str(synth_store)) == (
        2, "", f"error: validation: interval must be >= 1 day, got {got}\n"
    )


def test_every_interval_is_parsed_before_any_is_checked(capsys, synth_store):
    capsys.readouterr()
    assert run(capsys, "metrics", "--intervals", "0,abc", "--store", str(synth_store)) == (
        2, "", "error: validation: unknown interval 'abc'\n"
    )


@pytest.mark.parametrize("days", ["400", "3000000", "999999999", "1000000000"])
def test_an_interval_longer_than_the_store_has_no_pair(capsys, synth_store, days):
    capsys.readouterr()
    store = ("--store", str(synth_store))
    code, out, err = run(capsys, "metrics", "--intervals", days, *store)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["metric             interval page     mean      n"]
    assert run(capsys, "report", "--kind", "page-chart", "--interval", days, *store) == (
        4, "", "error: insufficient-data: no page has enough data to chart\n"
    )


# past any index-sized integer, and past int()'s 4,300-digit limit
HUGE = pytest.mark.parametrize("huge", ["99999999999999999999", "9" * 5000], ids=["20-digits", "5000-digits"])


@HUGE
def test_metrics_at_a_huge_interval_lists_no_rate(capsys, synth_store, huge):
    capsys.readouterr()
    assert run(capsys, "metrics", "--intervals", huge, "--store", str(synth_store)) == (
        0, "metric             interval page     mean      n\n", ""
    )


@HUGE
def test_a_page_chart_at_a_huge_interval_has_no_data(capsys, synth_store, huge):
    capsys.readouterr()
    assert run(capsys, "report", "--kind", "page-chart", "--interval", huge, "--store", str(synth_store)) == (
        4, "", "error: insufficient-data: no page has enough data to chart\n"
    )


def test_a_store_with_no_snapshots_has_no_rates(capsys, tmp_path):
    root = tmp_path / "emptied"
    assert main(["synth", "--days", "3", "--store", str(root)]) == 0
    for path in (root / "snapshots").iterdir():
        path.unlink()
    capsys.readouterr()
    for command in (["metrics"], ["report", "--kind", "page-chart"]):
        assert run(capsys, *command, "--store", str(root)) == (
            4, "", "error: insufficient-data: store holds no snapshots\n"
        )


def test_an_interval_ending_past_date_max_is_skipped(capsys, monkeypatch):
    assert main(["synth", "--days", "12", "--start", "9999-12-20", "--store", "-"]) == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(capsys.readouterr().out.encode())))
    code, out, err = run(capsys, "metrics", "--intervals", "7", "--store", "-")
    assert (code, err) == (0, "")
    assert "replacement_rate         7d  all   0.0000      5" in out.splitlines()


def test_report_to_file(tmp_path, capsys, synth_store):
    out_file = tmp_path / "grid.svg"
    code, out, _ = run(
        capsys,
        "report",
        "--kind",
        "temporal-grid",
        "--format",
        "svg",
        "--store",
        str(synth_store),
        "-o",
        str(out_file),
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text(encoding="utf-8").startswith("<svg")
    _, svg, _ = run(capsys, "report", "--kind", "temporal-grid", "--store", str(synth_store))
    assert out_file.read_bytes() == svg.encode()


def test_the_grid_streams_to_its_file(tmp_path):
    """The command holds about one row of the SVG, never the whole document."""
    generate(SynthParams(days=30, replacement_rate=0.35, seed=5), root=tmp_path / "s")
    out = tmp_path / "grid.svg"
    tracemalloc.start()
    try:
        code = main(["report", "--kind", "temporal-grid", "--store", str(tmp_path / "s"), "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1.0 * out.stat().st_size


def test_stream_mode_round_trip(capsys, monkeypatch):
    code = main(
        ["synth", "--days", "4", "--pages", "1", "--per-page", "2", "--store", "-"]
    )
    assert code == 0
    stream = capsys.readouterr().out
    assert len(stream.splitlines()) == 4

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream.encode())))
    code, out, _ = run(capsys, "stats", "--store", "-")
    assert code == 0
    assert "snapshots:  4" in out


def test_scrape_to_stream(capsys, serp_root):
    code, out, _ = run(
        capsys,
        "scrape",
        "--query",
        "hurricane harvey",
        "--fixture",
        str(serp_root),
        "--delay",
        "0",
        "--date",
        "2017-09-07",
        "--store",
        "-",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["date"] == "2017-09-07"
    assert len(doc["links"]) == 50


def test_ingest_from_stdin(capsys, monkeypatch, tmp_path):
    main(["synth", "--days", "2", "--pages", "1", "--per-page", "2", "--store", "-"])
    stream = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream.encode())))
    root = tmp_path / "col"
    code, _, err = run(capsys, "ingest", "-", "--store", str(root))
    assert code == 0
    assert "2 snapshot(s)" in err
    code, out, _ = run(capsys, "stats", "--store", str(root))
    assert "snapshots:  2" in out


def test_compare_verticals(capsys, tmp_path, serp_root, harvey_store):
    news = tmp_path / "news"
    code = main(
        [
            "scrape",
            "--query",
            "hurricane harvey",
            "--vertical",
            "news",
            "--pages",
            "1",
            "--fixture",
            str(serp_root),
            "--delay",
            "0",
            "--date",
            "2017-09-07",
            "--store",
            str(news),
        ]
    )
    assert code == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "compare", "--store-a", str(harvey_store), "--store-b", str(news)
    )
    assert code == 0
    assert "overlap" in out
    assert "recall general->news" in out


def test_compare_of_one_vertical_labels_the_stores_a_and_b(capsys, synth_store):
    code, out, _ = run(capsys, "compare", "--store-a", str(synth_store), "--store-b", str(synth_store))
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [row[0] for row in rows[1:3]] == ["a", "b"]
    assert rows[1][1] == rows[2][1] == rows[3][1]  # each store shares all its stories
    assert rows[4:] == [["overlap", "1.0000"], ["recall", "a->b:", "1.0000"], ["recall", "b->a:", "1.0000"]]


def test_ingest_of_a_missing_file_is_3(capsys, tmp_path):
    assert run(capsys, "ingest", "nope.json", "--store", str(tmp_path / "col")) == (
        3, "", "error: store-missing: no snapshot file at nope.json\n"
    )
    assert not (tmp_path / "col").exists()


def test_ingest_of_empty_stdin_is_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"")))
    assert run(capsys, "ingest", "-", "--store", str(tmp_path / "col")) == (
        4, "", "error: insufficient-data: nothing to ingest\n"
    )
    assert not (tmp_path / "col").exists()


def test_every_command_has_its_handler():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 11
    for name in sub.choices:
        assert callable(getattr(cli, f"_cmd_{name}")), name


@pytest.mark.parametrize("command", ["scrape", "synth", "fit"])
def test_vertical_choices_are_the_enum_members(command):
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (vertical,) = [a for a in sub.choices[command]._actions if "--vertical" in a.option_strings]
    assert vertical.choices == [v.value for v in Vertical]


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch, synth_store, child_env):
    assert cli.build_parser() is cli.build_parser()
    argv = ["stats", "--store", str(synth_store)]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "stats", "--no-such-flag")[0] == 2
    code, out, _ = run(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "serpchurn", *argv], capture_output=True, text=True, env=child_env()
    )
    assert (code, out) == (fresh.returncode, fresh.stdout)
    # handlers are still looked up by name at call time
    monkeypatch.setattr("serpchurn.cli._cmd_stats", lambda args: "patched\n")
    assert run(capsys, *argv) == (0, "patched\n", "")


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "serpchurn", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "scrape" in proc.stdout and "synth" in proc.stdout


def test_offline_imports_stay_in_the_standard_library(child_env):
    # a fresh interpreter, so that nothing the suite imported counts
    probe = (
        "import sys, serpchurn, serpchurn.cli; "
        "print(serpchurn.__file__); "
        "print(sorted(m for m in ('numpy', 'urllib.request', 'http.client', 'ssl') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    loaded, heavy = proc.stdout.splitlines()
    assert Path(loaded).resolve() == Path(serpchurn.__file__).resolve()
    assert heavy == "[]"


def test_reads_leave_the_manifest_alone(capsys, synth_store):
    manifest = synth_store / "collection.json"
    os.utime(manifest, ns=(1, 1))  # any rewrite would stamp the current time
    before = manifest.read_bytes(), manifest.stat().st_mtime_ns
    for command in ("stats", "metrics", "prob"):
        assert run(capsys, command, "--store", str(synth_store))[0] == 0
    assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before


# -- input errors are validation errors; anything else is internal ----------


def _identity(one, zero) -> str:
    """A 6x6 identity kernel spelled with these entries."""
    return json.dumps([[one if i == j else zero for j in range(6)] for i in range(6)])


@pytest.mark.parametrize(
    "content",
    [
        "5", "[[null]]", "not json", '[[1, "x"]]',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
        pytest.param(_identity(True, False), id="bools"),
        pytest.param(_identity("1", "0"), id="strings"),
        pytest.param(_identity(10**400, 0), id="int-past-float"),
    ],
)
def test_bad_kernel_file_is_a_validation_error(capsys, tmp_path, content):
    kernel = tmp_path / "kernel.json"
    kernel.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, "synth", "--days", "2", "--kernel", str(kernel), "--store", "-")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


@pytest.mark.parametrize("entry", ["NaN", "Infinity"])
def test_a_non_finite_kernel_is_a_validation_error(capsys, tmp_path, entry):
    kernel = tmp_path / "kernel.json"
    kernel.write_text("[%s]" % ",".join(["[%s]" % ",".join([entry] * 6)] * 6), encoding="utf-8")
    code, out, err = run(capsys, "synth", "--days", "2", "--kernel", str(kernel), "--store", "-")
    assert code == 2
    assert out == ""
    assert err == "error: validation: kernel row 0 has a non-finite entry\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scrape", "--query", "q", "--date", "2017-13-01"],
        ["scrape", "--query", "q", "--date-start", "soon", "--date-end", "2017-09-08"],
        ["scrape", "--query", "q", "--date-start", "2017-09-08", "--date-end", "2017-09-07"],
        ["scrape", "--query", "q", "--date-start", "2017-09-07"],
        ["scrape", "--query", " "],
        ["scrape", "--query", "q", "--pages", "6"],
        ["scrape", "--query", "q", "--delay", "-1"],
        ["scrape", "--query", "q", "--delay", "nan"],
        ["scrape", "--query", "q", "--delay", "inf"],
        ["synth", "--days", "2", "--start", "01/01/2024"],
        ["synth", "--days", "5", "--start", "9999-12-30"],
    ],
    ids=[
        "date", "date-start", "reversed-window", "date-start-alone", "empty-query", "pages", "delay",
        "delay-nan", "delay-inf", "start",
        "span-past-date-max",
    ],
)
def test_bad_input_is_a_validation_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--store", str(tmp_path / "col"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
    assert not (tmp_path / "col").exists()


@pytest.mark.parametrize("text", ["20240101", "2024-W01-1", "2024W011"])
@pytest.mark.parametrize(
    "argv",
    [
        ["scrape", "--query", "q", "--date", "{}"],
        ["scrape", "--query", "q", "--date-start", "{}", "--date-end", "2024-01-02"],
        ["scrape", "--query", "q", "--date-start", "2023-12-31", "--date-end", "{}"],
        ["synth", "--days", "2", "--start", "{}"],
    ],
    ids=["date", "date-start", "date-end", "start"],
)
def test_a_date_is_spelled_yyyy_mm_dd(capsys, tmp_path, argv, text):
    argv = [arg.format(text) for arg in argv]
    assert run(capsys, *argv, "--store", str(tmp_path / "col")) == (
        2, "", f"error: validation: {text!r} is not a YYYY-MM-DD date\n"
    )
    assert not (tmp_path / "col").exists()


@pytest.mark.parametrize("text", ["20240101", "2024-W01-1", "2024W011"])
def test_a_stored_date_is_spelled_yyyy_mm_dd(capsys, tmp_path, text):
    doc = json.dumps({"query": "q", "vertical": "general", "date": text, "links": []})
    (tmp_path / "snap.json").write_text(doc, encoding="utf-8")
    assert run(capsys, "ingest", str(tmp_path / "snap.json"), "--store", str(tmp_path / "col")) == (
        6, "", f"error: serp-parse: snapshot document is malformed: {text!r} is not a YYYY-MM-DD date\n"
    )
    assert not (tmp_path / "col").exists()


def test_a_bug_is_internal_not_validation(capsys, monkeypatch, synth_store):
    def broken(*args, **kwargs):
        raise ValueError("a bug in the rates")

    monkeypatch.setattr("serpchurn.metrics.compute_rates", broken)
    code, out, err = run(capsys, "metrics", "--store", str(synth_store))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == "error: internal: ValueError: a bug in the rates"
    assert "validation" not in err


@pytest.mark.parametrize("days, start", [("1", "9999-12-31"), ("2", "9999-12-30")])
def test_a_span_ending_on_date_max_is_generated(capsys, days, start):
    code, out, err = run(capsys, "synth", "--days", days, "--start", start, "--store", "-")
    assert code == 0, err
    assert out.splitlines()[-1].startswith('{"query":"synthetic","vertical":"general","date":"9999-12-31"')


@pytest.mark.parametrize(
    "argv",
    [
        ["transitions"],
        ["transitions", "--counts"],
        ["fit"],
        ["fit", "--max-k", "3"],
        ["report", "--kind", "fit-curve", "--format", "svg"],
        ["prob"],
        ["metrics"],
    ],
    ids=["transitions", "transition-counts", "fit", "fit-max-k", "fit-curve", "prob", "metrics"],
)
def test_analysis_commands_build_no_padded_row(capsys, monkeypatch, synth_store, argv):
    def refuse(self):
        raise AssertionError("a padded row was built")

    monkeypatch.setattr(StoryTimeline, "observations", property(refuse))
    code, out, err = run(capsys, *argv, "--store", str(synth_store))
    assert code == 0, err
    assert out


@pytest.mark.parametrize("command", ["prob", "transitions", "fit"])
@pytest.mark.parametrize(
    "day, page", [(-1, 1.0), (0, 2.0), (-1, True)], ids=["later-1.0", "first-2.0", "true"]
)
def test_a_page_that_is_no_int_is_unparseable(capsys, synth_store, command, day, page):
    path = sorted((synth_store / "snapshots").iterdir())[day]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["links"][0]["page"] = page
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code, out, err = run(capsys, command, "--store", str(synth_store))
    assert code == 6
    assert out == ""
    assert err.startswith("error: serp-parse:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["uri", "canonical_uri", "title"])
def test_a_link_field_that_is_no_string_is_unparseable(capsys, tmp_path, field):
    root = tmp_path / "col"
    argv = ["synth", "--days", "10", "--rate", "0.3", "--seed", "42", "--store", str(root)]
    assert main(argv) == 0
    path = sorted((root / "snapshots").iterdir())[3]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["links"][2][field] = 5
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SerpParseError, match=f"{field} must be a string, got 5$"):
        open_store(root)
    capsys.readouterr()
    code, out, err = run(capsys, "timelines", "--store", str(root))
    assert code == 6
    assert out == ""
    assert err.startswith("error: serp-parse:") and len(err.splitlines()) == 1


# one value for each way a document can fail to read that no key check sees
_UNREADABLE = {
    "non-utf-8": b'"caf\xe9"',
    "5000-digits": b"1" * 5000,
    "nested-100000": b"[" * 100_000 + b"]" * 100_000,
    "lone-surrogate": rb'"\ud800"',
}


def _spoil(doc: bytes, fault: str) -> bytes:
    """The JSON object ``doc`` with one more key, holding the fault."""
    return doc.rstrip()[:-1] + b', "x": ' + _UNREADABLE[fault] + b"}"


@pytest.mark.parametrize("fault", list(_UNREADABLE))
@pytest.mark.parametrize("entry", ["snapshot-file", "manifest", "ingest-file", "ingest-stdin"])
def test_a_document_that_does_not_read_is_unparseable(
    capsys, monkeypatch, tmp_path, synth_store, entry, fault
):
    stored = sorted((synth_store / "snapshots").iterdir())[0]
    argv = ["stats", "--store", str(synth_store)]
    if entry == "snapshot-file":
        stored.write_bytes(_spoil(stored.read_bytes(), fault))
    elif entry == "manifest":
        manifest = synth_store / "collection.json"
        manifest.write_bytes(_spoil(manifest.read_bytes(), fault))
    elif entry == "ingest-file":
        (tmp_path / "bad.json").write_bytes(_spoil(stored.read_bytes(), fault))
        argv = ["ingest", str(tmp_path / "bad.json"), "--store", str(tmp_path / "new")]
    else:
        stdin = io.BytesIO(stored.read_bytes() + _spoil(stored.read_bytes(), fault) + b"\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
        argv = ["ingest", "-", "--store", str(tmp_path / "new")]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (6, "")
    assert err.startswith("error: serp-parse:") and len(err.splitlines()) == 1
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdio_is_utf8_whatever_the_locale(tmp_path, child_env, encoding):
    """A stream line, a stored file and an export are the same bytes."""
    snapshot = SerpSnapshot(
        query="straße",
        vertical=Vertical.GENERAL,
        date=date(2024, 1, 1),
        results=results_from_links([("http://ex.com/straße", "Grüße", 1)]),
    )
    line = snapshot_to_json(snapshot).encode("utf-8")
    (tmp_path / "snap.json").write_bytes(line)

    def cli(*argv, stdin=b""):
        proc = subprocess.run(
            [sys.executable, "-m", "serpchurn", *argv],
            input=stdin,
            capture_output=True,
            cwd=tmp_path,
            env=child_env(PYTHONIOENCODING=encoding),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    streamed = cli("ingest", "snap.json", "--store", "-")
    assert streamed == line
    cli("ingest", "-", "--store", "col", stdin=streamed)
    assert (tmp_path / "col" / "snapshots" / "2024-01-01.json").read_bytes() == line
    listing = cli("timelines", "--store", "col")
    cli("timelines", "--store", "col", "-o", "timelines.txt")
    assert listing == (tmp_path / "timelines.txt").read_bytes()
    assert listing == cli("timelines", "--store", "-", stdin=streamed)
    assert listing.endswith(" ex.com/straße\n".encode("utf-8"))
