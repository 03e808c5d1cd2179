import io
import json
import os
import subprocess
import sys

import pytest

from serpchurn.cli import main


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


def test_metrics_csv_contains_exact_daily_rate(capsys, harvey_store):
    code, out, _ = run(
        capsys, "metrics", "--format", "csv", "--store", str(harvey_store)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "metric,vertical,interval,page,value,n"
    assert "replacement_rate,general,1,,0.26,1" in lines
    assert "new_story_rate,general,1,4,%r,1" % (2 / 9) in lines


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


def test_prob_table(capsys, synth_store):
    code, out, _ = run(capsys, "prob", "--store", str(synth_store))
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["k", "P(seen)"]
    code, out, _ = run(capsys, "prob", "--format", "csv", "--store", str(synth_store))
    assert code == 0
    assert all(
        line.startswith("prob_seen,") for line in out.splitlines()[1:] if line
    )


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
    code, out, _ = run(
        capsys, "report", "--kind", "rates-table", "--store", str(harvey_store)
    )
    assert code == 0
    assert "replacement_rate" in out
    code, out, _ = run(
        capsys,
        "report",
        "--kind",
        "prob-table",
        "--format",
        "csv",
        "--store",
        str(harvey_store),
    )
    assert code == 0
    assert out.startswith("metric,vertical,interval,page,value,n")


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


def test_stream_mode_round_trip(capsys, monkeypatch):
    code = main(
        ["synth", "--days", "4", "--pages", "1", "--per-page", "2", "--store", "-"]
    )
    assert code == 0
    stream = capsys.readouterr().out
    assert len(stream.splitlines()) == 4

    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
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
    monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
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


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "serpchurn", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "scrape" in proc.stdout and "synth" in proc.stdout


def test_reads_leave_the_manifest_alone(capsys, synth_store):
    manifest = synth_store / "collection.json"
    os.utime(manifest, ns=(1, 1))  # any rewrite would stamp the current time
    before = manifest.read_bytes(), manifest.stat().st_mtime_ns
    for command in ("stats", "metrics", "prob"):
        assert run(capsys, command, "--store", str(synth_store))[0] == 0
    assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before
