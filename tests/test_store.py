import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta

import pytest

from serpchurn import store as store_module
from serpchurn.cli import main
from serpchurn.errors import (
    InsufficientDataError,
    SerpParseError,
    StoreMismatchError,
    StoreMissingError,
)
from serpchurn.model import (
    SerpSnapshot,
    Vertical,
    results_from_links,
    snapshot_to_json,
)
from serpchurn.store import (
    CollectionStore,
    open_store,
    store_from_stream,
)
from serpchurn.synth import SynthParams, generate

D = lambda day: date(2024, 1, day)


def snap(day, links, query="topic", vertical=Vertical.GENERAL):
    return SerpSnapshot(
        query=query,
        vertical=vertical,
        date=D(day),
        results=results_from_links(
            [(f"https://{host}.example/s", f"Story {host}", page) for host, page in links]
        ),
    )


def test_create_ingest_reopen_round_trip(tmp_path):
    root = tmp_path / "col"
    store = CollectionStore.from_snapshots("topic", Vertical.GENERAL, (), root=root)
    store.ingest(snap(1, [("a", 1), ("b", 2)]))
    store.ingest(snap(3, [("b", 1)]))

    again = open_store(root)
    assert again.manifest.topic == "topic"
    assert again.manifest.vertical is Vertical.GENERAL
    assert again.manifest.start_date == D(1)
    assert again.manifest.dates == (D(1), D(3))
    assert again.manifest.gaps == frozenset({D(2)})
    assert again.snapshots == store.snapshots


def test_export_is_byte_identical_to_ingested_form(tmp_path):
    root = tmp_path / "col"
    store = CollectionStore.from_snapshots("topic", Vertical.GENERAL, (), root=root)
    s = snap(1, [("a", 1)])
    store.ingest(s)
    exported = snapshot_to_json(store.snapshots[D(1)]).encode("utf-8")
    assert exported == snapshot_to_json(s).encode("utf-8")
    on_disk = (root / "snapshots" / "2024-01-01.json").read_bytes()
    assert on_disk == exported


def test_open_missing_store(tmp_path):
    with pytest.raises(StoreMissingError):
        open_store(tmp_path / "nope")


def _spy_writes(monkeypatch) -> list:
    written = []
    real = store_module._atomic_write

    def spy(path, data):
        written.append(path.name)
        real(path, data)

    monkeypatch.setattr(store_module, "_atomic_write", spy)
    return written


def test_manifest_written_once_per_batch(tmp_path, monkeypatch):
    written = _spy_writes(monkeypatch)
    generate(SynthParams(days=50, seed=3), root=tmp_path / "col")
    assert written.count("collection.json") == 1
    assert len(written) == 51


def test_batch_with_a_stranger_writes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "col"
    store = CollectionStore.from_snapshots("topic", Vertical.GENERAL, (), root=root)
    store.ingest(snap(1, [("a", 1)]))
    files = sorted(p.relative_to(root) for p in root.rglob("*"))
    written = _spy_writes(monkeypatch)
    batch = [snap(2, [("a", 1)]), snap(3, [("a", 1)], query="other"), snap(4, [("b", 1)])]
    with pytest.raises(StoreMismatchError):
        store.ingest(*batch)
    assert written == []
    assert sorted(p.relative_to(root) for p in root.rglob("*")) == files
    assert sorted(store.snapshots) == [D(1)]


@pytest.mark.parametrize(
    "stranger, name, error, code",
    [
        (snap(3, [("a", 1)], query="other"), "2024-01-03.json", StoreMismatchError, 2),
        (snap(3, [("a", 1)], vertical=Vertical.NEWS), "2024-01-03.json", StoreMismatchError, 2),
        (snap(3, [("a", 1)]), "2024-01-09.json", SerpParseError, 6),
    ],
    ids=["other-query", "other-vertical", "misnamed-file"],
)
def test_open_store_checks_each_snapshot(tmp_path, capsys, stranger, name, error, code):
    root = tmp_path / "col"
    store = CollectionStore.from_snapshots("topic", Vertical.GENERAL, (), root=root)
    store.ingest(snap(1, [("a", 1)]), snap(3, [("b", 1)]))
    (root / "snapshots" / name).write_text(snapshot_to_json(stranger), encoding="utf-8")
    with pytest.raises(error):
        open_store(root)
    assert main(["stats", "--store", str(root)]) == code
    assert capsys.readouterr().out == ""


def test_a_manifest_topic_that_is_no_string_is_malformed(tmp_path, capsys):
    root = tmp_path / "col"
    CollectionStore.from_snapshots("topic", Vertical.GENERAL, [snap(1, [("a", 1)])], root=root)
    (root / "collection.json").write_text('{"topic": 5, "vertical": "general"}\n', encoding="utf-8")
    with pytest.raises(SerpParseError, match="topic must be a string, got 5$"):
        open_store(root)
    assert main(["stats", "--store", str(root)]) == 6
    assert capsys.readouterr().err.startswith("error: serp-parse:")


def test_ingest_rejects_other_topic():
    store = CollectionStore("topic", Vertical.GENERAL)
    with pytest.raises(StoreMismatchError) as exc:
        store.ingest(snap(1, [("a", 1)], query="other"))
    assert "other" in str(exc.value) and "topic" in str(exc.value)


def test_ingest_rejects_other_vertical():
    store = CollectionStore("topic", Vertical.NEWS)
    with pytest.raises(StoreMismatchError):
        store.ingest(snap(1, [("a", 1)]))


def test_last_write_wins():
    store = CollectionStore("topic", Vertical.GENERAL)
    store.ingest(snap(1, [("a", 1)]))
    store.ingest(snap(1, [("b", 1), ("c", 2)]))
    assert len(store.snapshots[D(1)].results) == 2
    assert store.manifest.dates == (D(1),)


def test_collection_stats():
    store = CollectionStore("topic", Vertical.GENERAL)
    assert store.collection_stats() == (0, 0, 0)
    store.ingest(snap(1, [("a", 1), ("b", 2)]))
    store.ingest(snap(4, [("a", 1)]))
    total, uniq, span = store.collection_stats()
    assert (total, uniq, span) == (3, 2, 4)


class TestTimelines:
    def test_empty_store_raises(self):
        store = CollectionStore("topic", Vertical.GENERAL)
        with pytest.raises(InsufficientDataError):
            store.build_timelines()

    def test_observation_values(self):
        store = CollectionStore("topic", Vertical.GENERAL)
        store.ingest(snap(1, [("a", 4), ("b", 1)]))
        store.ingest(snap(2, [("a", 2)]))
        store.ingest(snap(4, [("a", 1), ("c", 3)]))
        by_uri = {t.canonical_uri: t for t in store.build_timelines()}

        a = by_uri["a.example/s"]
        assert a.first_seen == D(1)
        assert a.observations == (4, 2, None, 1)

        b = by_uri["b.example/s"]
        assert b.observations == (1, 0, None, 0)

        c = by_uri["c.example/s"]
        assert c.first_seen == D(4)
        assert c.observations == (3,)

    def test_ordering(self):
        store = CollectionStore("topic", Vertical.GENERAL)
        store.ingest(snap(2, [("z", 1), ("m", 2)]))
        store.ingest(snap(1, [("q", 1)]))
        uris = [t.canonical_uri for t in store.build_timelines()]
        assert uris == ["q.example/s", "m.example/s", "z.example/s"]

    def test_timeline_runs_to_last_store_date(self):
        store = CollectionStore("topic", Vertical.GENERAL)
        store.ingest(snap(1, [("a", 1)]))
        store.ingest(snap(5, [("b", 1)]))
        by_uri = {t.canonical_uri: t for t in store.build_timelines()}
        assert by_uri["a.example/s"].observations == (1, None, None, None, 0)
        assert by_uri["b.example/s"].observations == (1,)


class TestStream:
    def test_round_trip(self):
        snaps = [snap(1, [("a", 1)]), snap(2, [("b", 1), ("a", 2)])]
        buf = io.StringIO()
        buf.writelines(map(snapshot_to_json, snaps))
        assert buf.getvalue().count("\n") == 2
        store = store_from_stream(io.StringIO(buf.getvalue()))
        assert store.manifest.topic == "topic"
        assert sorted(store.snapshots) == [D(1), D(2)]
        assert store.snapshots[D(2)] == snaps[1]

    def test_empty_stream_raises(self):
        with pytest.raises(InsufficientDataError):
            store_from_stream(io.StringIO(""))

    def test_blank_lines_skipped(self):
        buf = io.StringIO()
        buf.write(snapshot_to_json(snap(1, [("a", 1)])))
        text = "\n" + buf.getvalue() + "\n\n"
        store = store_from_stream(io.StringIO(text))
        assert len(store.snapshots) == 1


def test_fixture_corpus_round_trip(tmp_path, harvey_snapshots):
    s07, s08 = harvey_snapshots
    root = tmp_path / "harvey"
    store = CollectionStore.from_snapshots("hurricane harvey", Vertical.GENERAL, (), root=root)
    store.ingest(s07)
    store.ingest(s08)
    again = open_store(root)
    assert again.snapshots[date(2017, 9, 7)] == s07
    assert again.snapshots[date(2017, 9, 8)] == s08
    total, uniq, span = again.collection_stats()
    assert (total, uniq, span) == (99, 62, 2)


# -- the calendar comes from the snapshots ------------------------------


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _doc(tmp_path, snapshot):
    path = tmp_path / f"doc-{snapshot.date.isoformat()}.json"
    path.write_text(snapshot_to_json(snapshot), encoding="utf-8")
    return str(path)


def _assert_manifest_file_matches_the_snapshots(root):
    doc = json.loads((root / "collection.json").read_text(encoding="utf-8"))
    m = open_store(root).manifest
    assert doc["start_date"] == (m.start_date.isoformat() if m.start_date else None)
    assert doc["dates"] == [d.isoformat() for d in m.dates]
    assert doc["gaps"] == sorted(d.isoformat() for d in m.gaps)


def test_manifest_follows_the_snapshots(tmp_path, capsys):
    root = tmp_path / "col"
    store = CollectionStore.from_snapshots("topic", Vertical.GENERAL, (), root=root)
    _assert_manifest_file_matches_the_snapshots(root)
    store.ingest(snap(1, [("a", 1)]), snap(2, [("b", 1)]), snap(3, [("a", 2)]))
    _assert_manifest_file_matches_the_snapshots(root)
    assert main(["ingest", _doc(tmp_path, snap(6, [("c", 1)])), "--store", str(root)]) == 0
    _assert_manifest_file_matches_the_snapshots(root)
    assert open_store(root).manifest.gaps == frozenset({D(4), D(5)})

    del store.snapshots[D(2)]
    m = store.manifest
    assert (m.start_date, m.dates, m.gaps) == (D(1), (D(1), D(3)), frozenset({D(2)}))
    assert m.calendar == (D(1), D(2), D(3))


def _scrape(serp_root, root, day):
    return main(
        [
            "scrape", "--query", "hurricane harvey", "--fixture", str(serp_root),
            "--delay", "0", "--date", day, "--store", str(root),
        ]
    )


@pytest.mark.parametrize("writer", ["scrape", "ingest"])
def test_writers_parse_no_stored_snapshot(
    tmp_path, monkeypatch, serp_root, harvey_snapshots, writer
):
    s07, s08 = harvey_snapshots
    root = tmp_path / "harvey"
    earlier = [replace(s07, date=date(2017, 9, 5)), replace(s08, date=date(2017, 9, 6))]
    CollectionStore.from_snapshots(s07.query, s07.vertical, earlier, root=root)

    def refuse(text):
        raise AssertionError("a writer parsed a stored snapshot")

    monkeypatch.setattr(store_module, "snapshot_from_json", refuse)
    if writer == "scrape":
        assert _scrape(serp_root, root, "2017-09-07") == 0
    else:
        assert main(["ingest", _doc(tmp_path, s07), "--store", str(root)]) == 0
    monkeypatch.undo()
    assert sorted(open_store(root).snapshots) == [date(2017, 9, d) for d in (5, 6, 7)]
    _assert_manifest_file_matches_the_snapshots(root)


@pytest.mark.parametrize("name", ["notes.json", "20170906.json"])
def test_writers_refuse_a_stray_file_before_writing(
    tmp_path, capsys, serp_root, harvey_snapshots, name
):
    s07, s08 = harvey_snapshots
    root = tmp_path / "harvey"
    store = CollectionStore.from_snapshots(s07.query, s07.vertical, [s07], root=root)
    (root / "snapshots" / name).write_text("{}\n", encoding="utf-8")
    before = _files(root)
    with pytest.raises(SerpParseError):
        store.ingest(s08)
    assert _scrape(serp_root, root, "2017-09-08") == 6
    assert main(["ingest", _doc(tmp_path, s08), "--store", str(root)]) == 6
    assert capsys.readouterr().err.count("error: serp-parse:") == 2
    assert _files(root) == before


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    root = tmp_path / "col"
    CollectionStore.from_snapshots("topic", Vertical.GENERAL, [snap(1, [("a", 1)])], root=root)
    before = _files(root)

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["ingest", _doc(tmp_path, snap(2, [("b", 1)])), "--store", str(root)]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err.startswith("error: io:")
    assert _files(root) == before


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000], ids=["022", "077", "000"])
def test_ingested_files_take_their_directorys_read_and_write_bits(tmp_path, capsys, umask):
    """Every file ``ingest`` writes has its directory's read and write bits,
    not the owner-only mode of a fresh temporary file, whatever the umask."""
    root = tmp_path / "col"
    (root / "snapshots").mkdir(parents=True)
    for directory in (root, root / "snapshots"):
        directory.chmod(0o750)
    docs = [_doc(tmp_path, snap(day, [("a", 1)])) for day in (1, 2)]
    old = os.umask(umask)
    try:
        assert main(["ingest", *docs, "--store", str(root)]) == 0
    finally:
        os.umask(old)
    assert capsys.readouterr().err == "ingested 2 snapshot(s)\n"
    written = [root / "collection.json", *sorted((root / "snapshots").iterdir())]
    assert [(p.name, oct(p.stat().st_mode & 0o777)) for p in written] == [
        ("collection.json", "0o640"), ("2024-01-01.json", "0o640"), ("2024-01-02.json", "0o640")
    ]


def test_a_directory_at_the_manifest_refuses_a_write_before_any_file(tmp_path, capsys):
    root = tmp_path / "col"
    assert main(["synth", "--days", "3", "--store", str(root)]) == 0
    (root / "collection.json").unlink()
    (root / "collection.json").mkdir()
    before = _files(root)
    capsys.readouterr()
    assert main(["synth", "--days", "5", "--store", str(root)]) == 3
    assert capsys.readouterr().err == f"error: store-missing: no collection at {root}\n"
    assert _files(root) == before


@pytest.mark.parametrize("command", ["stats", "metrics"])
def test_a_file_at_the_snapshot_directory_is_an_io_error(tmp_path, capsys, command):
    root = tmp_path / "col"
    CollectionStore.from_snapshots("topic", Vertical.GENERAL, (), root=root)
    (root / "snapshots").rmdir()
    (root / "snapshots").write_text("not a directory\n", encoding="utf-8")
    with pytest.raises(NotADirectoryError):
        open_store(root)
    assert main([command, "--store", str(root)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: io:") and "Not a directory" in err


def test_open_store_skips_a_leftover_temporary_file(tmp_path):
    root = tmp_path / "col"
    store = CollectionStore.from_snapshots("topic", Vertical.GENERAL, [snap(1, [("a", 1)])], root=root)
    (root / "snapshots" / "2024-01-02.json.x1y2.tmp").write_text("{half a docu", encoding="utf-8")
    assert open_store(root).snapshots == store.snapshots


def test_concurrent_writers_keep_every_day(tmp_path, child_env):
    root = tmp_path / "col"
    days = [D(1) + timedelta(days=i) for i in range(40)]
    lanes = [
        [_doc(tmp_path, replace(snap(1, [(f"s{i}", 1)]), date=days[i])) for i in range(lane, 40, 2)]
        for lane in (0, 1)
    ]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "serpchurn", "ingest", *docs, "--store", str(root)],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for docs in lanes
    ]
    for child in children:
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
    assert sorted(p.name for p in (root / "snapshots").iterdir()) == [
        f"{d.isoformat()}.json" for d in days
    ]
    doc = json.loads((root / "collection.json").read_text(encoding="utf-8"))
    assert (doc["topic"], doc["vertical"]) == ("topic", "general")
    assert list(root.rglob("*.tmp")) == []
    assert sorted(open_store(root).snapshots) == days


def test_store_in_the_older_layout_takes_a_scrape(tmp_path, capsys, serp_root, harvey_snapshots):
    # a store as earlier versions wrote it, its manifest's calendar stale
    s07, _ = harvey_snapshots
    old = tmp_path / "old"
    (old / "snapshots").mkdir(parents=True)
    stale = {
        "topic": "hurricane harvey",
        "vertical": "general",
        "start_date": "2017-09-01",
        "dates": ["2017-09-01", "2017-09-07"],
        "gaps": ["2017-09-02", "2017-09-03"],
    }
    (old / "collection.json").write_text(json.dumps(stale, indent=2) + "\n", encoding="utf-8")
    stored = old / "snapshots" / "2017-09-07.json"
    stored.write_text(snapshot_to_json(s07), encoding="utf-8")
    stored_bytes = stored.read_bytes()

    assert _scrape(serp_root, old, "2017-09-08") == 0
    doc = json.loads((old / "collection.json").read_text(encoding="utf-8"))
    assert (doc["start_date"], doc["dates"], doc["gaps"]) == (
        "2017-09-07",
        ["2017-09-07", "2017-09-08"],
        [],
    )
    assert stored.read_bytes() == stored_bytes

    fresh = tmp_path / "fresh"
    for day in ("2017-09-07", "2017-09-08"):
        assert _scrape(serp_root, fresh, day) == 0
    capsys.readouterr()
    for command in (["stats"], ["metrics", "--format", "csv"], ["prob"]):
        outputs = []
        for root in (old, fresh):
            code = main([*command, "--store", str(root)])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
    assert main(["stats", "--store", str(old)]) == 0
    assert capsys.readouterr().out == (
        "topic:      hurricane harvey\n"
        "vertical:   general\n"
        "first day:  2017-09-07\n"
        "last day:   2017-09-08\n"
        "snapshots:  2\n"
        "span days:  2\n"
        "gap days:   0\n"
        "links:      99\n"
        "stories:    62\n"
    )


# -- one write path: every writer checks the collection it writes into ----


@pytest.mark.parametrize("writer", ["synth", "scrape", "ingest"])
@pytest.mark.parametrize(
    "held", [("elsewhere", Vertical.GENERAL), ("hurricane harvey", Vertical.NEWS)],
    ids=["other-topic", "other-vertical"],
)
def test_writers_refuse_another_collection(
    tmp_path, capsys, serp_root, harvey_snapshots, writer, held
):
    s07, _ = harvey_snapshots
    root = tmp_path / "harvey"
    topic, vertical = held
    early = replace(s07, query=topic, vertical=vertical, date=date(2017, 9, 5))
    CollectionStore.from_snapshots(topic, vertical, [early], root=root)
    before = _files(root)
    if writer == "synth":
        argv = ["synth", "--days", "3", "--topic", "hurricane harvey", "--store", str(root)]
        code = main(argv)
    elif writer == "scrape":
        code = _scrape(serp_root, root, "2017-09-07")
    else:
        code = main(["ingest", _doc(tmp_path, s07), "--store", str(root)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: store-mismatch:")
    assert _files(root) == before


def test_create_and_generate_refuse_another_collection(tmp_path, monkeypatch):
    root = tmp_path / "col"
    CollectionStore.from_snapshots("topic", Vertical.GENERAL, [snap(1, [("a", 1)])], root=root)
    before = _files(root)
    written = _spy_writes(monkeypatch)
    with pytest.raises(StoreMismatchError) as exc:
        CollectionStore.from_snapshots("other", Vertical.GENERAL, (), root=root)
    assert "'topic' (general)" in str(exc.value) and "'other' (general)" in str(exc.value)
    with pytest.raises(StoreMismatchError):
        CollectionStore.from_snapshots("topic", Vertical.NEWS, (), root=root)
    with pytest.raises(StoreMismatchError):
        generate(SynthParams(days=3, topic="other"), root=root)
    assert written == []
    assert _files(root) == before


def _indented(text):
    """A document in the indented form earlier versions stored."""
    return json.dumps(json.loads(text), ensure_ascii=False, indent=2) + "\n"


def test_store_in_the_indented_form_reads_the_same(tmp_path, capsys):
    params = SynthParams(days=12, pages=2, per_page=3, replacement_rate=0.3, seed=5)
    snaps = [s for s in generate(params).sorted_snapshots() if s.date != D(4)]  # a gap day
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    CollectionStore.from_snapshots("synthetic", Vertical.GENERAL, snaps, root=fresh)
    (old / "snapshots").mkdir(parents=True)
    for path in fresh.rglob("*.json"):
        (old / path.relative_to(fresh)).write_text(_indented(path.read_text("utf-8")), "utf-8")
    assert (old / "snapshots" / "2024-01-01.json").read_text("utf-8").count("\n") > 1
    assert open_store(old).snapshots == open_store(fresh).snapshots
    for command in (["stats"], ["metrics", "--format", "csv"], ["prob"], ["transitions"], ["fit"]):
        outputs = []
        for root in (old, fresh):
            code = main([*command, "--store", str(root)])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1], command
        assert outputs[0][0] == 0


def test_stored_exported_and_streamed_bytes_agree(tmp_path, capsys):
    root = tmp_path / "col"
    argv = ["synth", "--days", "3", "--per-page", "2", "--rate", "0.5", "--seed", "1"]
    assert main([*argv, "--store", "-"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert main([*argv, "--store", str(root)]) == 0
    store = open_store(root)
    for day, line in zip(sorted(store.snapshots), lines, strict=True):
        stored = (root / "snapshots" / f"{day.isoformat()}.json").read_bytes()
        assert stored == snapshot_to_json(store.snapshots[day]).encode("utf-8") == line.encode("utf-8")
        assert stored.count(b"\n") == 1
