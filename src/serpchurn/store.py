"""Collection store: snapshots by date, on disk or in memory.

A collection is one topic tracked in one vertical. On disk it is a
directory holding ``collection.json`` (the manifest) and one JSON
document per day under ``snapshots/``. A store created without a root
path behaves identically but keeps everything in memory, which is what
the synthetic generator and the stream mode use.
"""

from __future__ import annotations

import json
import os
from datetime import date, timedelta
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import (
    InsufficientDataError,
    SerpParseError,
    StoreMismatchError,
    StoreMissingError,
)
from .model import (
    CollectionManifest,
    SerpSnapshot,
    StoryTimeline,
    Vertical,
    snapshot_from_json,
    snapshot_to_json,
)

MANIFEST_NAME = "collection.json"
SNAPSHOT_DIR = "snapshots"


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


class CollectionStore:
    """Snapshots for one topic x vertical, addressable by date."""

    def __init__(
        self,
        manifest: CollectionManifest,
        snapshots: dict[date, SerpSnapshot] | None = None,
        root: Path | None = None,
    ):
        self.manifest = manifest
        self.snapshots = dict(snapshots or {})
        self.root = Path(root) if root is not None else None

    # -- construction -------------------------------------------------

    @classmethod
    def create(
        cls, topic: str, vertical: Vertical, root: Path | None = None
    ) -> "CollectionStore":
        store = cls(CollectionManifest(topic=topic, vertical=vertical), root=root)
        if root is not None:
            Path(root).mkdir(parents=True, exist_ok=True)
            (Path(root) / SNAPSHOT_DIR).mkdir(exist_ok=True)
            store._write_manifest()
        return store

    @classmethod
    def from_snapshots(
        cls,
        topic: str,
        vertical: Vertical,
        snapshots: Iterable[SerpSnapshot],
        root: Path | None = None,
    ) -> "CollectionStore":
        store = cls.create(topic, vertical, root=root)
        for snap in snapshots:
            store.ingest(snap)
        return store

    # -- persistence --------------------------------------------------

    def _write_manifest(self) -> None:
        if self.root is None:
            return
        m = self.manifest
        doc = {
            "topic": m.topic,
            "vertical": m.vertical.value,
            "start_date": m.start_date.isoformat() if m.start_date else None,
            "dates": [d.isoformat() for d in m.dates],
            "gaps": sorted(d.isoformat() for d in m.gaps),
        }
        _atomic_write(
            self.root / MANIFEST_NAME, json.dumps(doc, indent=2) + "\n"
        )

    def _refresh_manifest(self) -> None:
        """Derive the manifest's dates, start and gaps from the snapshots."""
        dates = tuple(sorted(self.snapshots))
        offsets = range((dates[-1] - dates[0]).days + 1) if dates else ()
        self.manifest = CollectionManifest(
            topic=self.manifest.topic,
            vertical=self.manifest.vertical,
            start_date=dates[0] if dates else None,
            dates=dates,
            gaps=frozenset(dates[0] + timedelta(days=i) for i in offsets) - set(dates),
        )

    def ingest(self, snapshot: SerpSnapshot) -> None:
        """Add or overwrite the snapshot for its date."""
        if snapshot.query != self.manifest.topic:
            raise StoreMismatchError(
                f"snapshot query {snapshot.query!r} does not match "
                f"collection topic {self.manifest.topic!r}"
            )
        if snapshot.vertical is not self.manifest.vertical:
            raise StoreMismatchError(
                f"snapshot vertical {snapshot.vertical.value!r} does not match "
                f"collection vertical {self.manifest.vertical.value!r}"
            )
        self.snapshots[snapshot.date] = snapshot
        if self.root is not None:
            snap_dir = self.root / SNAPSHOT_DIR
            snap_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(
                snap_dir / f"{snapshot.date.isoformat()}.json",
                snapshot_to_json(snapshot),
            )
        self._refresh_manifest()
        self._write_manifest()

    def export_snapshot(self, day: date) -> bytes:
        snap = self.snapshots.get(day)
        if snap is None:
            raise StoreMissingError(f"no snapshot for {day.isoformat()}")
        return snapshot_to_json(snap).encode("utf-8")

    # -- queries ------------------------------------------------------

    def sorted_snapshots(self) -> list[SerpSnapshot]:
        return [self.snapshots[d] for d in sorted(self.snapshots)]

    def collection_stats(self) -> tuple[int, int, int]:
        """(total result links, distinct canonical URIs, span in days)."""
        total = sum(len(s.results) for s in self.snapshots.values())
        uniq = {
            r.canonical_uri for s in self.snapshots.values() for r in s.results
        }
        if self.snapshots:
            days = (max(self.snapshots) - min(self.snapshots)).days + 1
        else:
            days = 0
        return total, len(uniq), days

    def build_timelines(self) -> tuple[StoryTimeline, ...]:
        """Day-indexed page observations for every story in the store.

        A story's timeline starts the day it first appears and runs to
        the last date the store covers; days without a snapshot are None.
        Returned ordered by (first_seen, canonical_uri).
        """
        if not self.snapshots:
            raise InsufficientDataError("store holds no snapshots")
        first = min(self.snapshots)
        last = max(self.snapshots)
        calendar: list[date] = []
        day = first
        while day <= last:
            calendar.append(day)
            day += timedelta(days=1)
        page_by_day: list[dict[str, int] | None] = []
        for day in calendar:
            snap = self.snapshots.get(day)
            if snap is None:
                page_by_day.append(None)
            else:
                page_by_day.append({r.canonical_uri: r.page for r in snap.results})
        first_seen_idx: dict[str, int] = {}
        for idx, pages in enumerate(page_by_day):
            if pages is None:
                continue
            for uri in pages:
                first_seen_idx.setdefault(uri, idx)
        timelines = []
        for uri, start_idx in first_seen_idx.items():
            obs: list[int | None] = []
            for pages in page_by_day[start_idx:]:
                obs.append(None if pages is None else pages.get(uri, 0))
            timelines.append(
                StoryTimeline(
                    canonical_uri=uri,
                    first_seen=calendar[start_idx],
                    observations=tuple(obs),
                )
            )
        timelines.sort(key=lambda t: (t.first_seen, t.canonical_uri))
        return tuple(timelines)


def open_store(root: Path) -> CollectionStore:
    """Load a collection from disk; StoreMissingError if none is there.

    Only the topic and vertical are read from the manifest; its dates and
    gaps are derived from the snapshots found. Loading writes nothing.
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreMissingError(f"no collection at {root}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest = CollectionManifest(
            topic=doc["topic"], vertical=Vertical.from_wire(doc["vertical"])
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise SerpParseError(f"manifest at {manifest_path} is malformed: {e}") from None
    snapshots: dict[date, SerpSnapshot] = {}
    snap_dir = root / SNAPSHOT_DIR
    if snap_dir.is_dir():
        for path in sorted(snap_dir.glob("*.json")):
            snap = snapshot_from_json(path.read_text(encoding="utf-8"))
            snapshots[snap.date] = snap
    store = CollectionStore(manifest, snapshots, root=root)
    store._refresh_manifest()
    return store


# -- stream form ------------------------------------------------------
#
# One compact snapshot document per line. Lets pipelines pass whole
# collections through stdin/stdout without touching the filesystem.


def dump_snapshot_stream(snapshots: Iterable[SerpSnapshot], fp: IO[str]) -> None:
    for snap in snapshots:
        fp.write(snapshot_to_json(snap, compact=True))
        fp.write("\n")


def iter_snapshot_stream(lines: Iterable[str]) -> Iterator[SerpSnapshot]:
    for line in lines:
        line = line.strip()
        if line:
            yield snapshot_from_json(line)


def store_from_stream(lines: Iterable[str]) -> CollectionStore:
    snapshots = list(iter_snapshot_stream(lines))
    if not snapshots:
        raise InsufficientDataError("snapshot stream is empty")
    head = snapshots[0]
    return CollectionStore.from_snapshots(head.query, head.vertical, snapshots)
