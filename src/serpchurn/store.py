"""Collection store: snapshots by date, on disk or in memory.

A collection is one topic tracked in one vertical. On disk it is a
directory holding ``collection.json`` (the manifest, whose calendar is
derived from the snapshots and never read back) and one compact JSON line
per day under ``snapshots/``. Every write goes through ``ingest``, which
first refuses a directory holding another topic or vertical. A store
without a root keeps everything in memory, for synth and stream mode.
One walk over the calendar reads each stored link once and builds each
story's ``StoryTimeline``, the one record every count reads.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import date
from pathlib import Path
from typing import Iterable, Iterator

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
    parse_date,
    read_json,
    snapshot_from_json,
    snapshot_to_json,
)

MANIFEST_NAME = "collection.json"
SNAPSHOT_DIR = "snapshots"

def _atomic_write(path: Path, data: str) -> None:
    """Replace ``path`` whole, through a temporary file no other writer uses."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            # mkstemp makes the file owner-only; take the directory's read/write bits
            os.fchmod(fp.fileno(), os.stat(path.parent).st_mode & 0o666)
            fp.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _stored_days(root: Path) -> set[date]:
    """The days the snapshot files are named for; SerpParseError for another name."""
    try:
        names = os.listdir(root / SNAPSHOT_DIR)
    except FileNotFoundError:
        return set()
    days = set()
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            days.add(parse_date(name[: -len(".json")]))
        except ValueError:
            raise SerpParseError(f"{root / SNAPSHOT_DIR / name} is not named after a date") from None
    return days


def _write_manifest(root: Path, topic: str, vertical: Vertical, days: set[date]) -> None:
    """Write ``collection.json`` for the days the snapshot files are named for."""
    m = CollectionManifest(topic, vertical, tuple(sorted(days)))
    doc = {
        "topic": m.topic,
        "vertical": m.vertical.value,
        "start_date": m.start_date.isoformat() if m.start_date else None,
        "dates": [d.isoformat() for d in m.dates],
        "gaps": sorted(d.isoformat() for d in m.gaps),
    }
    _atomic_write(root / MANIFEST_NAME, json.dumps(doc) + "\n")


def read_identity(root: Path) -> tuple[str, Vertical]:
    """Topic and vertical, the only fields ever read from ``collection.json``."""
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreMissingError(f"no collection at {root}")
    try:
        doc = read_json(manifest_path.read_bytes())
        topic, vertical = doc["topic"], Vertical(doc["vertical"])
        if not isinstance(topic, str):
            raise TypeError(f"topic must be a string, got {topic!r}")
        return topic, vertical
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise SerpParseError(f"manifest at {manifest_path} is malformed: {e}") from None


class CollectionStore:
    """Snapshots for one topic x vertical, addressable by date."""

    def __init__(self, topic: str, vertical: Vertical, root: Path | None = None):
        self.topic = topic
        self.vertical = vertical
        self.snapshots: dict[date, SerpSnapshot] = {}
        self.root = Path(root) if root is not None else None

    @property
    def manifest(self) -> CollectionManifest:
        """Topic, vertical and the calendar of the snapshots held."""
        return CollectionManifest(self.topic, self.vertical, tuple(sorted(self.snapshots)))

    # -- construction -------------------------------------------------

    @classmethod
    def from_snapshots(
        cls,
        topic: str,
        vertical: Vertical,
        snapshots: Iterable[SerpSnapshot],
        root: Path | None = None,
    ) -> "CollectionStore":
        store = cls(topic, vertical, root=root)
        store.ingest(*snapshots)
        return store

    # -- persistence --------------------------------------------------

    def _check(self, snapshot: SerpSnapshot) -> None:
        """StoreMismatchError unless the snapshot belongs to this collection."""
        day = snapshot.date.isoformat()
        if snapshot.query != self.topic:
            raise StoreMismatchError(
                f"snapshot {day} query {snapshot.query!r} does not match "
                f"collection topic {self.topic!r}"
            )
        if snapshot.vertical is not self.vertical:
            raise StoreMismatchError(
                f"snapshot {day} vertical {snapshot.vertical.value!r} does not match "
                f"collection vertical {self.vertical.value!r}"
            )

    def ingest(self, *snapshots: SerpSnapshot) -> None:
        """Add or overwrite the snapshot for each one's date.

        Every snapshot, and on disk the collection's identity and each file
        name, is checked before anything is written, so a stranger in the
        batch changes nothing. The manifest is written once per batch.
        """
        for snapshot in snapshots:
            self._check(snapshot)
        if self.root is not None:
            held = read_identity(self.root) if (self.root / MANIFEST_NAME).exists() else None
            if held not in (None, (self.topic, self.vertical)):
                raise StoreMismatchError(
                    f"{self.root} holds {held[0]!r} ({held[1].value}), "
                    f"not {self.topic!r} ({self.vertical.value})"
                )
            days = _stored_days(self.root) | {snapshot.date for snapshot in snapshots}
            snap_dir = self.root / SNAPSHOT_DIR
            if not snap_dir.is_dir():  # a new one takes the store directory's permission bits, not the umask's
                snap_dir.mkdir(parents=True, exist_ok=True)
                snap_dir.chmod(os.stat(self.root).st_mode & 0o777)
            for snapshot in snapshots:
                _atomic_write(
                    snap_dir / f"{snapshot.date.isoformat()}.json",
                    snapshot_to_json(snapshot),
                )
            _write_manifest(self.root, self.topic, self.vertical, days)
        self.snapshots.update((snapshot.date, snapshot) for snapshot in snapshots)

    # -- queries ------------------------------------------------------

    def sorted_snapshots(self) -> list[SerpSnapshot]:
        return [self.snapshots[d] for d in sorted(self.snapshots)]

    def stories(self) -> set[str]:
        """The canonical URI of every stored link."""
        return {r.canonical_uri for s in self.snapshots.values() for r in s.results}

    def collection_stats(self) -> tuple[int, int, int]:
        """(total result links, distinct canonical URIs, span in days)."""
        total = sum(len(s.results) for s in self.snapshots.values())
        return total, len(self.stories()), len(self.manifest.calendar)

    def build_timelines(self) -> tuple[StoryTimeline, ...]:
        """Every story's timeline, ordered by (first_seen, canonical_uri).

        One walk reads each stored link once; a day's new stories join in
        URI order and share one unscraped set. A timeline runs from the
        story's first day to the store's last, and days without a snapshot
        are unscraped. A URI listed twice in one snapshot counts at its
        first placement. Refuses an empty store.
        """
        if not self.snapshots:
            raise InsufficientDataError("store holds no snapshots")
        days = self.manifest.calendar
        stories: dict[str, tuple[int, dict[int, int]]] = {}  # uri: (first index, pages)
        gaps: list[int] = []
        for idx, day in enumerate(days):
            snap = self.snapshots.get(day)
            if snap is None:
                gaps.append(idx)
                continue
            new: dict[str, tuple[int, dict[int, int]]] = {}  # the stories first seen today
            for r in snap.results:  # a URI's later listing that day loses
                story = stories.get(r.canonical_uri)
                if story is None:
                    new.setdefault(r.canonical_uri, (idx, {0: r.page}))
                else:
                    story[1].setdefault(idx - story[0], r.page)
            stories.update(sorted(new.items()))
        after = {i: frozenset(g - i for g in gaps if g > i) for i in {i for i, _ in stories.values()}}
        # the walk reads only checked snapshots, so it builds each timeline without StoryTimeline's checks
        return tuple(
            tuple.__new__(StoryTimeline, (uri, days[i], len(days) - i, pages, after[i]))
            for uri, (i, pages) in stories.items()
        )


def open_store(root: Path) -> CollectionStore:
    """Load a collection from disk; StoreMissingError if none is there.

    Only the topic and vertical are read from the manifest; its dates and
    gaps are derived from the snapshots found. A snapshot of another
    query or vertical raises StoreMismatchError, and a file not named
    ``<its date>.json`` raises SerpParseError. Loading writes nothing.
    """
    root = Path(root)
    store = CollectionStore(*read_identity(root), root=root)
    for day in sorted(_stored_days(root)):
        path = root / SNAPSHOT_DIR / f"{day.isoformat()}.json"
        snap = snapshot_from_json(path.read_bytes())
        if snap.date != day:
            raise SerpParseError(f"{path} holds the snapshot for {snap.date.isoformat()}")
        store._check(snap)
        store.snapshots[day] = snap
    return store


# -- stream form ------------------------------------------------------
#
# One compact snapshot document per line. Lets pipelines pass whole
# collections through stdin/stdout without touching the filesystem.


def iter_snapshot_stream(lines: Iterable[str | bytes]) -> Iterator[SerpSnapshot]:
    for line in lines:
        line = line.strip()
        if line:
            yield snapshot_from_json(line)


def store_from_stream(lines: Iterable[str | bytes]) -> CollectionStore:
    snapshots = list(iter_snapshot_stream(lines))
    if not snapshots:
        raise InsufficientDataError("snapshot stream is empty")
    head = snapshots[0]
    return CollectionStore.from_snapshots(head.query, head.vertical, snapshots)
