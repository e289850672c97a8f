"""Crash-safe ingest journal: a per-shard write-ahead log for the service.

The service appends every accepted event/close to the journal *before*
enqueueing it, as binary records (:mod:`repro.faults.wire`), unbuffered: an
append is one ``write``, so it survives a crash of the service process, and
the batched fsyncs bound only what an OS crash or power loss can take.
If the process dies before drain commits, the next service pointed
at the same directory finds the orphaned files, replays their records through
the normal ingest path, and discards them.  A successful drain rotates
(empties) the journal — at that point the store holds everything durably.

A WAL file is an 8-byte header (magic + format version) followed by one
record stream; a torn tail — whatever a crash left of the last append — is
dropped on reading.  A file that does not start with this version's header
(the JSON-lines journal of an earlier release, say) is **refused**: opening
the journal raises a :class:`~repro.core.errors.ServiceError` naming it and
leaves it on disk.  Journals do not survive an upgrade; drain with the
version that wrote them first.

Records carry a stable ``origin`` identity ``(epoch, shard, seq)``.
Replayed records are re-journaled *with their original origin*, so a crash in
the middle of replay dedups on the next recovery instead of duplicating
events.  Idempotency against the store itself comes from committed-trajectory
dedup at drain time (see ``AnnotationService._commit_results``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.core.errors import ServiceError
from repro.core.points import SpatioTemporalPoint
from repro.faults.wire import CLOSE, EVENT, KIND_CODES, KIND_NAMES, RecordDecoder, RecordEncoder

__all__ = ["JournalRecord", "IngestJournal"]

_FILE_PATTERN = re.compile(r"^shard-(\d+)\.e(\d+)\.wal$")

#: First bytes of every WAL file: magic, then the format version.
_HEADER = b"SMTRWAL\x01"

# Data-only durability is exactly what an append-only WAL needs: fdatasync
# skips the metadata-only flush (mtime etc.) and is measurably cheaper on
# ext4; platforms without it (macOS) fall back to full fsync.
_sync_file = getattr(os, "fdatasync", os.fsync)


@dataclass(frozen=True)
class JournalRecord:
    """One journaled ingest operation, identified by its ``origin``."""

    origin: Tuple[int, int, int]  # (epoch, shard, seq); sorts in append order
    kind: str  # "event" or "close"
    object_id: str
    x: float = 0.0
    y: float = 0.0
    t: float = 0.0

    def point(self) -> SpatioTemporalPoint:
        return SpatioTemporalPoint(x=self.x, y=self.y, t=self.t)


def _read_records(path: Path) -> List[JournalRecord]:
    """The records of one WAL file, up to its torn tail.

    Raises :class:`ServiceError` for a file this version did not write; a
    header cut short by a crash is an empty journal.
    """
    data = path.read_bytes()
    if not data.startswith(_HEADER):
        if _HEADER.startswith(data):
            return []
        found = (
            "the JSON-lines journal of an earlier release"
            if data[:1] == b"["
            else f"an unknown header {data[: len(_HEADER)]!r}"
        )
        raise ServiceError(
            f"{path} is not a version-{_HEADER[-1]} binary WAL ({found}); journals do not "
            "survive an upgrade: drain it with the version that wrote it, or move it away — "
            "it was left untouched"
        )
    records: List[JournalRecord] = []
    operations = RecordDecoder().operations(data, len(_HEADER))
    for kind, object_id, x, y, t, epoch, shard, seq in operations:
        if kind != EVENT and kind != CLOSE:
            break  # nothing else is ever journaled: torn
        records.append(
            JournalRecord((epoch, shard, seq), KIND_NAMES[kind], str(object_id), x, y, t)
        )
    return records


class IngestJournal:
    """Per-shard write-ahead log with group-commit fsync and epoch rotation.

    Opening a journal scans its directory for files left by a previous
    (crashed) epoch and exposes their surviving records as
    :attr:`pending_records`; the new epoch's own files are created alongside.
    After the owner has replayed and re-journaled the pending records it calls
    :meth:`discard_recovered` to remove the old files.  :meth:`rotate` after a
    successful drain empties the current epoch's files too — the journal is
    only ever non-empty between an append and the next durable commit.
    """

    def __init__(self, directory: str, shards: int, fsync_batch: int = 1024):
        if shards < 1:
            raise ServiceError("journal needs at least one shard")
        if fsync_batch < 1:
            raise ServiceError("journal fsync batch must be at least 1")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._shards = shards
        self._fsync_batch = fsync_batch
        self._closed = False

        # Before any file of this epoch exists: a refused file raises here.
        recovered = self._scan_existing()
        self._recovered_files = [path for path, _ in recovered]
        self.pending_records = self._dedup(
            [record for _, records in recovered for record in records]
        )
        epochs = [
            int(match.group(2))
            for path, _ in recovered
            if (match := _FILE_PATTERN.match(path.name)) is not None
        ]
        self._epoch = (max(epochs) + 1) if epochs else 1

        self._paths = [
            self._directory / f"shard-{shard}.e{self._epoch}.wal" for shard in range(shards)
        ]
        self._files = [self._create(path) for path in self._paths]
        # One id table per file: a reader rebuilds it from that file alone.
        self._encoders = [RecordEncoder() for _ in self._paths]
        self._sequences = [0] * shards
        #: Records in each shard's current file, re-journaled ones included.
        self._written = [0] * shards
        #: How many of them the last fsync covered.
        self._synced = [0] * shards

    @staticmethod
    def _create(path: Path) -> BinaryIO:
        # Unbuffered: every append is one write(2), in the OS before it returns.
        handle = path.open("wb", buffering=0)
        handle.write(_HEADER)
        return handle

    # ------------------------------------------------------------------ scan
    def _scan_existing(self) -> List[Tuple[Path, List[JournalRecord]]]:
        return [
            (path, _read_records(path))
            for path in sorted(self._directory.glob("shard-*.wal"))
            if _FILE_PATTERN.match(path.name) is not None
        ]

    @staticmethod
    def _dedup(records: List[JournalRecord]) -> List[JournalRecord]:
        seen: Dict[Tuple[int, int, int], JournalRecord] = {}
        for record in records:
            # Keep-first: a replayed record re-journaled under its original
            # origin must not double-count against the original.
            seen.setdefault(record.origin, record)
        return sorted(seen.values(), key=attrgetter("origin"))

    # ---------------------------------------------------------------- append
    def _append(
        self,
        shard: int,
        kind: int,
        object_id: str,
        x: float = 0.0,
        y: float = 0.0,
        t: float = 0.0,
        origin: Optional[Tuple[int, int, int]] = None,
    ) -> Tuple[int, int, int]:
        """Write one record under ``origin`` (default: this shard's next)."""
        if self._closed:
            raise ServiceError("journal is closed")
        if origin is None:
            self._sequences[shard] += 1
            origin = (self._epoch, shard, self._sequences[shard])
        epoch, origin_shard, seq = origin
        handle = self._files[shard]
        handle.write(
            self._encoders[shard].pack(kind, object_id, x, y, t, epoch, origin_shard, seq)
        )
        written = self._written[shard] = self._written[shard] + 1
        if written - self._synced[shard] >= self._fsync_batch:
            self._sync_shard(shard)
        return origin

    def append_event(
        self, shard: int, object_id: str, point: SpatioTemporalPoint
    ) -> Tuple[int, int, int]:
        """Journal one accepted event; returns its origin."""
        return self._append(shard, EVENT, object_id, point.x, point.y, point.t)

    def append_close(self, shard: int, object_id: str) -> Tuple[int, int, int]:
        """Journal one explicit object close; returns its origin."""
        return self._append(shard, CLOSE, object_id)

    def append_replayed(self, shard: int, record: JournalRecord) -> None:
        """Re-journal a recovered record, preserving its original origin."""
        self._append(
            shard,
            KIND_CODES[record.kind],
            record.object_id,
            record.x,
            record.y,
            record.t,
            record.origin,
        )

    def records_for_shard(self, shard: int) -> List[JournalRecord]:
        """The current epoch's surviving records for one shard, in append order.

        Used by worker-loss recovery: the parent re-reads the shard's WAL file
        to rebuild a dead worker's stream.  Appends are unbuffered, so the
        file holds everything accepted so far; keep-first dedup collapses
        records that were re-journaled under their original origin, and the
        origin sort restores append order (older epochs were re-journaled
        before any new-epoch traffic).
        """
        if self._closed:
            raise ServiceError("journal is closed")
        return self._dedup(_read_records(self._paths[shard]))

    # ------------------------------------------------------------ durability
    def sync(self) -> None:
        """Fsync every shard file with unsynced appends."""
        if self._closed:
            return
        for shard in range(self._shards):
            if self._written[shard] != self._synced[shard]:
                self._sync_shard(shard)

    def _sync_shard(self, shard: int) -> None:
        _sync_file(self._files[shard].fileno())
        self._synced[shard] = self._written[shard]

    def discard_recovered(self) -> None:
        """Delete the previous epoch's files (after replay is re-journaled)."""
        for path in self._recovered_files:
            path.unlink(missing_ok=True)
        self._recovered_files = []

    def rotate(self) -> None:
        """Empty the current epoch's files — the store now holds everything."""
        if self._closed:
            return
        for shard, handle in enumerate(self._files):
            handle.close()
            self._files[shard] = self._create(self._paths[shard])
            self._encoders[shard] = RecordEncoder()
            self._sequences[shard] = 0
            self._written[shard] = 0
            self._synced[shard] = 0

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        for shard, handle in enumerate(self._files):
            handle.close()
            # A header-only file carries no recovery information; leaving it
            # would only grow the next scan.  Anything with a record in it —
            # re-journaled ones count — stays for the next recovery.
            if self._written[shard] == 0:
                self._paths[shard].unlink(missing_ok=True)
        self._closed = True

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def directory(self) -> Path:
        return self._directory
