"""The binary record codec of the event path: WAL files and shard-pipe frames.

One operation is one fixed-width little-endian record, packed with a single
``struct`` call and read back with ``iter_unpack``::

    offset  size  field
    0       1     kind    1 event, 2 close, 3 evict, 4 drain, 5 stop, 6 define
    1       1     (zero)
    2       2     shard   \\
    4       4     epoch    > origin of a journaled record; zero on the pipe
    8       8     seq     /  (a definition's byte length)
    16      4     slot    object-id slot (an eviction's target count)
    20      24    x, y, t float64 (zero unless the kind is event)

Object ids are interned: the first time an id appears in a stream — a WAL
file, a worker connection — a ``define`` record gives it the next slot and
the id's UTF-8 bytes follow that record directly (``seq`` holds their
length).  Slots count up from zero; defining slot 0 again starts a new
table, which is how a full table is recycled and why a reader needs nothing
but the bytes: replaying a stream from its start rebuilds the table.

A stream is read up to the first thing that cannot be a record — a partial
cell, an unknown kind (zero included), a definition out of order or cut
short, a slot never defined — and everything from there on is dropped: after
a crash that is the torn tail of the last append.

:class:`RecordEncoder` and :class:`RecordDecoder` are the two ends of one
stream; :mod:`repro.faults.journal` and :mod:`repro.service.workers` both use
them and add only what is theirs (the file header, the queue-item shapes).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Tuple, Union

__all__ = [
    "CLOSE",
    "DRAIN",
    "EVENT",
    "EVICT",
    "KIND_CODES",
    "KIND_NAMES",
    "RECORD",
    "STOP",
    "RecordDecoder",
    "RecordEncoder",
]

#: kind, pad, shard, epoch, seq, slot, x, y, t — 44 bytes.
RECORD = struct.Struct("<BxHIQIddd")

#: Record kinds.  Zero is deliberately not a kind: a zero-filled tail (a file
#: extended by a crash before its data reached the disk) reads as torn.
EVENT, CLOSE, EVICT, DRAIN, STOP, _DEFINE = 1, 2, 3, 4, 5, 6

#: The kinds as the service spells them (queue items, journal records).
KIND_NAMES = {EVENT: "event", CLOSE: "close", EVICT: "evict", DRAIN: "drain", STOP: "stop"}
KIND_CODES = {name: kind for kind, name in KIND_NAMES.items()}

#: Slots one table may hold before the encoder starts a new one.  Bounds both
#: ends' memory on a connection that sees an unbounded universe of ids.
_MAX_SLOTS = 1 << 16

#: One decoded operation: ``(kind, target, x, y, t, epoch, shard, seq)``,
#: ``target`` being the object id (event, close), the eviction target count
#: or ``None`` (drain, stop).
Operation = Tuple[int, Union[str, int, None], float, float, float, int, int, int]

_pack = RECORD.pack
_SIZE = RECORD.size


class RecordEncoder:
    """The writing end of one stream: the id → slot table and ``pack``."""

    def __init__(self) -> None:
        self._slots: Dict[str, int] = {}

    def pack(
        self,
        kind: int,
        target: object = None,
        x: float = 0.0,
        y: float = 0.0,
        t: float = 0.0,
        epoch: int = 0,
        shard: int = 0,
        seq: int = 0,
    ) -> bytes:
        """One operation's bytes, preceded by its id's definition when new.

        Coordinates are coerced to float64 by ``struct`` itself, so integers
        and numpy scalars arrive as exactly the ``float()`` of themselves.
        """
        slot = self._slots.get(target)  # type: ignore[arg-type]
        if slot is not None:
            return _pack(kind, shard, epoch, seq, slot, x, y, t)
        if kind > CLOSE:  # evict carries a count in the slot field, control nothing
            count = int(target or 0)  # type: ignore[call-overload]
            return _pack(kind, shard, epoch, seq, count, x, y, t)
        # First use in this stream (or an id that is not a ``str``, which
        # only ever takes this path): define, then pack.
        object_id = str(target)
        slots = self._slots
        slot = slots.get(object_id)
        definition = b""
        if slot is None:
            if len(slots) >= _MAX_SLOTS:
                slots.clear()
            slot = slots[object_id] = len(slots)
            encoded = object_id.encode("utf-8", "surrogatepass")
            definition = _pack(_DEFINE, 0, 0, len(encoded), slot, 0.0, 0.0, 0.0) + encoded
        return definition + _pack(kind, shard, epoch, seq, slot, x, y, t)


class RecordDecoder:
    """The reading end of one stream: the slot → id table and the reader."""

    def __init__(self) -> None:
        self.ids: List[str] = []
        #: Whether the last exhausted :meth:`operations` stopped short of the
        #: end of its data.  Expected of a WAL file, a bug on a pipe.
        self.torn = False

    def operations(self, data: bytes, offset: int = 0) -> Iterator[Operation]:
        """Every operation of ``data[offset:]`` up to its first torn cell.

        Definitions are absorbed into the table on the way.  ``iter_unpack``
        runs over whole cells; a definition's id bytes break the cell grid,
        so the scan restarts behind them.
        """
        ids = self.ids
        view = memoryview(data)
        end = len(view)
        self.torn = True  # every early return below leaves it so
        try:
            while end - offset >= _SIZE:
                resume = end - (end - offset) % _SIZE
                cells = RECORD.iter_unpack(view[offset:resume])
                for index, (kind, shard, epoch, seq, slot, x, y, t) in enumerate(cells):
                    if kind == EVENT or kind == CLOSE:
                        yield kind, ids[slot], x, y, t, epoch, shard, seq
                    elif kind == _DEFINE:
                        start = offset + (index + 1) * _SIZE
                        if slot == 0:
                            ids.clear()
                        if start + seq > end or slot != len(ids):
                            return
                        ids.append(str(view[start : start + seq], "utf-8", "surrogatepass"))
                        resume = start + seq
                        break
                    elif kind == EVICT:
                        yield kind, slot, x, y, t, epoch, shard, seq
                    elif kind == DRAIN or kind == STOP:
                        yield kind, None, x, y, t, epoch, shard, seq
                    else:
                        return
                offset = resume
        except (IndexError, UnicodeDecodeError):
            return  # a slot never defined, an id that is not text: torn
        self.torn = offset != end
