"""Zero-copy sharing of :class:`GeoContext` numpy blocks across processes.

PR 4 made the expensive part of a :class:`~repro.parallel.context.GeoContext`
snapshot — the flat index levels, the entry and segment columns, the map
matcher's id-rank column — contiguous read-only numpy blocks.  This module moves
those blocks into ``multiprocessing.shared_memory`` so pool workers *attach*
to one copy instead of each receiving a pickled duplicate:

* :class:`SharedArrayBundle` packs named arrays into **one** POSIX shared
  memory segment (64-byte aligned) and describes the layout with a picklable
  :class:`SharedManifest`; :meth:`SharedArrayBundle.attach` reconstructs
  read-only zero-copy views from the manifest in another process.
* :func:`share_context` pickles a snapshot through a
  :class:`pickle.Pickler` whose ``persistent_id`` hook diverts every large
  contiguous array into the bundle, leaving a small skeleton pickle of
  Python objects; :func:`attach_context` is the worker-side inverse, whose
  ``persistent_load`` resolves each reference to a view into the attached
  segment — the rebuilt :class:`FlatSpatialIndex`/:class:`GeoContext`
  therefore *aliases* the parent's arrays instead of copying them.

Cleanup is layered so segments cannot outlive the run:

* the creating process owns the segment: :meth:`SharedGeoContext.close` (and
  the executor and service ``close()`` paths) unlink it deterministically;
* a :class:`weakref.finalize` on every owner unlinks on garbage collection
  *and* at interpreter exit (``finalize`` registers with ``atexit``), so a
  dropped executor or a crashed worker never strands a segment;
* the ``resource_tracker`` needs no special handling precisely *because*
  workers are children of the owner: both ``fork`` and ``spawn`` hand the
  child the parent's tracker fd, so the whole process tree shares one
  tracker whose cache is a set — the attach-side re-registration is an
  idempotent add and the owner's unlink unregisters the name exactly once
  (explicitly unregistering in workers would strip the entry out from under
  the owner and make the tracker raise on the owner's unlink).
"""

from __future__ import annotations

import io
import os
import pickle
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.parallel.context import GeoContext

__all__ = [
    "SharedArrayBundle",
    "SharedBlock",
    "SharedManifest",
    "SharedContextSpec",
    "SharedGeoContext",
    "share_context",
    "attach_context",
]

#: Blocks smaller than this pickle inline: a shared-memory reference (block
#: record + alignment padding) costs more than it saves below ~a cache line's
#: worth of payload, and tiny arrays are not where the copy time goes.
MIN_SHARED_BYTES = 256

#: Alignment of every block inside the segment (cache-line sized, and enough
#: for any numpy dtype).
_ALIGNMENT = 64

#: ``persistent_id`` tag marking a diverted array in the skeleton pickle.
_PID_TAG = "semitri-shared-array"


def _release_segment(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Detach (and for owners unlink) a segment; idempotent and GC/exit-safe."""
    try:
        shm.close()
    except BufferError:
        # Some view still aliases the mapping; it stays valid until process
        # exit.  Drop the fd and the handle's mmap reference so the mapping is
        # deliberately leaked once and ``SharedMemory.__del__`` does not retry
        # the close (which would warn "Exception ignored in __del__").
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            os.close(fd)
            shm._fd = -1
        shm._mmap = None
        shm._buf = None
    if owner:
        try:
            shm.unlink()  # only needs the name; works after the close above
        except FileNotFoundError:
            pass


@dataclass(frozen=True)
class SharedBlock:
    """Layout of one array inside the segment (picklable manifest entry)."""

    key: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedManifest:
    """Everything a worker needs to attach: segment name plus block layout."""

    segment: str
    size: int
    blocks: Tuple[SharedBlock, ...]

    def keys(self) -> Tuple[str, ...]:
        """The block names, in layout order."""
        return tuple(block.key for block in self.blocks)


class SharedArrayBundle:
    """Named numpy blocks in one shared-memory segment, create- or attach-side.

    Create-side (:meth:`create`) packs the arrays and owns the segment: it is
    responsible for the unlink, deterministically via :meth:`close` (also a
    context manager) and as a backstop via a GC/exit finalizer.  Attach-side
    (:meth:`attach`) maps the segment read-only and never unlinks; its views
    alias the creator's physical pages, which is the whole point.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: SharedManifest,
        owner: bool,
    ):
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._manifest = manifest
        self._owner = owner
        self._views: Dict[str, np.ndarray] = {}
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    # ------------------------------------------------------------ construction
    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], name: Optional[str] = None
    ) -> "SharedArrayBundle":
        """Pack ``arrays`` into a fresh segment (this process becomes owner)."""
        blocks = []
        offset = 0
        for key, array in arrays.items():
            if not array.flags["C_CONTIGUOUS"]:
                raise ValueError(f"shared block {key!r} must be C-contiguous")
            if array.dtype.hasobject:
                raise ValueError(f"shared block {key!r} must not contain objects")
            offset = -(-offset // _ALIGNMENT) * _ALIGNMENT  # round up
            blocks.append(SharedBlock(key, offset, tuple(array.shape), array.dtype.str))
            offset += array.nbytes
        if name is None:
            name = f"semitri-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
        manifest = SharedManifest(segment=shm.name, size=shm.size, blocks=tuple(blocks))
        bundle = cls(shm, manifest, owner=True)
        for block in blocks:
            np.copyto(bundle._view_of(block, writeable=True), arrays[block.key])
        return bundle

    @classmethod
    def attach(cls, manifest: SharedManifest) -> "SharedArrayBundle":
        """Map an existing segment; views are read-only and zero-copy.

        Attaching re-registers the name with the resource tracker, but pool
        workers share the owner's tracker process (fork and spawn both pass
        the tracker fd down), so the registration is an idempotent set-add
        that the owner's unlink clears — no unregister dance needed here.
        """
        shm = shared_memory.SharedMemory(name=manifest.segment)
        return cls(shm, manifest, owner=False)

    def _view_of(self, block: SharedBlock, writeable: bool = False) -> np.ndarray:
        assert self._shm is not None, "bundle is closed"
        dtype = np.dtype(block.dtype)
        count = 1
        for dim in block.shape:
            count *= dim
        view = np.frombuffer(self._shm.buf, dtype=dtype, count=count, offset=block.offset)
        view = view.reshape(block.shape)
        view.flags.writeable = writeable
        return view

    # --------------------------------------------------------------- accessors
    @property
    def manifest(self) -> SharedManifest:
        """The picklable layout descriptor workers attach from."""
        return self._manifest

    @property
    def segment_name(self) -> str:
        """Name of the underlying shared-memory segment."""
        return self._manifest.segment

    @property
    def nbytes(self) -> int:
        """Size of the segment in bytes."""
        return self._manifest.size

    def keys(self) -> Tuple[str, ...]:
        """The block names, in layout order."""
        return self._manifest.keys()

    def __len__(self) -> int:
        return len(self._manifest.blocks)

    def __getitem__(self, key: str) -> np.ndarray:
        """The (cached) read-only zero-copy view of one block."""
        view = self._views.get(key)
        if view is None:
            for block in self._manifest.blocks:
                if block.key == key:
                    view = self._view_of(block)
                    break
            else:
                raise KeyError(key)
            self._views[key] = view
        return view

    # --------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        """True once the segment has been released by this side."""
        return self._shm is None

    def close(self) -> None:
        """Release the mapping; the owning side also unlinks (idempotent)."""
        if self._shm is None:
            return
        self._views.clear()
        self._finalizer()  # runs _release_segment exactly once
        self._shm = None

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


# --------------------------------------------------------- context export side
class _BlockPickler(pickle.Pickler):
    """Pickler that diverts large contiguous arrays into a shared bundle.

    ``names`` maps ``id(array)`` to a human-readable block name (from
    :meth:`GeoContext.precompiled_blocks`); arrays reached through other
    attributes (HMM tables, observation-model caches, ...) still divert, under
    a generated name.  The collected ``arrays`` mapping preserves encounter
    order, so block keys are deterministic for a given snapshot.
    """

    def __init__(
        self,
        buffer: io.BytesIO,
        names: Dict[int, str],
        min_shared_bytes: int,
    ):
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._names = names
        self._min_shared_bytes = min_shared_bytes
        self.arrays: Dict[str, np.ndarray] = {}
        self._key_of: Dict[int, str] = {}

    def persistent_id(self, obj: Any) -> Optional[Tuple[str, str]]:
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= self._min_shared_bytes
            and obj.flags["C_CONTIGUOUS"]
            and not obj.dtype.hasobject
        ):
            key = self._key_of.get(id(obj))
            if key is None:
                key = self._names.get(id(obj), f"block[{len(self.arrays)}]")
                if key in self.arrays:  # name collision: disambiguate
                    key = f"{key}#{len(self.arrays)}"
                self._key_of[id(obj)] = key
                self.arrays[key] = obj
            return (_PID_TAG, key)
        return None


class _BlockUnpickler(pickle.Unpickler):
    """Unpickler resolving diverted arrays to views into an attached bundle."""

    def __init__(self, buffer: io.BytesIO, bundle: Optional[SharedArrayBundle]):
        super().__init__(buffer)
        self._bundle = bundle

    def persistent_load(self, pid: Tuple[str, str]) -> np.ndarray:
        tag, key = pid
        if tag != _PID_TAG or self._bundle is None:
            raise pickle.UnpicklingError(f"unsupported persistent reference {pid!r}")
        return self._bundle[key]


@dataclass(frozen=True)
class SharedContextSpec:
    """The picklable wire form of a shared snapshot.

    ``skeleton`` is the context pickle with every large array replaced by a
    persistent reference; ``manifest`` locates those arrays in the shared
    segment (``None`` when nothing was large enough to divert, in which case
    the skeleton is simply a complete pickle).
    """

    skeleton: bytes
    manifest: Optional[SharedManifest]

    @property
    def shared_bytes(self) -> int:
        """Bytes travelling via shared memory instead of the pickle stream."""
        return self.manifest.size if self.manifest is not None else 0


class SharedGeoContext:
    """Parent-side handle owning a snapshot's shared segment.

    Hand :attr:`spec` to worker initializers; keep this object alive for the
    pool's lifetime and :meth:`close` it (or let the executor's finalizer do
    so) when the pool shuts down.
    """

    def __init__(
        self,
        context: "GeoContext",
        spec: SharedContextSpec,
        bundle: Optional[SharedArrayBundle],
    ):
        self._context = context
        self._spec = spec
        self._bundle = bundle

    @property
    def context(self) -> "GeoContext":
        """The original snapshot the spec was exported from."""
        return self._context

    @property
    def spec(self) -> SharedContextSpec:
        """The picklable wire form workers attach from."""
        return self._spec

    @property
    def bundle(self) -> Optional[SharedArrayBundle]:
        """The owning bundle (``None`` when nothing was diverted)."""
        return self._bundle

    @property
    def segment_name(self) -> Optional[str]:
        """Name of the shared segment, when one exists."""
        return self._bundle.segment_name if self._bundle is not None else None

    def close(self) -> None:
        """Unlink the shared segment (idempotent)."""
        if self._bundle is not None:
            self._bundle.close()

    def __enter__(self) -> "SharedGeoContext":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


def share_context(
    context: "GeoContext", min_shared_bytes: int = MIN_SHARED_BYTES
) -> SharedGeoContext:
    """Export a snapshot's numpy blocks to shared memory, skeleton-pickling the rest.

    The returned handle owns the segment; its :attr:`~SharedGeoContext.spec`
    is what travels to workers (small: Python objects only).
    """
    names = {id(array): key for key, array in context.precompiled_blocks().items()}
    buffer = io.BytesIO()
    pickler = _BlockPickler(buffer, names, min_shared_bytes)
    pickler.dump(context)
    bundle = SharedArrayBundle.create(pickler.arrays) if pickler.arrays else None
    spec = SharedContextSpec(
        skeleton=buffer.getvalue(),
        manifest=bundle.manifest if bundle is not None else None,
    )
    return SharedGeoContext(context, spec, bundle)


def attach_context(spec: SharedContextSpec) -> Tuple["GeoContext", Optional[SharedArrayBundle]]:
    """Rebuild a :class:`GeoContext` whose arrays are views into the shared segment.

    Returns the context and the attached bundle; the caller must keep the
    bundle referenced for as long as the context is used (the views alias its
    mapping) and must *not* unlink — the creating process owns the segment.
    """
    bundle = (
        SharedArrayBundle.attach(spec.manifest) if spec.manifest is not None else None
    )
    context = _BlockUnpickler(io.BytesIO(spec.skeleton), bundle).load()
    return context, bundle
