"""Zero-copy shared-memory transport for large arrays.

Process-parallel frames (:mod:`repro.engine.tile_parallel`) move two kinds
of payloads between the caller and its workers: *frame state* (the
renderer's model and grid arrays, the frame's tile rectangles and voxel
orders) and *render outputs* (image / alpha buffers, per-Gaussian weight
accumulators).  Pickling them per task would copy every array twice
(serialize + deserialize).

This module makes those transfers metadata-only:

* :class:`SharedArrayHandle` — a reference to an ndarray living in a
  ``multiprocessing.shared_memory`` segment.  It pickles as *metadata*
  (segment name, shape, dtype) and reattaches lazily in the receiving
  process; attaching maps the same physical pages, so the bytes are never
  copied.  Hosts without usable shared memory (no ``/dev/shm``, sandboxed
  hosts) raise :class:`SharedMemoryUnavailable`, and callers render
  in-process instead.
* :class:`ShmRegistry` — owns the segments a process creates: publishes
  read-only arrays, allocates writable output buffers, guarantees
  ``unlink`` on :meth:`ShmRegistry.close` / interpreter exit (``atexit``),
  and keeps leak accounting (``segments_created`` / ``segments_unlinked``
  / :meth:`active_segments`).  Registries are fork-safe: a child process
  inheriting one never unlinks the parent's segments.
* :class:`ShmPackage` — shm-aware pickling of *arbitrary* objects.  A
  custom pickler routes every large ndarray inside the object graph
  (whole renderers, frame state) through the registry and replaces it
  with a handle; everything else pickles normally.  ``pack`` returns a
  package whose pickled size is what actually crosses the process
  boundary — the zero-copy claim is measurable, not asserted (the
  frame telemetry's ``pickled_bytes``).

Attached arrays are **read-only views**: mutating shared scene state from
a worker would be a cross-process data race, so NumPy's writeable flag is
dropped on attach.  Writable buffers (render outputs) are allocated
explicitly via :meth:`ShmRegistry.allocate` and attached with
``writable=True`` by the worker that owns the disjoint region.

Python < 3.13 registers *attached* segments with the resource tracker as
if the attaching process owned them, which both spams "leaked
shared_memory" warnings and lets a worker's exit unlink segments the
parent still uses; :func:`_attach_segment` suppresses the attach-time
registration so cleanup stays with the creating registry.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import os
import pickle
import secrets
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos import fault as _chaos_fault

try:  # pragma: no cover - import guard for exotic builds without _posixshmem
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Arrays at least this large are routed through shared memory by
#: :meth:`ShmPackage.pack`; smaller ones pickle faster than a segment
#: create + mmap round trip.
DEFAULT_SHARE_THRESHOLD_BYTES = 1 << 15  # 32 KiB

#: Prefix of every segment name this module creates; leak checks (and the
#: fault-injection tests) scan ``/dev/shm`` for it.
SEGMENT_PREFIX = "rg"

#: Tag marking a persistent-id entry of the shm pickler.
_PICKLE_TAG = "repro.shm.array"

#: Tag marking a small array bundled into the package's consolidated
#: segment (the persistent id carries an index into the entry table).
_PACKED_TAG = "repro.shm.packed"

#: Small arrays at least this large join the consolidated segment; below
#: it plain pickling is already as compact as the entry metadata.
DEFAULT_CONSOLIDATE_MIN_BYTES = 64

#: Offsets inside the consolidated segment are aligned to this, so every
#: reconstructed view is itemsize-aligned for any standard dtype.
_CONSOLIDATE_ALIGN = 16


class SharedMemoryUnavailable(RuntimeError):
    """Shared-memory segments cannot be created on this host."""


# ----------------------------------------------------------------------
# Process-wide attachment cache.
# ----------------------------------------------------------------------
# One SharedMemory object per attached segment per process: the mapping
# must stay alive as long as any array view into it does, and re-attaching
# per handle would mmap the same pages repeatedly.  Guarded by a lock —
# threads of one process may attach concurrently.
_ATTACHMENTS: Dict[str, "_shared_memory.SharedMemory"] = {}
_ATTACH_LOCK = threading.Lock()
_ATTACH_PID = os.getpid()


def _attach_segment(name: str) -> "_shared_memory.SharedMemory":
    """Map an existing segment, once per process, tracker-neutral."""
    global _ATTACH_PID
    if _shared_memory is None:  # pragma: no cover - guarded import
        raise SharedMemoryUnavailable("multiprocessing.shared_memory is unavailable")
    if _chaos_fault("shm.attach_fail") is not None:
        # Simulated attach failure (e.g. the segment's creator is gone or
        # /dev/shm is exhausted).
        raise SharedMemoryUnavailable(f"injected: cannot attach segment {name!r}")
    with _ATTACH_LOCK:
        # A forked child inherits the parent's cache; its SharedMemory
        # objects (fds, mmaps) survive the fork, so inherited entries are
        # usable as-is — only the pid stamp needs refreshing.
        if _ATTACH_PID != os.getpid():
            _ATTACH_PID = os.getpid()
        segment = _ATTACHMENTS.get(name)
        if segment is None:
            # Attaching registers with the resource tracker as if this
            # process owned the segment (fixed in 3.13).  Registering and
            # then unregistering is not atomic across processes — two
            # workers attaching the same segment can interleave as
            # REG/REG/UNREG/UNREG, where the second UNREG hits an empty
            # tracker cache (KeyError noise at exit) — so suppress the
            # registration instead of undoing it.  The creator's create-
            # time registration stands and cleanup stays exactly once
            # with the owning registry.
            with _suppressed_tracker_register():
                segment = _shared_memory.SharedMemory(name=name)
            _ATTACHMENTS[name] = segment
        return segment


@contextlib.contextmanager
def _suppressed_tracker_register():
    """No-op the resource tracker's ``register`` for the enclosed attach.

    Serialized by ``_ATTACH_LOCK``; only this process's view of the module
    is patched, so concurrent attaches in *other* processes are unaffected
    (each suppresses its own registration independently).
    """
    try:  # pragma: no cover - version/platform dependent
        from multiprocessing import resource_tracker
    except Exception:
        yield
        return
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original


def _register_with_tracker(name: str) -> None:
    """(Re-)register a segment with the resource tracker (set semantics)."""
    try:  # pragma: no cover - version/platform dependent
        from multiprocessing import resource_tracker

        resource_tracker.register(f"/{name}", "shared_memory")
    except Exception:
        pass


def detach_all() -> int:
    """Drop this process's attachment cache; returns how many were mapped.

    Arrays still viewing the detached segments keep their mapping alive
    through the underlying ``memoryview``; this only releases the cache's
    own references (used by tests and long-lived workers between jobs).
    """
    with _ATTACH_LOCK:
        names = list(_ATTACHMENTS)
        for name in names:
            segment = _ATTACHMENTS.pop(name)
            try:
                segment.close()
            except (BufferError, OSError):  # views still alive — keep mapped
                _ATTACHMENTS[name] = segment
        return len(names)


def shm_available() -> bool:
    """Whether this host can create shared-memory segments at all."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if _shared_memory is None:
            _SHM_AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _SHM_AVAILABLE = True
            except Exception:
                _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


_SHM_AVAILABLE: Optional[bool] = None


# ----------------------------------------------------------------------
# Handles.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArrayHandle:
    """A picklable reference to an ndarray in a shared-memory segment.

    The handle is pure metadata — pickling it costs ~100 bytes no matter
    how large the array is.  :meth:`array` reattaches lazily in whatever
    process unpickles it.
    """

    segment: str
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int

    def array(self, writable: bool = False) -> np.ndarray:
        """The referenced array: a zero-copy view of the segment.

        The view maps the segment's pages — read-only by default;
        ``writable=True`` is for output buffers whose disjoint regions the
        caller owns.

        Lifetime: the view stays valid only while the segment is mapped
        in this process — until the owning registry's :meth:`close` in
        the creating process, or :func:`detach_all` in an attaching one.
        Copy (``view.copy()``) anything that must outlive the registry;
        numpy cannot pin the mapping for you.
        """
        segment = _attach_segment(self.segment)
        view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=segment.buf)
        view.flags.writeable = bool(writable)
        return view


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
class ShmRegistry:
    """Owner of the shared-memory segments one process creates.

    Every publish/allocate records the segment for cleanup;
    :meth:`close` (aliased :meth:`unlink_all`) closes and unlinks them
    all and is guaranteed to run at interpreter exit via ``atexit`` for
    registries that still own segments.  A forked child inheriting the
    registry object is a no-op owner: cleanup only acts in the creating
    process, so worker exits can never reap the parent's segments.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, "_shared_memory.SharedMemory"] = {}
        self._owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._seq = 0
        self.segments_created = 0
        self.segments_unlinked = 0
        self.bytes_published = 0
        self.closed = False
        atexit.register(self._atexit_close)

    # -- creation ------------------------------------------------------
    def _new_segment(self, nbytes: int) -> "_shared_memory.SharedMemory":
        if _shared_memory is None:
            raise SharedMemoryUnavailable("multiprocessing.shared_memory is unavailable")
        if self.closed:
            raise RuntimeError("shm registry is closed")
        with self._lock:
            self._seq += 1
            seq = self._seq
        # Short explicit names (macOS caps POSIX shm names at 31 chars)
        # with a recognisable prefix so leak checks can scan /dev/shm.
        name = f"{SEGMENT_PREFIX}{os.getpid():x}-{seq:x}-{secrets.token_hex(3)}"
        segment = _shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
        with self._lock:
            self._segments[segment.name] = segment
            self.segments_created += 1
            self.bytes_published += nbytes
        return segment

    def publish(self, array: np.ndarray) -> SharedArrayHandle:
        """Copy ``array`` into a new segment and return its handle.

        The one copy of the array's life: every worker that attaches the
        handle afterwards maps the same pages.  Non-contiguous input is
        compacted first.  Raises :class:`SharedMemoryUnavailable` when the
        host has no usable shared memory, ``ValueError`` for object-dtype
        arrays (which cannot be shared) and ``OSError`` when a segment
        cannot be created.
        """
        array = np.asarray(array)
        if array.dtype.hasobject:
            raise ValueError("object-dtype arrays cannot be shared")
        if not shm_available():
            raise SharedMemoryUnavailable("cannot publish shared arrays on this host")
        contiguous = np.ascontiguousarray(array)
        segment = self._new_segment(contiguous.nbytes)
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)
        view[...] = contiguous
        return SharedArrayHandle(
            segment=segment.name,
            shape=tuple(contiguous.shape),
            dtype=contiguous.dtype.str,
            nbytes=int(contiguous.nbytes),
        )

    def allocate(self, shape: Tuple[int, ...], dtype: Any = np.float64) -> SharedArrayHandle:
        """A zero-initialised writable shared buffer (render outputs).

        Raises :class:`SharedMemoryUnavailable` when the host has no usable
        shared memory, for the caller to degrade on.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if not shm_available():
            raise SharedMemoryUnavailable("cannot allocate shared output buffers")
        segment = self._new_segment(nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        view[...] = 0
        return SharedArrayHandle(
            segment=segment.name,
            shape=tuple(shape),
            dtype=dtype.str,
            nbytes=nbytes,
        )

    # -- cleanup -------------------------------------------------------
    def active_segments(self) -> List[str]:
        """Names of segments this registry still owns (leak accounting)."""
        with self._lock:
            return sorted(self._segments)

    def unlink_all(self) -> int:
        """Close and unlink every owned segment; returns how many.

        Safe in forked children (does nothing: the parent owns cleanup)
        and safe to call repeatedly.  Workers still mapping an unlinked
        segment keep their view — POSIX frees the pages when the last
        mapping goes, only the name disappears immediately.
        """
        if os.getpid() != self._owner_pid:
            return 0
        with self._lock:
            segments = list(self._segments.items())
            self._segments.clear()
        unlinked = 0
        for name, segment in segments:
            # The creating process may also hold attachments (self-render
            # paths); drop the cached mapping before closing the canonical
            # one so the buffer is actually released.
            with _ATTACH_LOCK:
                cached = _ATTACHMENTS.pop(name, None)
            if cached is not None and cached is not segment:
                try:
                    cached.close()
                except (BufferError, OSError):
                    pass
            try:
                segment.close()
            except (BufferError, OSError):  # pragma: no cover - views alive
                pass
            try:
                # A fork-pool worker that attached this segment shares our
                # resource tracker and unregistered the name on attach;
                # re-registering (set semantics — duplicates are no-ops)
                # keeps the tracker balanced for the unregister inside
                # ``unlink`` regardless of who attached in between.
                _register_with_tracker(name)
                segment.unlink()
                unlinked += 1
            except FileNotFoundError:  # pragma: no cover - already gone
                unlinked += 1
            except OSError:  # pragma: no cover - platform quirk
                pass
        with self._lock:
            self.segments_unlinked += unlinked
        return unlinked

    def close(self) -> None:
        """Unlink everything and refuse further publishes."""
        self.unlink_all()
        self.closed = True
        atexit.unregister(self._atexit_close)

    def _atexit_close(self) -> None:  # pragma: no cover - interpreter exit
        try:
            self.unlink_all()
        except Exception:
            pass

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting ----------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "segments_created": self.segments_created,
                "segments_unlinked": self.segments_unlinked,
                "segments_active": len(self._segments),
                "bytes_published": self.bytes_published,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"ShmRegistry(active={stats['segments_active']}, "
            f"created={stats['segments_created']}, "
            f"bytes={stats['bytes_published']})"
        )


def leaked_segments() -> List[str]:
    """Repro-created segment names currently visible in ``/dev/shm``.

    The lifecycle tests' ground truth: after ``Session.close()`` (or a
    worker death, or an interrupt) this must not contain segments from
    registries that were closed.  Hosts without a ``/dev/shm`` directory
    report nothing (the kernel namespace is not enumerable there).
    """
    root = "/dev/shm"
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(SEGMENT_PREFIX))


# ----------------------------------------------------------------------
# Whole-object packaging.
# ----------------------------------------------------------------------
class _ShmPickler(pickle.Pickler):
    """Pickler that swaps large ndarrays for shared-memory handles.

    Arrays at or above ``threshold`` get their own segment (zero-copy
    attach on the receiving side).  Arrays between ``consolidate_min``
    and the threshold — the long tail of camera poses, per-tile index
    lists and small lookup tables that used to ride pickled in the
    payload — are *consolidated*: their bytes are staged for one shared
    segment per package and the payload keeps only an index.  The staging
    table lives on the pickler; :meth:`ShmPackage.pack` publishes it
    after the dump.
    """

    def __init__(
        self,
        file,
        registry: ShmRegistry,
        threshold: int,
        consolidate_min: Optional[int] = DEFAULT_CONSOLIDATE_MIN_BYTES,
    ) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._registry = registry
        self._threshold = threshold
        #: ``None`` disables consolidation.
        self._consolidate_min = consolidate_min
        self.shared_arrays = 0
        self.shared_bytes = 0
        #: Staged small arrays: contiguous copies + their (offset, shape,
        #: dtype) entries; ``_packed_index`` dedupes repeated references
        #: to one object (id-keyed; ``_packed`` also keeps them alive so
        #: ids cannot be recycled mid-dump).
        self._packed: List[np.ndarray] = []
        self._packed_index: Dict[int, int] = {}
        self.packed_entries: List[Tuple[int, Tuple[int, ...], str]] = []
        self.packed_cursor = 0

    def persistent_id(self, obj: Any) -> Optional[Tuple[str, Any]]:
        if not isinstance(obj, np.ndarray) or obj.dtype.hasobject:
            return None
        if obj.nbytes >= self._threshold:
            handle = self._registry.publish(obj)
            self.shared_arrays += 1
            self.shared_bytes += handle.nbytes
            return (_PICKLE_TAG, handle)
        if (
            self._consolidate_min is not None
            and obj.nbytes >= self._consolidate_min
        ):
            index = self._packed_index.get(id(obj))
            if index is None:
                contiguous = np.ascontiguousarray(obj)
                offset = self.packed_cursor
                index = len(self.packed_entries)
                self._packed_index[id(obj)] = index
                self._packed.append(contiguous)
                self.packed_entries.append(
                    (offset, tuple(obj.shape), contiguous.dtype.str)
                )
                step = contiguous.nbytes + _CONSOLIDATE_ALIGN - 1
                self.packed_cursor = offset + step - step % _CONSOLIDATE_ALIGN
            return (_PACKED_TAG, index)
        return None

    def consolidated_buffer(self) -> Optional[np.ndarray]:
        """One flat uint8 buffer holding every staged small array."""
        if not self._packed:
            return None
        buffer = np.zeros(self.packed_cursor, dtype=np.uint8)
        for array, (offset, _, _) in zip(self._packed, self.packed_entries):
            flat = array.reshape(-1).view(np.uint8)
            buffer[offset : offset + array.nbytes] = flat
        return buffer


class _ShmUnpickler(pickle.Unpickler):
    """Unpickler resolving shm handles back to zero-copy array views."""

    def __init__(
        self,
        file,
        consolidated: Optional[SharedArrayHandle] = None,
        entries: Tuple[Tuple[int, Tuple[int, ...], str], ...] = (),
    ) -> None:
        super().__init__(file)
        self._consolidated = consolidated
        self._entries = entries
        self._base: Optional[np.ndarray] = None
        #: Views memoised per entry index: duplicate references to one
        #: packed array resolve to one object, matching pickle's memo
        #: semantics for normally-saved objects.
        self._views: Dict[int, np.ndarray] = {}

    def persistent_load(self, pid: Tuple[str, Any]) -> np.ndarray:
        tag, ref = pid
        if tag == _PICKLE_TAG:
            return ref.array(writable=False)
        if tag == _PACKED_TAG:
            return self._packed_view(int(ref))
        raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")

    def _packed_view(self, index: int) -> np.ndarray:
        cached = self._views.get(index)
        if cached is not None:
            return cached
        if self._consolidated is None or index >= len(self._entries):
            raise pickle.UnpicklingError(
                f"payload references consolidated array {index} but the "
                "package carries no matching segment entry"
            )
        if self._base is None:
            self._base = self._consolidated.array(writable=False).reshape(-1)
        offset, shape, dtype_str = self._entries[index]
        dtype = np.dtype(dtype_str)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        view = self._base[offset : offset + nbytes].view(dtype).reshape(shape)
        view.flags.writeable = False
        self._views[index] = view
        return view


@dataclass
class ShmPackage:
    """An object pickled with its large arrays externalised to shm.

    ``payload`` is what actually crosses the process boundary (pickled
    bytes of the object graph minus the shared arrays); ``segments``
    names the segments the payload references, kept alive by the
    publishing registry.  The package itself pickles cheaply, so it can
    ride in any pool submit.

    Large arrays (>= threshold) each get their own segment; the long tail
    of *small* arrays is bundled into one ``consolidated`` segment whose
    layout lives in ``consolidated_entries``, so the payload carries
    index-sized references instead of their pickled bytes.
    """

    payload: bytes
    segments: Tuple[str, ...] = ()
    shared_arrays: int = 0
    shared_bytes: int = 0
    #: The one segment bundling every sub-threshold array of the package.
    consolidated: Optional[SharedArrayHandle] = None
    #: Per-array (offset, shape, dtype) layout of the consolidated segment.
    consolidated_entries: Tuple[Tuple[int, Tuple[int, ...], str], ...] = ()
    consolidated_arrays: int = 0
    consolidated_bytes: int = 0

    @property
    def pickled_bytes(self) -> int:
        """Bytes that get copied per transfer (the payload, not the arrays)."""
        return len(self.payload)

    @staticmethod
    def pack(
        obj: Any,
        registry: ShmRegistry,
        threshold: int = DEFAULT_SHARE_THRESHOLD_BYTES,
        consolidate_min: Optional[int] = DEFAULT_CONSOLIDATE_MIN_BYTES,
    ) -> "ShmPackage":
        """Package ``obj``, publishing its large arrays into ``registry``.

        ``consolidate_min`` sets the floor for the consolidated-segment
        bundle (``None`` disables it — every sub-threshold array pickles
        into the payload).  Raises :class:`SharedMemoryUnavailable` when
        ``obj`` holds an array to share and the host has no usable shared
        memory.
        """
        before = set(registry.active_segments())
        buffer = io.BytesIO()
        pickler = _ShmPickler(buffer, registry, threshold, consolidate_min)
        pickler.dump(obj)
        consolidated: Optional[SharedArrayHandle] = None
        entries: Tuple[Tuple[int, Tuple[int, ...], str], ...] = ()
        consolidated_bytes = 0
        bundle = pickler.consolidated_buffer()
        if bundle is not None:
            consolidated = registry.publish(bundle)
            entries = tuple(pickler.packed_entries)
            consolidated_bytes = sum(
                int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
                for _, shape, dtype in entries
            )
        segments = tuple(sorted(set(registry.active_segments()) - before))
        return ShmPackage(
            payload=buffer.getvalue(),
            segments=segments,
            shared_arrays=pickler.shared_arrays,
            shared_bytes=pickler.shared_bytes,
            consolidated=consolidated,
            consolidated_entries=entries,
            consolidated_arrays=len(entries),
            consolidated_bytes=consolidated_bytes,
        )

    def unpack(self) -> Any:
        """Reconstruct the object; shared arrays come back as read-only views."""
        return _ShmUnpickler(
            io.BytesIO(self.payload),
            consolidated=self.consolidated,
            entries=self.consolidated_entries,
        ).load()
