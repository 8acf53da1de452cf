"""Disk-backed, content-addressed store of experiment results.

A :class:`ResultStore` persists every
:class:`~repro.api.result.ExperimentResult` as one JSON file keyed by a
canonical hash of the :class:`~repro.api.spec.ExperimentSpec` that produced
it (scene x algorithm x compression x config overrides x arch model x
resolution scale), so repeated sweeps and CI runs skip evaluation points
they have already computed.

Keys are *content addressed*: the hash covers the canonical JSON form of
the spec (sorted keys, so override-dict ordering never matters) together
with the store schema version and the package version — bumping either
automatically invalidates every existing entry without any bookkeeping.
Entries that fail to parse (truncated writes, manual edits) are treated as
misses and dropped, never raised.

All writes — store entries and the benchmark trajectory files
(``BENCH_engine.json`` / ``BENCH_sweep.json``, see
:func:`append_trajectory`) — are atomic: the payload is written to a
temporary file in the same directory and then renamed over the target, so
concurrent or interrupted writers cannot truncate a file mid-read.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

try:  # advisory cross-process locking; POSIX only
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import repro
from repro.api.result import ExperimentResult, jsonify
from repro.api.spec import ExperimentSpec
from repro.chaos import fault as _chaos_fault

#: Bump when the on-disk entry layout or the spec-hash inputs change; every
#: existing entry becomes invisible (stale files are overwritten lazily).
#: v2: keys hash :meth:`ExperimentSpec.canonical_dict` (default-equal
#: overrides dropped, numerics normalized) instead of the raw ``to_dict``.
STORE_SCHEMA_VERSION = 2


@contextlib.contextmanager
def advisory_file_lock(path: Union[str, Path]) -> Iterator[None]:
    """Exclusive cross-process advisory lock on ``path`` (``flock``).

    Serializes writers that share one store directory — e.g. concurrent
    ``runner all --jobs N`` worker processes, or two daemon actor threads
    putting one key through :func:`atomic_write_json`'s per-process temp
    file — so two puts never interleave.  The lock is *advisory* (readers
    never take it; entry reads stay lock-free because writes are already
    atomic) and degrades to a no-op where ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def atomic_write_json(path: Union[str, Path], data: Any, indent: Optional[int] = 2) -> None:
    """Write ``data`` as JSON to ``path`` atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        tmp.write_text(json.dumps(jsonify(data), indent=indent) + "\n")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()


def append_trajectory(path: Union[str, Path], entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Append one entry to a JSON-list trajectory file, atomically.

    Interrupted or concurrent appends can never truncate the file: the
    updated list is written to a temporary sibling and renamed into place.
    An existing file that fails to parse is moved aside to
    ``<name>.corrupt`` and the trajectory restarts from this entry.
    Returns the trajectory including the new entry.
    """
    path = Path(path)
    trajectory: List[Dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if not isinstance(loaded, list):
                raise ValueError(f"trajectory {path} is not a JSON list")
        except (json.JSONDecodeError, ValueError):
            path.replace(path.with_name(path.name + ".corrupt"))
        else:
            trajectory = loaded
    trajectory.append(dict(entry))
    atomic_write_json(path, trajectory)
    return trajectory


def spec_key(spec: ExperimentSpec, version: Optional[str] = None) -> str:
    """The canonical content hash of one experiment spec.

    Covers the spec's canonical JSON form
    (:meth:`~repro.api.spec.ExperimentSpec.canonical_dict`: sorted keys, so
    override-dict ordering never matters; overrides that restate a default
    dropped, so equivalent-default specs hash identically), the store
    schema version and the package version.  Two specs describing the same
    evaluation point always hash identically; a schema or package version
    bump changes every key.
    """
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "version": version if version is not None else repro.__version__,
        "spec": spec.canonical_dict(),
    }
    blob = json.dumps(jsonify(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_store(store: Any) -> Optional["ResultStore"]:
    """``Session(store=)`` as a store: ``None`` (no caching), a directory
    path, or a :class:`ResultStore`."""
    if store is None or isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, Path)):
        return ResultStore(store)
    raise TypeError(f"cannot use a {type(store).__name__!r} as a result store")


class ResultStore:
    """Content-addressed on-disk cache of experiment results.

    Parameters
    ----------
    root:
        Directory holding the entries (created on demand).  Entries are
        sharded into 256 two-hex-digit subdirectories by key prefix.
    version:
        Version string folded into every key; defaults to the package
        version, so a release bump invalidates the whole store
        automatically.  Tests override it to exercise invalidation.
    """

    def __init__(self, root: Union[str, Path], version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else repro.__version__
        self.hits = 0
        self.misses = 0
        self.healed = 0

    # ------------------------------------------------------------------
    def key(self, spec: ExperimentSpec) -> str:
        """The store key of a spec (see :func:`spec_key`)."""
        return spec_key(spec, version=self.version)

    def path(self, spec: ExperimentSpec) -> Path:
        """The entry file a spec maps to."""
        key = self.key(spec)
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        """The stored result of ``spec``, or ``None`` on a miss.

        Corrupted entries (truncated JSON, wrong shape, key mismatch) are
        removed and reported as misses (and counted in ``healed``), so a
        damaged cache heals itself on the next run instead of failing it.
        """
        path = self.path(spec)
        try:
            entry = json.loads(path.read_text())
            if entry["key"] != self.key(spec):
                raise ValueError("stored entry key mismatch")
            result = ExperimentResult.from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
            self.misses += 1
            self.healed += 1
            return None
        self.hits += 1
        return result

    @property
    def lock_path(self) -> Path:
        """The advisory lock file serializing writers of this store."""
        return self.root / ".lock"

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> Path:
        """Persist one result under its spec's key (atomic write).

        Writers take the store's advisory file lock
        (:func:`advisory_file_lock`), so concurrent writers sharing the
        directory — sharded sweep workers, ``runner all --jobs N``, daemon
        actors — never interleave their puts.
        """
        path = self.path(spec)
        if _chaos_fault("store.enospc") is not None:
            # Simulated full disk: callers treat the cache as best-effort,
            # so the request that produced the result still succeeds.
            raise OSError(errno.ENOSPC, "injected: no space left on device", str(path))
        with advisory_file_lock(self.lock_path):
            atomic_write_json(
                path,
                {
                    "key": self.key(spec),
                    "schema": STORE_SCHEMA_VERSION,
                    "version": self.version,
                    "spec": spec.to_dict(),
                    "result": result.to_dict(),
                },
            )
            if _chaos_fault("store.corrupt_entry") is not None:
                # Simulated corruption after the write: the next get()
                # self-heals the entry back to a miss.
                text = path.read_text()
                path.write_text(text[: max(1, len(text) // 2)])
        return path

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.path(spec).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/heal counters and the number of entries on disk."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "healed": self.healed,
            "entries": len(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r}, version={self.version!r}, entries={len(self)})"
