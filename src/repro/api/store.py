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
    ``runner all --jobs N`` worker processes putting results into the same
    cache — so a put and the eviction scan it may trigger never interleave
    with another process's.  The lock is *advisory* (readers never take
    it; entry reads stay lock-free because writes are already atomic) and
    degrades to a no-op where ``fcntl`` is unavailable.
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


def resolve_store(cache: Any) -> Optional["ResultStore"]:
    """Normalize a ``cache``/``store`` argument to a store (or ``None``).

    Accepts ``None``/``False`` (no caching), a directory path, or a
    :class:`ResultStore`; ``True`` is rejected as ambiguous.  The one
    normalization used by :class:`~repro.api.session.Session` and
    :class:`~repro.api.executor.SweepExecutor`.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        raise ValueError("cache=True is ambiguous; pass a directory or a ResultStore")
    if isinstance(cache, (str, Path)):
        return ResultStore(cache)
    if isinstance(cache, ResultStore):
        return cache
    raise TypeError(f"cannot use a {type(cache).__name__!r} as a result store")


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
    max_bytes:
        Optional size cap on the entries' total on-disk bytes.  Every
        :meth:`put` enforces it by evicting least-recently-used entries
        (by file mtime — :meth:`get` touches entries it returns, so hits
        refresh recency); ``None`` disables eviction.  :meth:`gc` runs the
        same collection on demand.
    """

    def __init__(
        self,
        root: Union[str, Path],
        version: Optional[str] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.version = version if version is not None else repro.__version__
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.healed = 0
        self.evicted = 0
        # Running estimate of the entries' total bytes, so capped puts only
        # pay a full directory scan when the cap is plausibly crossed (gc
        # recomputes it exactly).  None = not measured yet.
        self._approx_bytes: Optional[int] = None

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
        try:
            os.utime(path)  # refresh recency so eviction is LRU, not FIFO
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass
        return result

    @property
    def lock_path(self) -> Path:
        """The advisory lock file serializing writers of this store."""
        return self.root / ".lock"

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> Path:
        """Persist one result under its spec's key (atomic write).

        Writers take the store's advisory file lock
        (:func:`advisory_file_lock`), so concurrent processes sharing the
        directory — sharded sweep workers, ``runner all --jobs N`` — never
        interleave a put with another writer's eviction pass.
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
            if self.max_bytes is not None:
                if self._approx_bytes is not None:
                    try:
                        self._approx_bytes += path.stat().st_size
                    except OSError:  # pragma: no cover - raced away after write
                        self._approx_bytes = None
                if self._approx_bytes is None or self._approx_bytes > self.max_bytes:
                    self._collect(protect=path)
        return path

    def gc(
        self, max_bytes: Optional[int] = None, protect: Optional[Path] = None
    ) -> Dict[str, int]:
        """Evict least-recently-used entries until the store fits the cap.

        ``max_bytes`` overrides the store's configured cap for this pass
        (``None`` uses ``self.max_bytes``; a store without a cap collects
        nothing).  ``protect`` names one entry that is never evicted — the
        entry a :meth:`put` just wrote, so a cap smaller than a single
        result still keeps the freshest one.  Returns a summary of the
        collection: entries/bytes removed and entries/bytes remaining.
        """
        with advisory_file_lock(self.lock_path):
            return self._collect(max_bytes=max_bytes, protect=protect)

    def _collect(
        self, max_bytes: Optional[int] = None, protect: Optional[Path] = None
    ) -> Dict[str, int]:
        """Eviction pass body; callers hold the advisory lock."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        summary = {"removed": 0, "removed_bytes": 0, "entries": 0, "bytes": 0}
        entries = []
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - raced away mid-scan
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if cap is not None:
            for _, size, path in sorted(entries, key=lambda entry: entry[0]):
                if total <= cap:
                    break
                if protect is not None and path == protect:
                    continue
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing cleanup is fine
                    continue
                total -= size
                summary["removed"] += 1
                summary["removed_bytes"] += size
                self.evicted += 1
        summary["entries"] = len(entries) - summary["removed"]
        summary["bytes"] = total
        self._approx_bytes = total
        return summary

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.path(spec).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/heal/eviction counters and the number of entries on disk."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "healed": self.healed,
            "evicted": self.evicted,
            "entries": len(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r}, version={self.version!r}, entries={len(self)})"
