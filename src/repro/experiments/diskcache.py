"""Content-addressed on-disk store for simulation results.

The per-process memoization in :mod:`repro.experiments.runner` dies
with the process, so every fresh benchmark invocation used to pay for
the whole §6 grid again.  This module persists each
(workload × prefetcher × config) result under a SHA-256 of its cache
key so that repeated invocations — and parallel sweep workers — reuse
finished simulations.

Layout (see docs/SWEEP_CACHE.md)::

    <root>/<digest[:2]>/<digest>.pkl

Entries are sharded into 256 two-hex-character subdirectories so a
10^5-entry store never puts more than a few hundred files in one
directory.  This is the only layout read: keys carry the source digest
(:func:`repro.experiments.inputs.source_digest`), so no entry written
by an older layout (flat ``<root>/<digest>.pkl`` files, pre-checksum
pickles) can match a key any more; ``clear`` still removes them.

Each file is a pickled *envelope* wrapping the pickled payload bytes
with their SHA-256::

    {"sha256": "<hex digest of payload bytes>", "payload": b"..."}

where the inner payload is the caller's dict::

    {"schema": SCHEMA_VERSION, "key": <full key string>,
     "stats": SimStats.state_dict(), "miss_map": dict | None}

Robustness contract (docs/RESILIENCE.md): writes are atomic
(temp file + fsync + ``os.replace``), so a killed process can never
leave a half-written entry under a live name; reads verify the
checksum, and an unreadable, truncated, or bit-flipped file is
**quarantined** — moved aside to ``<name>.pkl.corrupt`` and reported
to the registered corruption listeners — then treated as a plain
miss.  Corruption is never an exception to the caller.

Environment knobs:

``REPRO_CACHE_DIR``
    Cache root (default ``~/.cache/repro-hp/sim``).
``REPRO_DISK_CACHE``
    Set to ``0``/``off``/``false`` to disable persistence entirely.
``REPRO_CACHE_MIN_FREE``
    Free-space floor in bytes (default 32 MiB): writes that would land
    on a volume with less headroom than this (or than twice the entry
    size, whichever is larger) are *refused* — reported to the
    corruption listeners as a
    :class:`~repro.experiments.errors.DiskFullError` — rather than
    risk torn writes racing ENOSPC.  ``0`` disables the guard; any
    value that is not a non-negative integer is an
    :class:`~repro.experiments.errors.InvalidConfigError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterator, List, Optional

from repro.experiments.errors import (
    CorruptArtifactError,
    DiskFullError,
    InvalidConfigError,
)

#: Bump whenever the payload layout or the meaning of cached counters
#: changes; old entries are then ignored (and lazily overwritten).
SCHEMA_VERSION = 1

#: Suffix appended to quarantined entry files.
QUARANTINE_SUFFIX = ".corrupt"

#: Shard directories are exactly two lowercase hex characters; nothing
#: else under the root (``runs``, stray files) is ever touched by
#: compaction.
_SHARD_DIR = re.compile(r"^[0-9a-f]{2}$")

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_DISK_CACHE"
_ENV_MIN_FREE = "REPRO_CACHE_MIN_FREE"

#: Default free-space floor for cache writes (bytes).
DEFAULT_MIN_FREE_BYTES = 32 * 1024 * 1024


def min_free_bytes() -> int:
    """The configured free-space floor (``REPRO_CACHE_MIN_FREE``), or
    :data:`DEFAULT_MIN_FREE_BYTES` when unset.  ``0`` disables the
    disk-space guard; a value that is not a non-negative integer raises
    :class:`~repro.experiments.errors.InvalidConfigError`."""
    raw = os.environ.get(_ENV_MIN_FREE, "").strip()
    if not raw:
        return DEFAULT_MIN_FREE_BYTES
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise InvalidConfigError(
            f"{_ENV_MIN_FREE}={raw!r} is not a non-negative integer "
            "byte count (0 disables the disk-space guard)")
    return value

#: Callables invoked with a :class:`CorruptArtifactError` each time any
#: DiskCache instance quarantines a file (runner uses this to surface a
#: ``cache_corrupt`` counter without a dependency cycle).
_CORRUPTION_LISTENERS: List[Callable[[CorruptArtifactError], None]] = []


def add_corruption_listener(
        listener: Callable[[CorruptArtifactError], None]) -> None:
    """Register ``listener`` for quarantine events (idempotent)."""
    if listener not in _CORRUPTION_LISTENERS:
        _CORRUPTION_LISTENERS.append(listener)


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-hp" / "sim"


def disk_cache_enabled() -> bool:
    """Whether on-disk persistence is active for this process."""
    value = os.environ.get(_ENV_ENABLE, "1").strip().lower()
    return value not in ("0", "off", "false", "no")


def key_digest(key: str) -> str:
    """Content address for a cache key string."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class DiskCache:
    """A tiny content-addressed, checksummed pickle store.

    Values are opaque payload dicts; schema/key validation lives in the
    caller (:mod:`repro.experiments.runner`) so this class stays a dumb,
    crash-tolerant byte store.  What it *does* own is byte integrity:
    every entry carries a SHA-256 of its payload bytes, verified on
    read, with corrupt files quarantined instead of served or raised.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        #: Files this instance has quarantined since construction.
        self.corrupt_count = 0
        #: Writes this instance refused for lack of disk headroom.
        self.refused_writes = 0

    def path_for(self, key: str) -> Path:
        digest = key_digest(key)
        return self.root / digest[:2] / f"{digest}.pkl"

    # -- read ----------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Load the payload for ``key``; None on miss or (after
        quarantining the file) on corruption."""
        return self._read(self.path_for(key))[1]

    def _read(self, path: Path) -> "tuple[bool, Optional[dict]]":
        """Load + verify one entry file.

        Returns ``(found, payload)``: ``(False, None)`` for a plain
        miss, ``(True, None)`` when the file existed but was corrupt
        (it has been quarantined), and ``(True, payload)`` on success.
        """
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError) as exc:
            return True, self._quarantine(
                path, f"undecodable entry: {exc!r}")
        if not isinstance(envelope, dict) or "sha256" not in envelope \
                or "payload" not in envelope:
            return True, self._quarantine(
                path, "entry is not a checksum envelope")
        blob = envelope["payload"]
        if not isinstance(blob, bytes) or \
                hashlib.sha256(blob).hexdigest() != envelope["sha256"]:
            return True, self._quarantine(path, "checksum mismatch")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            return True, self._quarantine(
                path, f"undecodable payload: {exc!r}")
        if not isinstance(payload, dict):
            return True, self._quarantine(path, "payload is not a dict")
        return True, payload

    def quarantine(self, key: str, reason: str) -> None:
        """Quarantine ``key``'s entry: for a payload that passed the
        checksum but that its caller cannot decode."""
        path = self.path_for(key)
        if path.is_file():
            self._quarantine(path, reason)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside to ``<name>.corrupt`` and notify
        listeners; returns None so callers can ``return
        self._quarantine(...)`` as a miss."""
        target: Optional[Path] = path.with_name(
            path.name + QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            target = None
            try:
                path.unlink()
            except OSError:
                pass
        self.corrupt_count += 1
        error = CorruptArtifactError(path, reason, quarantined_to=target)
        for listener in list(_CORRUPTION_LISTENERS):
            try:
                listener(error)
            except Exception:
                pass  # observability must never break the cache
        return None

    # -- write ---------------------------------------------------------
    def put(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``.

        The payload is pickled, wrapped in a checksum envelope, written
        to a temp file in the same directory, fsynced, then renamed
        into place — a killed process can never leave a half-written
        entry under a live name.  Write failures (read-only FS, disk
        full) are swallowed: the cache is an accelerator, never a
        correctness dependency.

        When the volume's free space is below the configured floor
        (:func:`min_free_bytes`, or twice the entry size if larger)
        the write is **refused** before any bytes land: corruption
        listeners get a :class:`~repro.experiments.errors.
        DiskFullError` and the caller sees nothing — better no entry
        than a torn one fighting ENOSPC.
        """
        path = self.path_for(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": blob,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if self._refuse_if_full(path, len(blob)):
                return
            # lint: ordered[atomic-replace]
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(envelope, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
                # lint: ordered-end
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def _refuse_if_full(self, path: Path, blob_size: int) -> bool:
        """True when the write at ``path`` must be refused for lack of
        disk headroom (listeners have been notified)."""
        floor = min_free_bytes()
        if floor <= 0:
            return False
        needed = max(floor, 2 * blob_size)
        try:
            free = shutil.disk_usage(path.parent).free
        except OSError:
            return False  # cannot measure: fall through to the write
        if free >= needed:
            return False
        self.refused_writes += 1
        error = DiskFullError(
            path,
            f"write refused: {free} bytes free < {needed} required",
            free_bytes=free, needed_bytes=needed)
        for listener in list(_CORRUPTION_LISTENERS):
            try:
                listener(error)
            except Exception:
                pass  # observability must never break the cache
        return True

    # -- maintenance ---------------------------------------------------
    def _shards(self) -> List[Path]:
        """The two-hex-character shard directories (never ``runs`` or
        ``inputs``)."""
        if not self.root.is_dir():
            return []
        return [d for d in sorted(self.root.iterdir())
                if d.is_dir() and _SHARD_DIR.match(d.name)]

    def entries(self) -> Iterator[Path]:
        """All live entry files currently in the store (quarantined
        ``*.corrupt`` sidecars excluded)."""
        for shard in self._shards():
            yield from sorted(shard.glob("*.pkl"))

    def quarantined(self) -> Iterator[Path]:
        """All quarantined sidecar files in the store."""
        for shard in self._shards():
            yield from sorted(shard.glob(f"*{QUARANTINE_SUFFIX}"))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry (quarantined sidecars and files an older
        layout left flat under the root included); returns the number
        of live entries removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        stale = list(self.quarantined())
        if self.root.is_dir():
            stale += self.root.glob("*.pkl")
            stale += self.root.glob(f"*{QUARANTINE_SUFFIX}")
        for path in stale:
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Summary counters for ``repro cache info``."""
        entries = list(self.entries())
        try:
            free = shutil.disk_usage(
                self.root if self.root.is_dir()
                else self.root.parent).free
        except OSError:
            free = None
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries
                         if p.is_file()),
            "quarantined": sum(1 for _ in self.quarantined()),
            "shard_dirs": len(self._shards()),
            "free_bytes": free,
            "min_free_bytes": min_free_bytes(),
        }

    def compact(self, purge_quarantined: bool = True) -> "CompactReport":
        """One maintenance pass over the whole store:

        * re-verify every entry and drop payloads whose
          ``schema`` no longer matches :data:`SCHEMA_VERSION` — the
          runner would ignore and lazily overwrite them anyway, this
          reclaims the bytes eagerly;
        * optionally delete quarantined ``*.corrupt`` sidecars
          (``purge_quarantined``, default on);
        * remove shard directories left empty.

        ``runs`` (the run journals) and anything else that is not a
        two-hex-char shard directory is never touched.
        """
        report = CompactReport()
        for path in list(self.entries()):
            found, payload = self._read(path)
            if not found or payload is None:
                report.quarantined += found
                continue
            if payload.get("schema") != SCHEMA_VERSION:
                try:
                    path.unlink()
                    report.stale_dropped += 1
                except OSError:
                    pass
        if purge_quarantined:
            for sidecar in list(self.quarantined()):
                try:
                    sidecar.unlink()
                    report.purged_sidecars += 1
                except OSError:
                    pass
        # Sweep away shard dirs emptied by the drops above.
        for shard in self._shards():
            try:
                shard.rmdir()  # fails unless empty
                report.empty_dirs_removed += 1
            except OSError:
                pass
        report.entries = len(self)
        report.bytes = self.size_bytes()
        return report

    def __repr__(self) -> str:
        return f"DiskCache({str(self.root)!r})"


@dataclasses.dataclass
class CompactReport:
    """What one :meth:`DiskCache.compact` pass did."""

    quarantined: int = 0         #: corrupt entries moved aside
    stale_dropped: int = 0       #: entries with an outdated schema
    purged_sidecars: int = 0     #: ``*.corrupt`` sidecars deleted
    empty_dirs_removed: int = 0  #: emptied shard dirs removed
    entries: int = 0             #: live entries after the pass
    bytes: int = 0               #: store size after the pass

    def describe(self) -> str:
        return (f"quarantined "
                f"{self.quarantined}, dropped {self.stale_dropped} "
                f"stale, purged {self.purged_sidecars} sidecar(s), "
                f"removed {self.empty_dirs_removed} empty dir(s); "
                f"{self.entries} entries, {self.bytes} bytes")


_DEFAULT: Optional[DiskCache] = None


def get_cache() -> DiskCache:
    """The process-wide cache at the configured root (lazily built)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = DiskCache(default_cache_dir())
    return _DEFAULT


def set_cache_dir(root: Optional[os.PathLike]) -> Optional[Path]:
    """Point the process-wide cache at ``root`` (None = re-resolve from
    the environment on next use).  Returns the previous root so tests
    can restore it."""
    global _DEFAULT
    previous = _DEFAULT.root if _DEFAULT is not None else None
    _DEFAULT = DiskCache(root) if root is not None else None
    return previous
