"""Pluggable storage backends for the artifact cache.

The :class:`~repro.pipeline.artifact_cache.ArtifactCache` is two
things: an *accounting and parsing* layer (stable keys, hit/miss
counters, JSON/npz codecs, quarantine-on-parse-failure) and a *byte
store*.  This module is the byte-store seam:

* :class:`LocalDirStorage` — the original on-disk layout
  (``<root>/<kind>/<key[:2]>/<key>.<suffix>`` plus ``.sha256``
  sidecars and a ``.quarantine/`` directory).  Concurrency safety
  comes from atomic rename; it is the default and byte-compatible
  with every cache directory written before this seam existed.
* :class:`SqliteStorage` — one ``index.sqlite`` file holding every
  artifact as a checksummed blob row.  SQLite's WAL journal plus a
  generous busy timeout make it safe for many concurrent *service
  replicas* (processes, threads) sharing one cache over a real
  filesystem, where the directory backend's many-small-files layout
  starts to hurt.  Reads are verified against the stored sha256 and
  corrupt rows are quarantined to ``.quarantine/`` files, exactly
  like the directory backend.

Both backends expose the same small contract (:class:`StorageBackend`)
so the cache's self-healing semantics — verify on load, quarantine
anything torn, report a miss, recompute — hold identically no matter
where the bytes live.

Backend selection (:func:`resolve_storage`): an explicit instance or
name wins, then the ``REPRO_CACHE_STORAGE`` environment variable, then
auto-detection (a root containing ``index.sqlite`` reopens as sqlite —
so a service replica or campaign worker pointed at an existing sqlite
cache joins it without any flag), and finally the local directory
layout.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable

__all__ = [
    "STORAGE_BACKENDS",
    "STORAGE_ENV",
    "SQLITE_INDEX_NAME",
    "StorageBackend",
    "LocalDirStorage",
    "SqliteStorage",
    "resolve_storage",
]

#: Environment override for the storage backend name.
STORAGE_ENV = "REPRO_CACHE_STORAGE"

#: File name that marks (and holds) a sqlite-backed cache root.
SQLITE_INDEX_NAME = "index.sqlite"


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


class StorageBackend(ABC):
    """Byte store for content-addressed artifacts.

    An artifact is addressed by ``(kind, key, suffix)``; payloads are
    opaque bytes produced/consumed through real filesystem paths so
    the cache's codecs (``json``, ``np.load``) stay backend-agnostic.
    """

    #: Registry name (``local``, ``sqlite``).
    name = "?"

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (created on first use)."""
        return self.root / ".quarantine"

    @abstractmethod
    def materialize(self, kind: str, key: str, suffix: str) -> tuple[Path | None, bool]:
        """A verified, readable path for the artifact — or a miss.

        Returns ``(path, quarantined)``: ``path`` is ``None`` when the
        artifact is absent or unreadable; ``quarantined`` is True when
        a corrupt entry was moved out of the live store on this call.
        Call :meth:`release` on the returned path once parsed.
        """

    @abstractmethod
    def store(self, kind: str, key: str, suffix: str, write: Callable[[Path], None]) -> None:
        """Atomically store the artifact ``write`` produces at a temp path."""

    @abstractmethod
    def quarantine(self, kind: str, key: str, suffix: str) -> bool:
        """Move a damaged entry out of the live store; True if moved."""

    @abstractmethod
    def corrupt(self, kind: str, key: str, suffix: str) -> None:
        """Physically tear the stored entry (fault injection only)."""

    def release(self, path: Path) -> None:
        """Done parsing ``path`` (backends may reclaim scratch files)."""

    def close(self) -> None:
        """Release backend resources (connections, scratch space)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(root={str(self.root)!r})"


class LocalDirStorage(StorageBackend):
    """The original ``<kind>/<key[:2]>/<key>.<suffix>`` directory layout.

    Stores are write-temp-then-rename with a trailing ``.sha256``
    sidecar; loads verify the sidecar (entries predating sidecars are
    accepted unchecked) and quarantine mismatches.  Byte-compatible
    with caches written before the storage seam existed.
    """

    name = "local"

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        return self.root / kind / key[:2] / f"{key}{suffix}"

    @staticmethod
    def _checksum_path(path: Path) -> Path:
        return path.with_name(path.name + ".sha256")

    def materialize(self, kind: str, key: str, suffix: str) -> tuple[Path | None, bool]:
        path = self.path_for(kind, key, suffix)
        if not path.exists():
            return None, False
        sidecar = self._checksum_path(path)
        try:
            expected = sidecar.read_text().strip()
        except OSError:
            return path, False  # legacy entry: no sidecar to check against
        try:
            actual = _file_digest(path)
        except OSError:
            return None, False
        if actual == expected:
            return path, False
        return None, self.quarantine(kind, key, suffix)

    def store(self, kind: str, key: str, suffix: str, write: Callable[[Path], None]) -> None:
        path = self.path_for(kind, key, suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
        os.close(fd)
        try:
            write(Path(tmp))
            digest = _file_digest(Path(tmp))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # Sidecar lands after the artifact: a crash in between leaves a
        # legacy (sidecar-less) entry, which loads accept unchecked.
        # Concurrent same-key stores are safe — artifacts are content-
        # addressed, so both writers produce the same digest.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".sha256")
        try:
            os.write(fd, (digest + "\n").encode())
        finally:
            os.close(fd)
        os.replace(tmp, self._checksum_path(path))

    def quarantine(self, kind: str, key: str, suffix: str) -> bool:
        path = self.path_for(kind, key, suffix)
        qdir = self.quarantine_dir
        qdir.mkdir(parents=True, exist_ok=True)
        moved = False
        for victim in (path, self._checksum_path(path)):
            try:
                os.replace(victim, qdir / f"{kind}-{victim.name}")
                moved = True
            except OSError:
                pass
        return moved

    def corrupt(self, kind: str, key: str, suffix: str) -> None:
        path = self.path_for(kind, key, suffix)
        try:
            with open(path, "r+b") as fh:
                fh.truncate(max(path.stat().st_size // 2, 1))
        except OSError:
            pass


class SqliteStorage(StorageBackend):
    """Every artifact as a checksummed blob row in one sqlite file.

    WAL journaling plus a 30 s busy timeout let many processes and
    threads (campaign workers, service replicas) share the cache
    through ordinary sqlite locking; a store is one ``INSERT OR
    REPLACE`` transaction, so readers never observe a torn artifact.
    Loads verify the stored sha256 and spool the blob to a scratch
    file for the cache's path-based codecs; corrupt rows are written
    out to ``.quarantine/`` and deleted, mirroring the directory
    backend's self-healing contract.
    """

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS artifacts (
            kind   TEXT NOT NULL,
            key    TEXT NOT NULL,
            suffix TEXT NOT NULL,
            sha256 TEXT NOT NULL,
            data   BLOB NOT NULL,
            PRIMARY KEY (kind, key, suffix)
        )
    """

    def __init__(self, root: Path):
        import sqlite3  # only caches that use it pay for the import

        super().__init__(root)
        self._lock = threading.RLock()
        self._spool: tempfile.TemporaryDirectory | None = None
        # check_same_thread=False: the serve worker pool loads and
        # stores from several threads; every statement runs under
        # self._lock, so the connection is never used concurrently.
        self._conn = sqlite3.connect(
            self.index_path, timeout=30.0, check_same_thread=False
        )
        with self._lock, self._conn:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(self._SCHEMA)

    @property
    def index_path(self) -> Path:
        return self.root / SQLITE_INDEX_NAME

    def _spool_dir(self) -> Path:
        if self._spool is None:
            self._spool = tempfile.TemporaryDirectory(prefix="repro-sqlite-spool-")
        return Path(self._spool.name)

    def _fetch(self, kind: str, key: str, suffix: str):
        with self._lock:
            row = self._conn.execute(
                "SELECT sha256, data FROM artifacts "
                "WHERE kind=? AND key=? AND suffix=?",
                (kind, key, suffix),
            ).fetchone()
        return row

    def materialize(self, kind: str, key: str, suffix: str) -> tuple[Path | None, bool]:
        row = self._fetch(kind, key, suffix)
        if row is None:
            return None, False
        expected, data = row
        if hashlib.sha256(data).hexdigest() != expected:
            return None, self.quarantine(kind, key, suffix)
        fd, spool = tempfile.mkstemp(
            dir=self._spool_dir(), prefix=f"{kind}-", suffix=suffix
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return Path(spool), False

    def store(self, kind: str, key: str, suffix: str, write: Callable[[Path], None]) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=self._spool_dir(), prefix=".store-", suffix=suffix
        )
        os.close(fd)
        try:
            write(Path(tmp))
            data = Path(tmp).read_bytes()
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        digest = hashlib.sha256(data).hexdigest()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts (kind, key, suffix, sha256, data) "
                "VALUES (?, ?, ?, ?, ?)",
                (kind, key, suffix, digest, data),
            )

    def quarantine(self, kind: str, key: str, suffix: str) -> bool:
        row = self._fetch(kind, key, suffix)
        if row is None:
            return False
        _, data = row
        qdir = self.quarantine_dir
        qdir.mkdir(parents=True, exist_ok=True)
        (qdir / f"{kind}-{key}{suffix}").write_bytes(data)
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM artifacts WHERE kind=? AND key=? AND suffix=?",
                (kind, key, suffix),
            )
        return True

    def corrupt(self, kind: str, key: str, suffix: str) -> None:
        row = self._fetch(kind, key, suffix)
        if row is None:
            return
        _, data = row
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE artifacts SET data=? WHERE kind=? AND key=? AND suffix=?",
                (data[: max(len(data) // 2, 1)], kind, key, suffix),
            )

    def release(self, path: Path) -> None:
        if self._spool is not None and Path(path).parent == Path(self._spool.name):
            try:
                os.unlink(path)
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._conn.close()
        if self._spool is not None:
            self._spool.cleanup()
            self._spool = None


#: Registered backends, by name.
STORAGE_BACKENDS: dict[str, type[StorageBackend]] = {
    LocalDirStorage.name: LocalDirStorage,
    SqliteStorage.name: SqliteStorage,
}


def resolve_storage(
    root: Path, storage: StorageBackend | str | None = None
) -> StorageBackend:
    """The backend instance a cache root should use.

    Resolution order: an explicit instance or name, the
    :data:`STORAGE_ENV` environment variable, sqlite auto-detection
    (``<root>/index.sqlite`` exists), then the local directory layout.
    """
    if isinstance(storage, StorageBackend):
        return storage
    if storage is None:
        storage = os.environ.get(STORAGE_ENV) or None
    if storage is None:
        storage = (
            SqliteStorage.name
            if (Path(root) / SQLITE_INDEX_NAME).exists()
            else LocalDirStorage.name
        )
    try:
        backend_cls = STORAGE_BACKENDS[storage]
    except KeyError:
        raise ValueError(
            f"unknown cache storage backend {storage!r}; choose from "
            f"{', '.join(sorted(STORAGE_BACKENDS))}"
        ) from None
    return backend_cls(Path(root))
