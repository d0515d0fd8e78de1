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

Both backends expose the same small byte contract
(:class:`StorageBackend`: ``read`` returns verified bytes, ``write``
stores bytes atomically), so the cache's self-healing semantics — verify on load, quarantine
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class StorageBackend(ABC):
    """Byte store for content-addressed artifacts.

    An artifact is addressed by ``(kind, key, suffix)``; its payload is
    opaque bytes, so the cache's codecs parse from and encode to memory
    whatever backend holds them.
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
    def read(self, kind: str, key: str, suffix: str) -> tuple[bytes | None, bool]:
        """The verified bytes of the artifact — or a miss.

        Returns ``(data, quarantined)``: ``data`` is ``None`` when the
        artifact is absent or fails its checksum; ``quarantined`` is
        True when a corrupt entry was moved out of the live store on
        this call.
        """

    @abstractmethod
    def write(self, kind: str, key: str, suffix: str, data: bytes) -> None:
        """Atomically store ``data`` as the artifact."""

    @abstractmethod
    def quarantine(self, kind: str, key: str, suffix: str) -> bool:
        """Move a damaged entry out of the live store; True if moved."""

    @abstractmethod
    def corrupt(self, kind: str, key: str, suffix: str) -> None:
        """Physically tear the stored entry (fault injection only)."""

    def close(self) -> None:
        """Release backend resources (connections)."""

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

    def read(self, kind: str, key: str, suffix: str) -> tuple[bytes | None, bool]:
        path = self.path_for(kind, key, suffix)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None, False
        try:
            expected = self._checksum_path(path).read_text().strip()
        except OSError:
            return data, False  # legacy entry: no sidecar to check against
        if _sha256(data) == expected:
            return data, False
        return None, self.quarantine(kind, key, suffix)

    def write(self, kind: str, key: str, suffix: str, data: bytes) -> None:
        path = self.path_for(kind, key, suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._replace(path, data)
        # Sidecar lands after the artifact: a crash in between leaves a
        # legacy (sidecar-less) entry, which loads accept unchecked.
        # Concurrent same-key stores are safe — artifacts are content-
        # addressed, so both writers produce the same digest.
        self._replace(self._checksum_path(path), (_sha256(data) + "\n").encode())

    @staticmethod
    def _replace(path: Path, data: bytes) -> None:
        """Write ``data`` to a temp file beside ``path``, then rename it."""
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

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
    Loads verify the stored sha256 and hand the blob straight to the
    cache's codecs; corrupt rows are written out to ``.quarantine/``
    and deleted, mirroring the directory backend's self-healing
    contract.
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

    def _fetch(self, kind: str, key: str, suffix: str):
        with self._lock:
            row = self._conn.execute(
                "SELECT sha256, data FROM artifacts "
                "WHERE kind=? AND key=? AND suffix=?",
                (kind, key, suffix),
            ).fetchone()
        return row

    def read(self, kind: str, key: str, suffix: str) -> tuple[bytes | None, bool]:
        row = self._fetch(kind, key, suffix)
        if row is None:
            return None, False
        expected, data = row
        if _sha256(data) != expected:
            return None, self.quarantine(kind, key, suffix)
        return data, False

    def write(self, kind: str, key: str, suffix: str, data: bytes) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts (kind, key, suffix, sha256, data) "
                "VALUES (?, ?, ?, ?, ?)",
                (kind, key, suffix, _sha256(data), data),
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

    def close(self) -> None:
        with self._lock:
            self._conn.close()


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
