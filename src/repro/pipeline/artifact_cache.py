"""Content-addressed store for derived pipeline artifacts.

Every artifact a campaign needs more than once — conflict profiles,
baseline / exact-simulation statistics, whole optimization outcomes —
is keyed by a stable digest of *everything its value depends on*: the
trace content digest (:attr:`repro.trace.Trace.digest`), the cache
geometry, the hashed-window width, the function or family parameters.
Identical inputs therefore share one artifact across runs, processes
and drivers, and any input change invalidates by construction (a new
key simply misses).

Where the bytes live is pluggable (:mod:`repro.pipeline.storage`): the
default local-directory backend keeps the original
``<root>/<kind>/<key[:2]>/<key>.<json|npz>`` layout with atomic
(write-temp-then-rename) stores, and a sqlite backend packs the cache
into one WAL-journaled ``index.sqlite`` that many concurrent service
replicas can share.  Concurrent same-key writers are safe under both:
artifacts are content-addressed, so the last store wins with identical
bytes.

The cache is *self-healing* regardless of backend: every store records
a sha256 of the artifact, every load verifies it, and an entry that
fails verification — or fails to parse at all (torn write, truncated
archive, bad zip) — is moved to ``<root>/.quarantine/`` and reported
as a miss, so the caller transparently recomputes it.  Local entries
predating the checksums verify as legacy (accepted unchecked) until
their next store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zipfile
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.pipeline.faults import FaultInjected, maybe_inject, should_corrupt
from repro.pipeline.storage import StorageBackend, resolve_storage
from repro.profiling.conflict_profile import ConflictProfile

__all__ = [
    "ArtifactCache",
    "cache_events",
    "default_cache_dir",
    "replayed",
    "stable_key",
]

#: Exceptions that mean "this artifact cannot be read": I/O errors,
#: missing archive members, torn zip archives (``zipfile.BadZipFile``),
#: and short reads inside an archive (``EOFError``) all count as cache
#: misses, never as crashes.
LOAD_ERRORS = (OSError, KeyError, ValueError, zipfile.BadZipFile, EOFError)

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-xor-indexing``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-xor-indexing"


def stable_key(kind: str, params: dict[str, Any]) -> str:
    """Content address: sha256 over the canonical JSON of the inputs."""
    payload = json.dumps(
        {"kind": kind, "params": params}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Event dicts of the :func:`cache_events` scopes open in this context,
#: outermost first.
_SCOPES: ContextVar[tuple[dict[str, dict[str, int]], ...]] = ContextVar(
    "repro_cache_events", default=()
)


@contextmanager
def cache_events() -> Iterator[dict[str, dict[str, int]]]:
    """Count one run's artifact-cache events as ``{kind: {event: count}}``.

    While the scope is open, every counted event of any
    :class:`ArtifactCache` in this thread (its hits, misses, stores and
    quarantines) is also added to the yielded dict, and to every
    enclosing scope's; an event that did not happen has no entry.
    Concurrent runs on other threads never reach it, so the counts
    belong to this run alone.  Events counted in pool worker processes
    stay in those processes.
    """
    events: dict[str, dict[str, int]] = {}
    token = _SCOPES.set((*_SCOPES.get(), events))
    try:
        yield events
    finally:
        _SCOPES.reset(token)


def replayed(events: dict[str, dict[str, int]]) -> bool:
    """The one replay rule: a run whose :func:`cache_events` show at
    least one hit and neither a miss nor a store."""

    def total(event: str) -> int:
        return sum(per_kind.get(event, 0) for per_kind in events.values())

    return total("hits") > 0 and total("misses") == 0 and total("stores") == 0


def _read_json(path: Path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _json_writer(payload: dict):
    text = json.dumps(payload, sort_keys=True)
    return lambda tmp: tmp.write_text(text + "\n")


def _read_arrays(path: Path) -> dict[str, Any]:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


class ArtifactCache:
    """Content-addressed artifact store with hit/miss/store accounting.

    Counters are per-instance and per-kind, totals over the cache's
    lifetime; what one run did is counted by :func:`cache_events`.

    ``storage`` selects the byte-store backend — a
    :class:`~repro.pipeline.storage.StorageBackend` instance, a
    registered name (``"local"``, ``"sqlite"``), or ``None`` for
    automatic resolution (env var, ``index.sqlite`` detection, local
    default).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        storage: StorageBackend | str | None = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self.storage = resolve_storage(self.root, storage)
        self.counters: dict[str, dict[str, int]] = {}
        # ``repro serve`` job threads share one cache; an unlocked
        # read-add-write of a counter could lose counts.
        self._counters_lock = threading.Lock()

    @property
    def storage_name(self) -> str:
        """Registry name of the active byte-store backend."""
        return self.storage.name

    def close(self) -> None:
        """Release backend resources (sqlite connections, spool files)."""
        self.storage.close()

    # -- accounting --------------------------------------------------------

    def _bump(self, kind: str, event: str) -> None:
        with self._counters_lock:
            per_kind = self.counters.setdefault(
                kind, {"hits": 0, "misses": 0, "stores": 0}
            )
            # Beyond the standard three, events ("quarantined") appear
            # lazily, so the common counter dicts keep their stable shape.
            per_kind[event] = per_kind.get(event, 0) + 1
            for scope in _SCOPES.get():
                scoped = scope.setdefault(kind, {})
                scoped[event] = scoped.get(event, 0) + 1

    @property
    def hits(self) -> int:
        return sum(c["hits"] for c in self.stats().values())

    @property
    def misses(self) -> int:
        return sum(c["misses"] for c in self.stats().values())

    @property
    def stores(self) -> int:
        return sum(c["stores"] for c in self.stats().values())

    def stats(self) -> dict[str, dict[str, int]]:
        """Copy of the per-kind counters."""
        with self._counters_lock:
            return {kind: dict(c) for kind, c in self.counters.items()}

    # -- paths -------------------------------------------------------------

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        """Live on-disk path of an artifact (directory backends only)."""
        path_for = getattr(self.storage, "path_for", None)
        if path_for is None:
            raise ValueError(
                f"{self.storage.name!r} storage has no per-artifact paths"
            )
        return path_for(kind, key, suffix)

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (created on first use)."""
        return self.storage.quarantine_dir

    # -- the one load and store path ---------------------------------------

    def _load(self, kind, key, suffix, parse, damaged, counted=True):
        """``parse(path)`` of the entry, or ``None`` for a miss.

        Anything that keeps the entry from being read (an injected
        fault, a failed checksum, an I/O error while materializing or
        parsing) is a miss.  A checksum mismatch, or a parse error in
        ``damaged``, also quarantines the entry so the recompute's
        store starts clean.  Uncounted loads (memos) skip the fault
        sites and the counters.
        """
        bump = self._bump if counted else lambda kind, event: None
        path = None
        try:
            if counted:
                # An injected cache.load error is a plain miss — the
                # stored entry is healthy, so it must NOT be quarantined.
                maybe_inject("cache.load", f"{kind}/{key}")
                if should_corrupt("cache.load", f"{kind}/{key}"):
                    # Simulate a torn write physically: the verification
                    # and quarantine paths must then heal it end to end.
                    self.storage.corrupt(kind, key, suffix)
            path, quarantined = self.storage.materialize(kind, key, suffix)
            if quarantined:
                bump(kind, "quarantined")
            if path is None:
                raise FaultInjected  # unified miss path below
            try:
                value = parse(path)
            except FileNotFoundError:
                raise FaultInjected from None
            except damaged:
                # Checksum passed (or legacy) but the content does not
                # parse: the entry is damaged beyond a short read.
                if self.storage.quarantine(kind, key, suffix):
                    bump(kind, "quarantined")
                raise FaultInjected from None
        except (FaultInjected, *LOAD_ERRORS):
            bump(kind, "misses")
            return None
        finally:
            if path is not None:
                self.storage.release(path)
        bump(kind, "hits")
        return value

    def _store(self, kind, key, suffix, write, counted=True) -> None:
        self.storage.store(kind, key, suffix, write)
        if counted:
            self._bump(kind, "stores")

    # -- JSON artifacts and memos ------------------------------------------

    def load_json(self, kind: str, key: str) -> dict | None:
        return self._load(kind, key, ".json", _read_json, json.JSONDecodeError)

    def store_json(self, kind: str, key: str, payload: dict) -> None:
        self._store(kind, key, ".json", _json_writer(payload))

    def load_memo(self, kind: str, key: str) -> dict | None:
        """A JSON memo entry, or ``None``.

        Memos record facts about inputs (e.g. a registry trace's
        digest), not computed results, so unlike :meth:`load_json`
        they bypass the counters and the fault-injection sites.  They
        share the storage's checksum verification: a corrupt entry is
        quarantined and reads as ``None``.
        """
        payload = self._load(
            kind, key, ".json", _read_json, json.JSONDecodeError, counted=False
        )
        return payload if isinstance(payload, dict) else None

    def store_memo(self, kind: str, key: str, payload: dict) -> None:
        """Store a JSON entry without counting it (see :meth:`load_memo`)."""
        self._store(kind, key, ".json", _json_writer(payload), counted=False)

    # -- npz artifacts -----------------------------------------------------

    def load_profile(self, key: str, kind: str = "profile") -> ConflictProfile | None:
        """Load a profile artifact; ``kind`` separates the whole-trace
        ``"profile"`` namespace from per-shard ``"shard-profile"``
        partials."""
        return self._load(kind, key, ".npz", ConflictProfile.load, LOAD_ERRORS)

    def store_profile(
        self, key: str, profile: ConflictProfile, kind: str = "profile"
    ) -> None:
        self._store(kind, key, ".npz", profile.save)

    def load_arrays(self, kind: str, key: str) -> dict[str, Any] | None:
        """Load an npz bundle of named arrays (e.g. shard scan states)."""
        return self._load(kind, key, ".npz", _read_arrays, LOAD_ERRORS)

    def store_arrays(self, kind: str, key: str, arrays: dict[str, Any]) -> None:
        self._store(
            kind, key, ".npz", lambda tmp: np.savez_compressed(tmp, **arrays)
        )

    def __repr__(self) -> str:
        return (
            f"ArtifactCache(root={str(self.root)!r}, "
            f"storage={self.storage_name!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
