"""Content-addressed store for derived pipeline artifacts.

Every artifact a campaign needs more than once — conflict profiles,
baseline / exact-simulation statistics, whole optimization outcomes —
is keyed by a stable digest of *everything its value depends on*: the
trace content digest (:attr:`repro.trace.Trace.digest`), the cache
geometry, the hashed-window width, the function or family parameters.
Identical inputs therefore share one artifact across runs, processes
and drivers, and any input change invalidates by construction (a new
key simply misses).

Next to the counted artifacts live *memos*: uncounted JSON records of
facts about them (see :meth:`ArtifactCache.load_memo`).  Every stored
whole-trace profile gets one, the *profile-digest memo* (kind
``profile-memo``): its digest and header fields.  A profile hit is
then a :class:`DeferredProfile` whose counts are parsed only when a
stage needs them, so a warm replay keys its optimization record
without parsing the ``.npz`` — and without importing NumPy, which only
the ``.npz`` codecs load.

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
import io
import json
import os
import threading
import zipfile
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.pipeline.faults import FaultInjected, maybe_inject, should_corrupt
from repro.pipeline.storage import StorageBackend, resolve_storage

if TYPE_CHECKING:  # pragma: no cover
    from repro.profiling.conflict_profile import ConflictProfile

__all__ = [
    "ArtifactCache",
    "DeferredProfile",
    "NotCached",
    "PROFILE_MEMO",
    "cache_events",
    "default_cache_dir",
    "profile_key",
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

#: Storage kind of the profile-digest memo (see :meth:`ArtifactCache.load_profile`).
PROFILE_MEMO = "profile-memo"

#: The header fields of a :class:`ConflictProfile` the memo records.
_PROFILE_HEADER = ("n", "compulsory", "capacity", "accesses", "beyond_window")


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


def profile_key(kind: str, base: dict, capacity: int, shard=None) -> str:
    """Key of a profile artifact: ``base`` (trace digest, block size,
    window ``n``) and the capacity in blocks — not the full geometry,
    so every associativity sharing a capacity shares the profile — plus
    a shard's bounds (``start``, ``stop``) for the per-shard partials."""
    params = {**base, "capacity_blocks": capacity}
    if shard is not None:
        params.update(start=shard.start, stop=shard.stop)
    return stable_key(kind, params)


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


#: Set by :func:`repro.pipeline.context.replay_only`.  A counted load
#: that misses inside that scope raises :class:`NotCached`, uncounted: it
#: ends a probe rather than starting a computation.
REPLAY_ONLY: ContextVar[bool] = ContextVar("repro_replay_only", default=False)


class NotCached(LookupError):
    """A :func:`~repro.pipeline.context.replay_only` run needed an
    artifact the cache does not hold: ``kind`` names the stage
    (``"trace-memo"`` and ``"trace"`` for a trace's record and
    addresses), ``key`` its key."""

    def __init__(self, kind: str, key: str):
        super().__init__(kind, key)
        self.kind = kind
        self.key = key

    def __str__(self) -> str:
        return f"no cached {self.kind} artifact under key {self.key} (replay-only run)"


def replayed(events: dict[str, dict[str, int]]) -> bool:
    """The one replay rule: a run whose :func:`cache_events` show at
    least one hit and neither a miss nor a store."""

    def total(event: str) -> int:
        return sum(per_kind.get(event, 0) for per_kind in events.values())

    return total("hits") > 0 and total("misses") == 0 and total("stores") == 0


def _encode_json(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


# -- .npz codecs: the only code here that imports NumPy ----------------------


def _encode_npz(save) -> bytes:
    """The archive ``save(file)`` writes, as bytes."""
    buffer = io.BytesIO()
    save(buffer)
    return buffer.getvalue()


def _read_arrays(data: bytes) -> dict[str, Any]:
    import numpy as np

    with np.load(io.BytesIO(data)) as archive:
        return {name: archive[name] for name in archive.files}


def _read_profile(data: bytes) -> "ConflictProfile":
    from repro.profiling.conflict_profile import ConflictProfile

    return ConflictProfile.load(io.BytesIO(data))


class DeferredProfile:
    """A stored :class:`~repro.profiling.conflict_profile.ConflictProfile`
    whose counts are parsed on first use.

    The digest and header fields (``n``, ``compulsory``, ``capacity``,
    ``accesses``, ``beyond_window``) come from the profile-digest memo;
    ``payload`` holds the verified bytes of the ``.npz`` entry.  Reading
    anything else — ``counts``, ``total_weight``, ``support()`` … —
    parses them into the profile, which must have the recorded digest
    or ``ValueError`` is raised and no count is served.
    """

    def __init__(self, payload: bytes, digest: str, **header: int):
        self._payload = payload
        self.digest = digest
        for name in _PROFILE_HEADER:
            setattr(self, name, header[name])

    def resolve(self) -> "ConflictProfile":
        """The parsed profile (parsed once)."""
        profile = self.__dict__.get("_profile")
        if profile is None:
            profile = _read_profile(self._payload)
            if profile.digest != self.digest:
                raise ValueError(
                    f"stored profile has digest {profile.digest}, but its "
                    f"memo records {self.digest}"
                )
            self._profile = profile
            # The profile holds its support; the archive bytes can go.
            del self._payload
        return profile

    def __getattr__(self, name: str):
        # Reached only for what the memo does not hold.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.resolve(), name)

    def __repr__(self) -> str:
        return f"DeferredProfile(n={self.n}, digest={self.digest[:12]}…)"


def _read_deferred(header: dict, payload: bytes) -> DeferredProfile:
    # A torn archive fails here, as it would in np.load.
    with zipfile.ZipFile(io.BytesIO(payload)) as archive:
        for member in ("n.npy", "counts.npy", "meta.npy"):
            archive.getinfo(member)
    return DeferredProfile(payload, **header)


def _profile_header(record: dict | None) -> dict | None:
    """A profile-digest memo record's fields, or ``None`` if malformed."""
    try:
        return {
            "digest": str(record["digest"]),
            **{name: int(record[name]) for name in _PROFILE_HEADER},
        }
    except (KeyError, TypeError, ValueError):
        return None


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
        """Release backend resources (sqlite connections)."""
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
        """``parse(data)`` of the entry's bytes, or ``None`` for a miss.

        Anything that keeps the entry from being read (an injected
        fault, a failed checksum, an I/O error while reading or
        parsing) is a miss.  A checksum mismatch, or a parse error in
        ``damaged``, also quarantines the entry so the recompute's
        store starts clean.  Uncounted loads (memos) skip the fault
        sites and the counters.  Under :data:`REPLAY_ONLY` a counted
        miss raises :class:`NotCached` instead, and is not counted.
        """
        bump = self._bump if counted else lambda kind, event: None
        try:
            if counted:
                # An injected cache.load error is a plain miss — the
                # stored entry is healthy, so it must NOT be quarantined.
                maybe_inject("cache.load", f"{kind}/{key}")
                if should_corrupt("cache.load", f"{kind}/{key}"):
                    # Simulate a torn write physically: the verification
                    # and quarantine paths must then heal it end to end.
                    self.storage.corrupt(kind, key, suffix)
            data, quarantined = self.storage.read(kind, key, suffix)
            if quarantined:
                bump(kind, "quarantined")
            if data is None:
                raise FaultInjected  # unified miss path below
            try:
                value = parse(data)
            except damaged:
                # Checksum passed (or legacy) but the content does not
                # parse: the entry is damaged beyond a short read.
                if self.storage.quarantine(kind, key, suffix):
                    bump(kind, "quarantined")
                raise FaultInjected from None
        except (FaultInjected, *LOAD_ERRORS):
            if counted and REPLAY_ONLY.get():
                raise NotCached(kind, key) from None
            bump(kind, "misses")
            return None
        bump(kind, "hits")
        return value

    def _store(self, kind, key, suffix, data: bytes, counted=True) -> None:
        self.storage.write(kind, key, suffix, data)
        if counted:
            self._bump(kind, "stores")

    # -- JSON artifacts and memos ------------------------------------------

    def load_json(self, kind: str, key: str) -> dict | None:
        return self._load(kind, key, ".json", json.loads, json.JSONDecodeError)

    def store_json(self, kind: str, key: str, payload: dict) -> None:
        self._store(kind, key, ".json", _encode_json(payload))

    def load_memo(self, kind: str, key: str) -> dict | None:
        """A JSON memo entry, or ``None``.

        Memos record facts about inputs (e.g. a registry trace's
        digest), not computed results, so unlike :meth:`load_json`
        they bypass the counters and the fault-injection sites.  They
        share the storage's checksum verification: a corrupt entry is
        quarantined and reads as ``None``.
        """
        payload = self._load(
            kind, key, ".json", json.loads, json.JSONDecodeError, counted=False
        )
        return payload if isinstance(payload, dict) else None

    def store_memo(self, kind: str, key: str, payload: dict) -> None:
        """Store a JSON entry without counting it (see :meth:`load_memo`)."""
        self._store(kind, key, ".json", _encode_json(payload), counted=False)

    # -- npz artifacts -----------------------------------------------------

    def load_profile(
        self, key: str, kind: str = "profile"
    ) -> "ConflictProfile | DeferredProfile | None":
        """Load a profile artifact; ``kind`` separates the whole-trace
        ``"profile"`` namespace from per-shard ``"shard-profile"``
        partials.

        A whole-trace profile with a profile-digest memo loads as a
        :class:`DeferredProfile`: its entry is read and verified as
        any load is (one counted hit or miss, the fault sites, the
        checksum and quarantine), only the ``.npz`` parse waits.  One
        without a memo (written before memos existed, or its memo
        lost) is parsed now and its memo written.
        """
        if kind != "profile":
            return self._load(kind, key, ".npz", _read_profile, LOAD_ERRORS)
        header = _profile_header(self.load_memo(PROFILE_MEMO, key))
        if header is not None:
            return self._load(
                kind, key, ".npz", partial(_read_deferred, header), LOAD_ERRORS
            )
        profile = self._load(kind, key, ".npz", _read_profile, LOAD_ERRORS)
        if profile is not None:
            self._store_profile_memo(key, profile)
        return profile

    def store_profile(
        self, key: str, profile: "ConflictProfile", kind: str = "profile"
    ) -> None:
        """Store a profile artifact, and a whole-trace profile's memo."""
        self._store(kind, key, ".npz", _encode_npz(profile.save))
        if kind == "profile":
            self._store_profile_memo(key, profile)

    def _store_profile_memo(self, key: str, profile: "ConflictProfile") -> None:
        self.store_memo(
            PROFILE_MEMO,
            key,
            {
                "digest": profile.digest,
                **{name: int(getattr(profile, name)) for name in _PROFILE_HEADER},
            },
        )

    def load_arrays(self, kind: str, key: str) -> dict[str, Any] | None:
        """Load an npz bundle of named arrays (e.g. shard scan states)."""
        return self._load(kind, key, ".npz", _read_arrays, LOAD_ERRORS)

    def store_arrays(self, kind: str, key: str, arrays: dict[str, Any]) -> None:
        import numpy as np

        self._store(
            kind, key, ".npz", _encode_npz(partial(np.savez_compressed, **arrays))
        )

    def __repr__(self) -> str:
        return (
            f"ArtifactCache(root={str(self.root)!r}, "
            f"storage={self.storage_name!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
