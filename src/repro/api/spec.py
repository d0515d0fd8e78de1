"""Typed, frozen, validated experiment specs.

One :class:`ExperimentSpec` is the complete, declarative description of
one run of the paper's pipeline — which trace (:class:`TraceSpec`),
which cache (:class:`GeometrySpec`), how to search
(:class:`SearchSpec`) and how to execute (:class:`ExecutionSpec`).
Every layer consumes and emits the same object: the
:class:`~repro.api.session.Session` facade runs it, campaign grids are
lists of it, reports echo it back verbatim, and the CLI's
``repro run`` executes a TOML/JSON file of it.

Specs are validated on construction (a spec object that exists is a
spec that can run) against the static tables of :mod:`repro.names`, so
parsing, validating and digesting a spec imports no compute module;
only the ``resolve*`` methods do.  Specs round-trip losslessly::

    ExperimentSpec.from_dict(spec.to_dict()) == spec
    ExperimentSpec.from_toml(spec.to_toml()) == spec

The :attr:`ExperimentSpec.digest` covers exactly the fields that
determine results (trace, geometry, search — not execution), so equal
digests mean the artifact cache will serve one run's outputs to the
other.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.api import tomlio
from repro.api.errors import SpecError
from repro.cache.geometry import PAPER_HASHED_BITS, CacheGeometry
from repro.names import (
    FAMILY_CHOICES,
    MAX_HASHED_BITS,
    SCALES,
    STRATEGY_CHOICES,
    TRACE_KINDS,
    WORKLOADS,
    parse_family,
    parse_strategy,
    trace_format,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.families import FunctionFamily
    from repro.trace.trace import Trace

__all__ = [
    "TraceSpec",
    "GeometrySpec",
    "SearchSpec",
    "ExecutionSpec",
    "ExperimentSpec",
]

#: Bumped whenever the digest recipe changes, so digests from different
#: spec schema generations can never collide.
_SPEC_DIGEST_VERSION = "experiment-spec-v1"


def _require_int(
    value: Any,
    field_name: str,
    *,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"expected an integer, got {value!r}", field=field_name
        )
    if minimum is not None and value < minimum:
        raise SpecError(f"must be >= {minimum}, got {value}", field=field_name)
    if maximum is not None and value > maximum:
        raise SpecError(f"must be <= {maximum}, got {value}", field=field_name)
    return value


def _check_fields(
    payload: Mapping[str, Any], cls, section: str | None = None
) -> dict[str, Any]:
    """Reject unknown keys with a message naming the admissible ones."""
    if not isinstance(payload, Mapping):
        raise SpecError(
            f"expected a table/object, got {type(payload).__name__}",
            field=section,
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        where = f"{section}.{unknown[0]}" if section else unknown[0]
        raise SpecError(
            f"unknown key {unknown[0]!r}; known keys: {', '.join(sorted(known))}",
            field=where,
        )
    return dict(payload)


def _flat(spec) -> dict[str, Any]:
    """A spec's fields in declaration order (all scalars, so no deep copy)."""
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


@dataclass(frozen=True)
class TraceSpec:
    """Which memory-access trace to run on.

    Two mutually exclusive identities:

    * **Registry** — ``(suite, benchmark, kind, scale, seed)`` resolves
      through :mod:`repro.workloads.registry`, whose kernels are
      deterministic in ``(scale, seed)``, so the spec is a complete,
      content-stable description of its input data.
    * **File** — ``path`` names an on-disk trace (``format`` defaults
      to the suffix: ``.bin``/``.npz``/``.txt``/``.din``/``.lackey``),
      making captured production traces first-class spec inputs.  A
      ``.bin`` trace resolves memory-mapped, so it can be far larger
      than RAM; artifact keys use the trace's *content* digest, while
      the spec digest identifies the path as written.
    """

    suite: str = ""
    benchmark: str = ""
    kind: str = "data"
    scale: str = "small"
    seed: int = 0
    path: str | None = None
    format: str | None = None

    def __post_init__(self):
        if self.path is not None:
            if not isinstance(self.path, str):
                raise SpecError(
                    f"expected a path string, got {self.path!r}", field="trace.path"
                )
            if self.suite or self.benchmark:
                raise SpecError(
                    "a trace is either a registry workload (suite/benchmark) "
                    "or a file (path), not both",
                    field="trace.path",
                )
            if self.scale != "small" or self.seed != 0:
                raise SpecError(
                    "scale/seed describe registry workloads and do not apply "
                    "to file-backed traces",
                    field="trace.scale" if self.scale != "small" else "trace.seed",
                )
            try:
                object.__setattr__(self, "format", trace_format(self.path, self.format))
            except ValueError as error:
                raise SpecError(str(error), field="trace.format") from None
        else:
            if self.format is not None:
                raise SpecError(
                    "trace.format only applies to file-backed traces "
                    "(set trace.path)",
                    field="trace.format",
                )
            if not self.suite:
                raise SpecError(
                    "name a registry workload (trace.suite + trace.benchmark) "
                    "or an on-disk trace (trace.path)",
                    field="trace.suite",
                )
            if self.suite not in WORKLOADS:
                raise SpecError(
                    f"unknown suite {self.suite!r}; choose from "
                    f"{', '.join(sorted(WORKLOADS))}",
                    field="trace.suite",
                )
            if self.benchmark not in WORKLOADS[self.suite]:
                raise SpecError(
                    f"unknown workload {self.suite}/{self.benchmark}; choose from "
                    f"{', '.join(WORKLOADS[self.suite])}",
                    field="trace.benchmark",
                )
            if self.scale not in SCALES:
                raise SpecError(
                    f"unknown scale {self.scale!r}; choose from {', '.join(SCALES)}",
                    field="trace.scale",
                )
        if self.kind not in TRACE_KINDS:
            raise SpecError(
                f"unknown trace kind {self.kind!r}; choose from "
                f"{', '.join(TRACE_KINDS)}",
                field="trace.kind",
            )
        _require_int(self.seed, "trace.seed", minimum=0)

    @property
    def label(self) -> str:
        """Short display identity: ``suite/benchmark`` or the file path."""
        if self.path is not None:
            return f"file:{self.path}"
        return f"{self.suite}/{self.benchmark}"

    def resolve(self) -> "Trace":
        """The actual trace (workload runs are cached per identity).

        File-backed specs load through :func:`repro.trace.load_trace`:
        ``kind`` selects dinero/lackey references and overrides a
        ``.bin`` sidecar.  An unreadable or malformed file is a
        :class:`SpecError` on ``trace.path``.
        """
        if self.path is None:
            from repro.workloads.registry import get_trace

            return get_trace(
                self.suite, self.benchmark, self.kind, self.scale, self.seed
            )
        from repro.trace.formats import TraceFileError
        from repro.trace.io import load_trace

        try:
            return load_trace(self.path, self.format, self.kind)
        except (OSError, TraceFileError) as error:
            raise SpecError(
                f"cannot read trace file: {error}", field="trace.path"
            ) from None

    def to_dict(self) -> dict[str, Any]:
        payload = _flat(self)
        if self.path is None:
            # Registry specs serialize exactly as before the file
            # fields existed, so their digests (and every golden
            # report) are stable.
            del payload["path"]
            del payload["format"]
        else:
            # File specs omit the registry-only fields (all defaults,
            # enforced above) — lossless by construction.
            del payload["suite"]
            del payload["benchmark"]
            del payload["scale"]
            del payload["seed"]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceSpec":
        return cls(**_check_fields(payload, cls, "trace"))


@dataclass(frozen=True)
class GeometrySpec:
    """The target cache, in the paper's parameters."""

    cache_bytes: int = 4096
    block_size: int = 4
    associativity: int = 1

    def __post_init__(self):
        _require_int(self.cache_bytes, "geometry.cache_bytes", minimum=1)
        _require_int(self.block_size, "geometry.block_size", minimum=1)
        _require_int(self.associativity, "geometry.associativity", minimum=1)
        try:
            self.resolve()
        except ValueError as error:
            raise SpecError(str(error), field="geometry") from None

    def resolve(self) -> CacheGeometry:
        return CacheGeometry(self.cache_bytes, self.block_size, self.associativity)

    @property
    def index_bits(self) -> int:
        """``m``, the number of set-index bits the hash must produce."""
        return self.resolve().index_bits

    def to_dict(self) -> dict[str, Any]:
        return _flat(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GeometrySpec":
        return cls(**_check_fields(payload, cls, "geometry"))


@dataclass(frozen=True)
class SearchSpec:
    """How to construct the index function (Sec. 3.2 and variants)."""

    family: str = "2-in"
    strategy: str = "steepest"
    n: int = PAPER_HASHED_BITS
    restarts: int = 0
    seed: int = 0
    guard: bool = False
    max_steps: int | None = None

    def __post_init__(self):
        _require_int(self.n, "search.n", minimum=1, maximum=MAX_HASHED_BITS)
        _require_int(self.restarts, "search.restarts", minimum=0)
        _require_int(self.seed, "search.seed", minimum=0)
        if self.max_steps is not None:
            _require_int(self.max_steps, "search.max_steps", minimum=0)
        if not isinstance(self.guard, bool):
            raise SpecError(
                f"expected true/false, got {self.guard!r}", field="search.guard"
            )
        if not isinstance(self.family, str):
            raise SpecError(
                f"expected a family name, got {self.family!r}",
                field="search.family",
            )
        try:
            parse_family(self.family, self.n)
        except ValueError:
            raise SpecError(
                f"unknown family {self.family!r}; choose from "
                f"{', '.join(FAMILY_CHOICES)}",
                field="search.family",
            ) from None
        if not isinstance(self.strategy, str):
            raise SpecError(
                f"expected a strategy name, got {self.strategy!r}",
                field="search.strategy",
            )
        try:
            parse_strategy(self.strategy)
        except ValueError:
            raise SpecError(
                f"unknown search strategy {self.strategy!r}; choose from "
                f"{STRATEGY_CHOICES}",
                field="search.strategy",
            ) from None

    def check_window(self, index_bits: int) -> None:
        """Raise unless the ``n``-bit window covers ``index_bits``."""
        if index_bits > self.n:
            raise SpecError(
                f"the geometry needs m={index_bits} index bits but the search "
                f"hashes only n={self.n} block-address bits; raise search.n to "
                f"at least {index_bits} or shrink the cache",
                field="search.n",
            )

    def resolve_family(self, index_bits: int) -> "FunctionFamily":
        """The family instance sized ``(n, m)`` for a given geometry."""
        from repro.search.families import family_for_name

        self.check_window(index_bits)
        return family_for_name(self.family, self.n, index_bits)

    def resolve_strategy(self):
        from repro.search.strategies import strategy_for_name

        return strategy_for_name(self.strategy)

    def to_dict(self) -> dict[str, Any]:
        return _flat(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchSpec":
        return cls(**_check_fields(payload, cls, "search"))


@dataclass(frozen=True)
class ExecutionSpec:
    """How to execute — never part of the result identity.

    ``workers=None`` lets the runner pick (serial for one experiment,
    one per core for grids); ``cache_dir=None`` means in-memory unless
    the session provides a cache.  ``backend=None`` lets
    :mod:`repro.backend` pick the compute backend (the
    ``REPRO_BACKEND`` environment variable, then the best available);
    naming one pins the engine kernels to it for the run.  Every
    backend computes bit-identical results, so — like the other
    execution fields — the choice never enters :attr:`ExperimentSpec.digest`.
    """

    workers: int | None = None
    cache_dir: str | None = None
    backend: str | None = None
    #: Accesses per shard for out-of-core profiling (``None`` = one
    #: shard, the in-memory single pass).  Sharding is bit-identical,
    #: so — like every execution field — it never enters the spec
    #: digest.
    shard_size: int | None = None
    #: Failed-attempt budget per campaign/shard task (exceptions,
    #: timeouts, dead workers).  Retried runs replay from the same
    #: artifacts — digest-neutral like every execution field.
    retries: int = 0
    #: Seconds before a task attempt is failed and its worker recycled
    #: (``None`` = no limit; parallel runs only).
    task_timeout: float | None = None
    #: Post-budget policy: ``"raise"`` aborts, ``"skip"`` records a
    #: failed row and continues (campaigns only; sharded profiling
    #: coerces to raise), ``"retry"`` raises but guarantees a minimum
    #: retry budget.
    on_error: str = "raise"

    def __post_init__(self):
        if self.workers is not None:
            _require_int(self.workers, "execution.workers", minimum=0)
        if self.shard_size is not None:
            _require_int(self.shard_size, "execution.shard_size", minimum=1)
        _require_int(self.retries, "execution.retries", minimum=0)
        if self.task_timeout is not None:
            if (
                isinstance(self.task_timeout, bool)
                or not isinstance(self.task_timeout, (int, float))
                or not self.task_timeout > 0
            ):
                raise SpecError(
                    f"expected a positive number of seconds, got "
                    f"{self.task_timeout!r}",
                    field="execution.task_timeout",
                )
        if self.on_error not in ("raise", "skip", "retry"):
            raise SpecError(
                f"unknown on_error policy {self.on_error!r}; choose from "
                "raise, skip, retry",
                field="execution.on_error",
            )
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise SpecError(
                f"expected a path string, got {self.cache_dir!r}",
                field="execution.cache_dir",
            )
        if self.backend is not None:
            from repro.backend import backend_names

            if not isinstance(self.backend, str):
                raise SpecError(
                    f"expected a backend name string, got {self.backend!r}",
                    field="execution.backend",
                )
            if self.backend not in backend_names():
                raise SpecError(
                    f"unknown backend {self.backend!r}; choose from "
                    f"{', '.join(backend_names())}",
                    field="execution.backend",
                )

    def to_dict(self) -> dict[str, Any]:
        payload = _flat(self)
        # Newer execution fields are omitted at their defaults so older
        # serializations (and the reports echoing them) stay
        # byte-stable — and so a resilient-but-healed run's report is
        # byte-identical to a plain run's.
        if self.shard_size is None:
            del payload["shard_size"]
        if self.retries == 0:
            del payload["retries"]
        if self.task_timeout is None:
            del payload["task_timeout"]
        if self.on_error == "raise":
            del payload["on_error"]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionSpec":
        return cls(**_check_fields(payload, cls, "execution"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete experiment: trace x geometry x search x execution."""

    trace: TraceSpec
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    search: SearchSpec = field(default_factory=SearchSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self):
        for name, cls in (
            ("trace", TraceSpec),
            ("geometry", GeometrySpec),
            ("search", SearchSpec),
            ("execution", ExecutionSpec),
        ):
            if not isinstance(getattr(self, name), cls):
                raise SpecError(
                    f"expected a {cls.__name__}, got "
                    f"{type(getattr(self, name)).__name__}",
                    field=name,
                )
        # Cross-field sizing: an (n, m) mismatch surfaces right at the
        # boundary.
        self.search.check_window(self.geometry.index_bits)

    # -- identity ----------------------------------------------------------

    @property
    def digest(self) -> str:
        """Stable content digest of everything that determines results.

        Execution parameters (workers, cache directory) are excluded:
        two specs with equal digests produce bit-identical artifacts,
        so the second run resolves entirely from the cache the first
        one filled.  Memoized per instance (every field is frozen).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = json.dumps(
                {
                    "version": _SPEC_DIGEST_VERSION,
                    "trace": self.trace.to_dict(),
                    "geometry": self.geometry.to_dict(),
                    "search": self.search.to_dict(),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def with_execution(self, **changes: Any) -> "ExperimentSpec":
        """Copy with execution fields replaced (digest unchanged)."""
        return replace(self, execution=replace(self.execution, **changes))

    def describe(self) -> str:
        """One human line, in the style of the result summaries."""
        t, g, s = self.trace, self.geometry, self.search
        extras = []
        if s.strategy != "steepest":
            extras.append(f"strategy={s.strategy}")
        if s.restarts:
            extras.append(f"restarts={s.restarts}")
        if s.guard:
            extras.append("guard")
        suffix = f" ({', '.join(extras)})" if extras else ""
        detail = t.kind if t.path is not None else f"{t.kind}, {t.scale}"
        return (
            f"{t.label} [{detail}] @ {g.resolve()}: "
            f"family {s.family}, n={s.n}{suffix}"
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace": self.trace.to_dict(),
            "geometry": self.geometry.to_dict(),
            "search": self.search.to_dict(),
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        payload = _check_fields(payload, cls)
        if "trace" not in payload:
            raise SpecError(
                "a [trace] table naming suite and benchmark (or a trace-file "
                "path) is required",
                field="trace",
            )
        return cls(
            trace=TraceSpec.from_dict(payload["trace"]),
            geometry=GeometrySpec.from_dict(payload.get("geometry", {})),
            search=SearchSpec.from_dict(payload.get("search", {})),
            execution=ExecutionSpec.from_dict(payload.get("execution", {})),
        )

    def to_toml(self, header: str | None = None) -> str:
        return tomlio.dumps(self.to_dict(), header=header)

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        try:
            payload = tomlio.loads(text)
        except SpecError:
            raise
        except Exception as error:  # tomllib.TOMLDecodeError and friends
            raise SpecError(f"not valid TOML: {error}") from None
        return cls.from_dict(payload)

    def save(self, path: str | Path) -> Path:
        """Write the spec as TOML (``.toml``) or JSON (anything else)."""
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        else:
            path.write_text(self.to_toml())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """Read a spec file; the format follows the suffix."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as error:
            raise SpecError(f"cannot read spec file {path}: {error}") from None
        if path.suffix == ".json":
            try:
                payload = json.loads(text)
            except (json.JSONDecodeError, RecursionError) as error:
                # RecursionError: nesting too deep for the JSON parser.
                raise SpecError(f"{path} is not valid JSON: {error}") from None
            return cls.from_dict(payload)
        return cls.from_toml(text)

    @classmethod
    def coerce(cls, value: "ExperimentSpec | Mapping | str | Path") -> "ExperimentSpec":
        """Accept a spec, a spec dictionary, or a path to a spec file."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if isinstance(value, (str, Path)):
            return cls.load(value)
        raise SpecError(
            f"cannot interpret {type(value).__name__} as an experiment spec; "
            "pass an ExperimentSpec, a dict, or a spec-file path"
        )
