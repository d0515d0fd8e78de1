"""The stable, versioned JSON report schema.

Every result the toolkit produces — a single optimization
(:class:`~repro.core.optimizer.OptimizationResult`), a campaign row or
a whole campaign (:mod:`repro.pipeline.campaign`) — serializes to one
schema, ``repro-report/v1``:

* ``schema`` / ``kind`` identify the format and payload;
* ``spec`` echoes the :class:`~repro.api.spec.ExperimentSpec` that
  produced the result, verbatim — so every report is a replayable
  input (``ExperimentSpec.from_dict(report["spec"])``);
* ``digests`` carry the spec digest, the trace content digest and the
  conflict-profile digest, tying the report to the artifact-cache keys
  its computation used;
* ``environment`` records execution metadata — currently the compute
  backend the kernels dispatched to.  Every backend is bit-identical,
  so this never enters ``spec.digest`` or any cache key; it only
  attributes timings;
* the remaining keys are plain-JSON metrics and the constructed
  function.

``*_from_report`` inverts the mapping (up to the conflict profile,
which lives in the artifact cache, not in reports).  The CLI's
``--json`` output and ``repro run`` emit exactly these dictionaries;
they are golden-file tested, so changes here are schema changes and
must bump :data:`REPORT_SCHEMA`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.api.errors import SpecError
from repro.api.spec import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer import OptimizationResult
    from repro.pipeline.campaign import CampaignResult, CampaignRow

__all__ = [
    "REPORT_SCHEMA",
    "optimization_report",
    "optimization_from_report",
    "search_report",
    "profile_report",
    "row_report",
    "row_from_report",
    "campaign_report",
    "campaign_from_report",
    "specs_from_report",
]

#: The current report schema identifier.  Any change to the key layout
#: below is a schema change and bumps the version suffix.
REPORT_SCHEMA = "repro-report/v1"


def stats_to_json(stats) -> dict[str, int]:
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "compulsory": stats.compulsory,
    }


def stats_from_json(payload: Mapping[str, Any]):
    from repro.cache.stats import CacheStats

    return CacheStats(
        accesses=int(payload["accesses"]),
        misses=int(payload["misses"]),
        compulsory=int(payload["compulsory"]),
    )


def function_to_json(fn) -> dict[str, Any]:
    return {"n": fn.n, "columns": list(fn.columns)}


def function_from_json(payload: Mapping[str, Any]):
    from repro.gf2.hashfn import XorHashFunction

    return XorHashFunction(int(payload["n"]), [int(c) for c in payload["columns"]])


def _search_to_json(search) -> dict[str, Any]:
    payload = {
        "function": function_to_json(search.function),
        "estimated_misses": search.estimated_misses,
        "start_misses": search.start_misses,
        "steps": search.steps,
        "evaluations": search.evaluations,
        "seconds": search.seconds,
        "history": list(search.history),
        "family": search.family_name,
        "strategy": search.strategy_name,
    }
    # Exact-search provenance rides along only when a strategy produced
    # it, so heuristic reports (and their goldens) stay byte-identical.
    if search.certified or search.optimality_gap is not None:
        payload["certified"] = search.certified
        payload["optimality_gap"] = search.optimality_gap
    if search.nodes_expanded or search.nodes_pruned:
        payload["nodes_expanded"] = search.nodes_expanded
        payload["nodes_pruned"] = search.nodes_pruned
    return payload


def _search_from_json(payload: Mapping[str, Any]):
    from repro.search.result import SearchResult

    gap = payload.get("optimality_gap")
    return SearchResult(
        function=function_from_json(payload["function"]),
        estimated_misses=int(payload["estimated_misses"]),
        start_misses=int(payload["start_misses"]),
        steps=int(payload["steps"]),
        evaluations=int(payload["evaluations"]),
        seconds=float(payload["seconds"]),
        history=[int(h) for h in payload["history"]],
        family_name=payload["family"],
        strategy_name=payload["strategy"],
        certified=bool(payload.get("certified", False)),
        optimality_gap=None if gap is None else int(gap),
        nodes_expanded=int(payload.get("nodes_expanded", 0)),
        nodes_pruned=int(payload.get("nodes_pruned", 0)),
    )


def _check_schema(payload: Mapping[str, Any], kind: str) -> None:
    if not isinstance(payload, Mapping):
        raise SpecError(f"expected a report object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        raise SpecError(
            f"unsupported report schema {schema!r}; this build reads "
            f"{REPORT_SCHEMA}"
        )
    if payload.get("kind") != kind:
        raise SpecError(
            f"expected a {kind!r} report, got kind {payload.get('kind')!r}"
        )


# -- single optimization ----------------------------------------------------

def optimization_report(
    result: "OptimizationResult", spec: ExperimentSpec | None = None
) -> dict[str, Any]:
    """The ``kind="optimization"`` report for one end-to-end run."""
    spec = spec if spec is not None else result.spec
    environment: dict[str, Any] = {"backend": result.backend or None}
    # Only present when something degraded (e.g. a kernel fell back to
    # NumPy); the common all-clean report layout is unchanged.
    if result.warnings:
        environment["warnings"] = list(result.warnings)
    return {
        "schema": REPORT_SCHEMA,
        "kind": "optimization",
        "spec": spec.to_dict() if spec is not None else None,
        "digests": {
            "spec": spec.digest if spec is not None else None,
            "trace": result.trace_digest or None,
            "profile": result.profile_digest
            or (result.profile.digest if result.profile is not None else None),
        },
        "environment": environment,
        "trace_name": result.trace_name,
        "family": result.family_name,
        "function": function_to_json(result.hash_function),
        "baseline": stats_to_json(result.baseline),
        "optimized": stats_to_json(result.optimized),
        "removed_percent": result.removed_percent,
        "reverted": result.reverted,
        "search": _search_to_json(result.search),
    }


def optimization_from_report(payload: Mapping[str, Any]) -> "OptimizationResult":
    """Rebuild an :class:`OptimizationResult` from its report.

    The conflict profile is not part of the schema (it lives in the
    artifact cache, keyed by the digest the report carries), so the
    rebuilt result has ``profile=None``.
    """
    from repro.core.optimizer import OptimizationResult

    _check_schema(payload, "optimization")
    spec_payload = payload.get("spec")
    if spec_payload is None:
        raise SpecError(
            "this optimization report carries no spec; only spec-driven "
            "reports (Session / repro run / --json) can be rebuilt"
        )
    spec = ExperimentSpec.from_dict(spec_payload)
    return OptimizationResult(
        trace_name=payload["trace_name"],
        geometry=spec.geometry.resolve(),
        family_name=payload["family"],
        hash_function=function_from_json(payload["function"]),
        baseline=stats_from_json(payload["baseline"]),
        optimized=stats_from_json(payload["optimized"]),
        search=_search_from_json(payload["search"]),
        profile=None,
        reverted=bool(payload["reverted"]),
        spec=spec,
        trace_digest=(payload.get("digests") or {}).get("trace") or "",
        profile_digest=(payload.get("digests") or {}).get("profile") or "",
        backend=(payload.get("environment") or {}).get("backend") or "",
        warnings=list((payload.get("environment") or {}).get("warnings") or []),
    )


# -- estimate-only search ---------------------------------------------------

def profile_report(
    spec: ExperimentSpec,
    profile,
    trace_digest: str | None = None,
    sharded=None,
    top_k: int = 8,
) -> dict[str, Any]:
    """The ``kind="profile"`` report for a profiling-only run.

    ``sharded`` is the optional
    :class:`~repro.profiling.sharded.ShardedProfileResult` when the
    out-of-core driver ran; its execution statistics land under a
    ``sharding`` key (``null`` for single-pass runs).
    """
    payload = {
        "schema": REPORT_SCHEMA,
        "kind": "profile",
        "spec": spec.to_dict(),
        "digests": {
            "spec": spec.digest,
            "trace": trace_digest,
            "profile": profile.digest,
        },
        "profile": {
            "n": profile.n,
            "accesses": profile.accesses,
            "compulsory": profile.compulsory,
            "capacity": profile.capacity,
            "beyond_window": profile.beyond_window,
            "total_weight": profile.total_weight,
            "distinct_vectors": profile.num_distinct_vectors,
            "top_vectors": [[v, c] for v, c in profile.top_vectors(top_k)],
        },
        "sharding": None,
    }
    if sharded is not None:
        payload["sharding"] = {
            "shard_size": sharded.plan.shard_size,
            "shards": len(sharded.plan),
            "workers": sharded.workers,
            "recomputed_shards": sharded.recomputed_shards,
            "cached_shards": sharded.cached_shards,
            "recomputed_scans": sharded.recomputed_scans,
            "seconds": sharded.seconds,
        }
    return payload


def search_report(spec: ExperimentSpec, front) -> dict[str, Any]:
    """The ``kind="search"`` report for an estimate-only front.

    ``front`` is the list of :class:`~repro.search.result.SearchResult`
    from :func:`repro.search.hill_climb_front` — index 0 is the
    conventional start, the rest the random restarts.
    """
    best = min(front, key=lambda result: result.estimated_misses)
    return {
        "schema": REPORT_SCHEMA,
        "kind": "search",
        "spec": spec.to_dict(),
        "digests": {"spec": spec.digest},
        "front": [_search_to_json(result) for result in front],
        "best": _search_to_json(best),
    }


# -- campaigns --------------------------------------------------------------

def row_report(row: "CampaignRow") -> dict[str, Any]:
    """The per-row payload inside a campaign report (spec echoed)."""
    spec = row.spec
    payload = {
        "spec": spec.to_dict(),
        "digests": {"spec": spec.digest},
        "base_misses": row.base_misses,
        "optimized_misses": row.optimized_misses,
        "base_misses_per_kuop": row.base_misses_per_kuop,
        "removed_percent": row.removed_percent,
        "accesses": row.accesses,
        "uops": row.uops,
        "search_seed": row.search_seed,
        "seconds": row.seconds,
    }
    # Failure metadata appears only on failed rows: a retried-but-
    # healed run's report stays byte-identical to a fault-free run's.
    if row.status != "ok":
        payload["status"] = row.status
        payload["error"] = row.error
        payload["attempts"] = row.attempts
    return payload


def row_from_report(payload: Mapping[str, Any]) -> "CampaignRow":
    from repro.pipeline.campaign import CampaignRow

    return CampaignRow(
        spec=ExperimentSpec.from_dict(payload["spec"]),
        base_misses=int(payload["base_misses"]),
        optimized_misses=int(payload["optimized_misses"]),
        base_misses_per_kuop=float(payload["base_misses_per_kuop"]),
        removed_percent=float(payload["removed_percent"]),
        accesses=int(payload["accesses"]),
        uops=int(payload["uops"]),
        seconds=float(payload["seconds"]),
        status=payload.get("status", "ok"),
        error=payload.get("error"),
        attempts=int(payload.get("attempts", 1)),
    )


def campaign_report(result: "CampaignResult") -> dict[str, Any]:
    """The ``kind="campaign"`` report: execution metadata + spec'd rows."""
    return {
        "schema": REPORT_SCHEMA,
        "kind": "campaign",
        "workers": result.workers,
        "cache_dir": result.cache_dir,
        "seconds": result.seconds,
        "base_seed": result.base_seed,
        "cache_totals": result.cache_totals(),
        "fully_cached": result.fully_cached,
        "rows": [row_report(row) for row in result.rows],
    }


def campaign_from_report(payload: Mapping[str, Any]) -> "CampaignResult":
    """Rebuild a :class:`CampaignResult` (rows carry no full details)."""
    from repro.pipeline.campaign import CampaignResult

    _check_schema(payload, "campaign")
    return CampaignResult(
        rows=[row_from_report(row) for row in payload["rows"]],
        workers=int(payload["workers"]),
        cache_dir=payload.get("cache_dir"),
        seconds=float(payload["seconds"]),
        base_seed=int(payload.get("base_seed", 0)),
    )


def specs_from_report(payload: Mapping[str, Any]) -> list[ExperimentSpec]:
    """Extract every replayable spec a report carries.

    Works on both kinds: an optimization report yields its one spec, a
    campaign report one spec per row — so any ``--json`` output can be
    fed straight back into :meth:`repro.api.Session.campaign`.
    """
    if not isinstance(payload, Mapping) or payload.get("schema") != REPORT_SCHEMA:
        raise SpecError(
            f"not a {REPORT_SCHEMA} report; got schema "
            f"{payload.get('schema') if isinstance(payload, Mapping) else payload!r}"
        )
    if payload.get("kind") == "optimization":
        if payload.get("spec") is None:
            raise SpecError("this optimization report carries no spec")
        return [ExperimentSpec.from_dict(payload["spec"])]
    if payload.get("kind") == "campaign":
        return [ExperimentSpec.from_dict(row["spec"]) for row in payload["rows"]]
    raise SpecError(f"report kind {payload.get('kind')!r} carries no specs")
