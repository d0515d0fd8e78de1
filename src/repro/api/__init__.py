"""Declarative experiment API: typed specs, one Session, stable reports.

The paper's workflow — profile (Fig. 1), estimate (Eq. 4), search
(Sec. 3.2), verify by simulation — is described declaratively by an
:class:`ExperimentSpec` (frozen, validated, TOML/JSON-serializable) and
executed by a :class:`Session`::

    from repro.api import ExperimentSpec, Session, TraceSpec

    spec = ExperimentSpec(trace=TraceSpec("mibench", "fft"))
    result = Session(cache_dir="~/.cache/repro").optimize(spec)
    report = result.to_json()          # stable repro-report/v1 schema
    assert ExperimentSpec.from_dict(report["spec"]) == spec

Every result serializes through one versioned schema
(:mod:`repro.api.report`) with the producing spec echoed inside, so
any report is a replayable input.  All spec validation errors raise
:class:`SpecError` with a message that names the fix.
"""

from repro.api.errors import SpecError
from repro.api.report import (
    REPORT_SCHEMA,
    campaign_from_report,
    campaign_report,
    optimization_from_report,
    optimization_report,
    profile_report,
    specs_from_report,
)
from repro.api.session import Session, expand_grid
from repro.api.spec import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    TraceSpec,
)

__all__ = [
    "SpecError",
    "TraceSpec",
    "GeometrySpec",
    "SearchSpec",
    "ExecutionSpec",
    "ExperimentSpec",
    "Session",
    "expand_grid",
    "REPORT_SCHEMA",
    "optimization_report",
    "optimization_from_report",
    "campaign_report",
    "campaign_from_report",
    "profile_report",
    "specs_from_report",
]
