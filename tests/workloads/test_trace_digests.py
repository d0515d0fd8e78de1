"""Every registry trace, pinned.

``tests/data/trace_digests.json`` holds, for each suite × kernel ×
{tiny, small}, the run's name and uops and, per trace kind, the content
digest and length.  A change to the builder layer (``workloads/cpu.py``,
``workloads/layout.py``) or to a kernel that moves any of them fails
here.  Regenerate the file only for a change meant to move traces::

    PYTHONPATH=src python -m tests.workloads.test_trace_digests
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

import repro.workloads.registry as registry
from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, Session, TraceSpec
from repro.names import TRACE_KINDS
from repro.workloads.powerstone import run_adpcm, run_jpeg
from repro.workloads.registry import SUITES, get_workload, workload_names

PINNED = Path(__file__).resolve().parent.parent / "data" / "trace_digests.json"
SCALES = ("tiny", "small")
CASES = [
    (suite, name, scale)
    for suite in SUITES
    for name in workload_names(suite)
    for scale in SCALES
]


def _case_id(suite: str, name: str, scale: str) -> str:
    return f"{suite}/{name}/{scale}"


def describe(suite: str, name: str, scale: str) -> dict:
    """Name, uops and per-kind digest/length of one freshly run kernel."""
    # Unwrapped: a fresh run per case, and the small runs do not stay
    # in the registry's cache for the rest of the suite.
    run = get_workload.__wrapped__(suite, name, scale, 0)
    entry: dict = {"name": run.name, "uops": run.uops}
    for kind in TRACE_KINDS:
        trace = run.trace(kind)
        entry[kind] = {
            "digest": trace.digest,
            "length": len(trace),
            "name": trace.name,
            "uops": trace.uops,
        }
    return entry


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_pins_every_case(pinned):
    assert sorted(pinned) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize("suite,name,scale", CASES, ids=[_case_id(*c) for c in CASES])
def test_trace_matches_pin(pinned, suite, name, scale):
    assert describe(suite, name, scale) == pinned[_case_id(suite, name, scale)]


@pytest.mark.parametrize("runner,name", [(run_adpcm, "adpcm"), (run_jpeg, "jpeg")])
def test_renamed_powerstone_codecs(runner, name):
    # Built from the MiBench codecs, renamed before either trace is read.
    run = runner("tiny")
    assert "instructions" not in vars(run)
    assert run.name == run.data.name == run.instructions.name == f"powerstone/{name}"


class TestInstructionsOnDemand:
    @pytest.fixture
    def runs(self, monkeypatch):
        """A private workload cache, so every run starts unbuilt."""
        cached = lru_cache(maxsize=None)(get_workload.__wrapped__)
        monkeypatch.setattr(registry, "get_workload", cached)
        return cached

    @staticmethod
    def spec(kind: str, family: str = "2-in") -> ExperimentSpec:
        return ExperimentSpec(
            trace=TraceSpec("powerstone", "qurt", kind=kind, scale="tiny"),
            geometry=GeometrySpec(cache_bytes=1024),
            search=SearchSpec(family=family),
        )

    def test_data_specs_never_build_instructions(self, tmp_path, runs, pinned):
        with Session(cache_dir=tmp_path) as session:
            session.campaign([self.spec("data")])
            session.optimize(self.spec("data", family="4-in"))
            run = runs("powerstone", "qurt", "tiny", 0)
            assert runs.cache_info().currsize == 1
            assert "instructions" not in vars(run)
            result = session.optimize(self.spec("instruction"))
        pin = pinned["powerstone/qurt/tiny"]
        assert result.trace_digest == pin["instruction"]["digest"]
        assert run.instructions.digest == pin["instruction"]["digest"]
        assert run.data.digest == pin["data"]["digest"]


if __name__ == "__main__":
    table = {_case_id(*case): describe(*case) for case in CASES}
    PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {PINNED}")
