"""A warm replay runs no compute, at every entry point.

Each entry point runs cold, then warm inside ``no_compute()``: every
compute kernel — the Fig. 1 profiler, the exact simulators, the search
drivers, the exhaustive and fully-associative columns of Table 3, and
workload generation — raises, and so does a deferred trace asked for
its addresses.  A warm run must finish from the artifact cache alone,
and its cache events must be a replay.  Checking outputs, files or
counters alone cannot tell a stage that bypasses the cache from one
served by it; this harness checks the work done.
"""

import contextlib
import importlib
import sys
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    Session,
    TraceSpec,
)
from repro.pipeline.artifact_cache import cache_events, replayed
from repro.trace.trace import DeferredTrace

#: (defining module, name) of every compute kernel a replay must not reach.
KERNELS = (
    ("repro.profiling.conflict_profile", "profile_blocks"),
    ("repro.cache.engine.dispatch", "simulate"),
    ("repro.cache.engine.dispatch", "simulate_capacity"),
    ("repro.cache.engine.dispatch", "simulate_banks"),
    ("repro.cache.engine.batched", "evaluate_many"),
    ("repro.search.hill_climb", "hill_climb_front"),
    ("repro.search.hill_climb", "hill_climb_restarts"),
    ("repro.search.branch_bound", "branch_bound_search"),
    ("repro.search.exhaustive", "optimal_bit_select"),
    ("repro.workloads.registry", "get_workload"),
)

SPECS = [
    ExperimentSpec(
        trace=TraceSpec("powerstone", benchmark, scale="tiny"),
        geometry=GeometrySpec(cache_bytes=1024),
        search=SearchSpec(family=family),
    )
    for benchmark, family in (("qurt", "2-in"), ("fir", "16-in"))
]


class ComputeRan(AssertionError):
    """A warm replay reached a compute kernel."""


def _forbidden(name):
    def kernel(*args, **kwargs):
        raise ComputeRan(f"a warm replay called {name}")

    return kernel


@pytest.fixture
def no_compute():
    """A context manager inside which every compute kernel raises.

    Each kernel is replaced in its defining module and in every loaded
    ``repro`` module that bound it by name.
    """

    @contextlib.contextmanager
    def scope():
        with pytest.MonkeyPatch.context() as patch:
            for module_name, name in KERNELS:
                original = getattr(importlib.import_module(module_name), name)
                for module in list(sys.modules.values()):
                    owner = getattr(module, "__name__", None) or ""
                    if owner != "repro" and not owner.startswith("repro."):
                        continue
                    if vars(module).get(name) is original:
                        patch.setattr(module, name, _forbidden(name))
            patch.setattr(
                DeferredTrace,
                "addresses",
                property(_forbidden("DeferredTrace.addresses")),
            )
            yield

    return scope


def test_the_fixture_forbids_compute(no_compute):
    with no_compute(), pytest.raises(ComputeRan):
        Session().optimize(SPECS[0])


class TestCli:
    def test_run(self, tmp_path, no_compute):
        spec_file = SPECS[0].save(tmp_path / "spec.toml")
        argv = [
            "run", str(spec_file), "--cache-dir", str(tmp_path / "c"), "--workers", "1",
        ]
        assert main(argv) == 0
        with no_compute():
            assert main([*argv, "--expect-cached"]) == 0

    def test_campaign(self, tmp_path, no_compute):
        argv = [
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt", "fir",
            "--cache-kb", "1", "4", "--families", "2-in", "16-in",
            "--scale", "tiny", "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        with no_compute():
            assert main([*argv, "--expect-cached"]) == 0

    @pytest.mark.parametrize("sharding", [[], ["--shard-size", "300"]])
    def test_profile(self, tmp_path, no_compute, sharding):
        argv = [
            "profile", "powerstone", "qurt", "--scale", "tiny", "--workers", "1",
            "--cache-dir", str(tmp_path), *sharding,
        ]
        assert main(argv) == 0
        with no_compute():
            assert main([*argv, "--expect-cached"]) == 0

    def test_tables(self, tmp_path, no_compute, capsys):
        argv = [
            "tables", "--only", "general-vs-perm", "table2", "--scale", "tiny",
            "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        with no_compute(), cache_events() as events:
            assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert replayed(events)

    @pytest.mark.xfail(
        strict=True,
        raises=ComputeRan,
        reason="ROADMAP item 4: Table 3 rows are no cached stages; a warm "
        "run regenerates each trace and recomputes the opt and FA columns",
    )
    def test_table3(self, tmp_path, no_compute, monkeypatch):
        # Two rows are enough to show it, at a fraction of the full table.
        monkeypatch.setattr(
            "repro.experiments.table3.workload_names", lambda suite: ["qurt", "fir"]
        )
        argv = [
            "tables", "--only", "table3", "--scale", "tiny", "--workers", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        with no_compute():
            assert main(argv) == 0


class TestSession:
    @pytest.fixture
    def warm(self, tmp_path):
        """A session over a cache every spec below has run into."""
        sharded = replace(SPECS[0], execution=ExecutionSpec(shard_size=300))
        with Session(cache_dir=tmp_path, workers=1) as cold:
            cold.optimize(SPECS[0])
            cold.profile(sharded)
            cold.campaign(SPECS)
        with Session(cache_dir=tmp_path, workers=1) as session:
            yield session

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda session: session.optimize(SPECS[0]),
            lambda session: session.profile(SPECS[0]),
            lambda session: session.profile(
                replace(SPECS[0], execution=ExecutionSpec(shard_size=300))
            ),
            lambda session: session.campaign(SPECS),
        ],
        ids=["optimize", "profile", "sharded-profile", "campaign"],
    )
    def test_entry_point(self, warm, no_compute, entry_point):
        with no_compute(), cache_events() as events:
            entry_point(warm)
        assert replayed(events)
