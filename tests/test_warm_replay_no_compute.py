"""A warm replay runs no compute, at every entry point.

Each entry point runs cold, then warm twice: once inside
``no_compute()``, where every compute kernel — the Fig. 1 profiler, the
exact simulators, the search drivers, Table 3's optimal bit-select
search, and workload generation — raises, and so does a deferred trace
asked for its addresses; and once inside
:func:`~repro.pipeline.context.replay_only`, the production form of the
same refusal.  A warm run must finish from the artifact cache alone,
and its cache events must be a replay.  Cold, the replay-only run must
raise :class:`~repro.pipeline.context.NotCached`.  Checking outputs,
files or counters alone cannot tell a stage that bypasses the cache
from one served by it; this harness checks the work done.
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
from repro.pipeline.context import NotCached, replay_only
from repro.serve import ReproServer, ServeClient
from repro.trace.trace import DeferredTrace

#: (defining module, name) of every compute kernel a replay must not reach.
KERNELS = (
    ("repro.profiling.conflict_profile", "profile_blocks"),
    ("repro.cache.engine.dispatch", "simulate"),
    ("repro.cache.engine.dispatch", "simulate_capacity"),
    ("repro.cache.engine.dispatch", "simulate_banks"),
    ("repro.cache.engine.dispatch", "evaluate_many"),
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


@pytest.fixture
def refusals(no_compute):
    """Both scopes a warm run must pass: the patched kernels, and
    :func:`replay_only`."""
    return (no_compute, replay_only)


def test_the_fixture_forbids_compute(no_compute):
    with no_compute(), pytest.raises(ComputeRan):
        Session().optimize(SPECS[0])
    with replay_only(), pytest.raises(NotCached):
        Session().optimize(SPECS[0])


def run_cold_then_warm(argv, refusals):
    """``repro <argv>`` raises NotCached replay-only and computes plain
    when cold, then replays ``--expect-cached`` under each refusal."""
    with replay_only(), pytest.raises(NotCached):
        main(argv)
    assert main(argv) == 0
    for refusal in refusals:
        with refusal():
            assert main([*argv, "--expect-cached"]) == 0


class TestCli:
    def test_run(self, tmp_path, refusals):
        spec_file = SPECS[0].save(tmp_path / "spec.toml")
        argv = [
            "run", str(spec_file), "--cache-dir", str(tmp_path / "c"), "--workers", "1",
        ]
        run_cold_then_warm(argv, refusals)

    def test_campaign(self, tmp_path, refusals):
        argv = [
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt", "fir",
            "--cache-kb", "1", "4", "--families", "2-in", "16-in",
            "--scale", "tiny", "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        run_cold_then_warm(argv, refusals)

    @pytest.mark.parametrize("sharding", [[], ["--shard-size", "300"]])
    def test_profile(self, tmp_path, refusals, sharding):
        argv = [
            "profile", "powerstone", "qurt", "--scale", "tiny", "--workers", "1",
            "--cache-dir", str(tmp_path), *sharding,
        ]
        run_cold_then_warm(argv, refusals)

    def test_tables(self, tmp_path, refusals, capsys, monkeypatch):
        # Two Table 3 rows are enough to show it, at a fraction of the table.
        monkeypatch.setattr(
            "repro.experiments.table3.workload_names", lambda suite: ["qurt", "fir"]
        )
        cache = ["--scale", "tiny", "--workers", "1", "--cache-dir", str(tmp_path)]
        argv = ["tables", "--only", "general-vs-perm", "table2", "table3", *cache]
        # Table 3 runs last, so it refuses cold on its own too.
        for only in (argv, ["tables", "--only", "table3", *cache]):
            with replay_only(), pytest.raises(NotCached):
                main(only)
        capsys.readouterr()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        for refusal in refusals:
            with refusal(), cache_events() as events:
                assert main(argv) == 0
            assert capsys.readouterr().out == cold
            assert replayed(events)


class TestSession:
    @pytest.fixture
    def warm(self, tmp_path):
        """A cache every spec below has run into."""
        sharded = replace(SPECS[0], execution=ExecutionSpec(shard_size=300))
        with Session(cache_dir=tmp_path, workers=1) as cold:
            cold.optimize(SPECS[0])
            cold.profile(sharded)
            cold.campaign(SPECS)
        return tmp_path

    ENTRY_POINTS = pytest.mark.parametrize(
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

    @ENTRY_POINTS
    def test_entry_point(self, warm, refusals, entry_point):
        for refusal in refusals:
            # A session apiece: the first one's memo would serve the second.
            with Session(cache_dir=warm, workers=1) as session:
                with refusal(), cache_events() as events:
                    entry_point(session)
            assert replayed(events)

    @ENTRY_POINTS
    def test_cold_entry_point_raises(self, tmp_path, entry_point):
        with Session(cache_dir=tmp_path, workers=1) as cold, cache_events() as events:
            with replay_only(), pytest.raises(NotCached):
                entry_point(cold)
        assert events == {}  # the probe charged no miss


class TestServe:
    def test_hit_is_answered_inline(self, tmp_path, no_compute):
        """A served hit replays on the event-loop thread, where the
        server's own replay-only scope raises at any compute; the
        patched kernels check that no other path computed."""
        spec = SPECS[0].to_dict()

        def serve():
            session = Session(cache_dir=tmp_path, storage="sqlite")
            server = ReproServer(session=session, port=0, own_session=True)
            handle = server.run_in_thread()
            return handle, ServeClient(port=handle.port)

        handle, client = serve()
        cold = client.run(spec, timeout=300)
        handle.stop()
        # A restarted server, whose workload registry holds no trace
        # that a patched kernel would refuse to hand out.
        handle, client = serve()
        try:
            with no_compute():
                posted = client.submit(spec)
                assert posted["state"] == "done"
                warm = client.job(posted["job_id"])
            assert (warm["cached"], warm["attempts"]) == (True, 1)
            assert warm["report"] == cold["report"]
        finally:
            handle.stop()
