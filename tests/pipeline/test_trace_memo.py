"""The trace-digest memo: warm replays never regenerate a registry trace.

``PipelineContext.trace`` maps every spec to its trace.  With a cache
directory, a registry spec's digest, length, uops, name, kind and
metadata are memoized there, so a replay served from cached artifacts
gets a :class:`DeferredTrace` and never runs the workload kernel.
"""

import json
import pickle
import shutil

import numpy as np
import pytest

import repro.workloads.fingerprint as fingerprint
import repro.workloads.registry as registry
from repro.__main__ import main
from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, Session, TraceSpec
from repro.pipeline.artifact_cache import ArtifactCache
from repro.pipeline.context import TRACE_MEMO, NotCached, PipelineContext, replay_only
from repro.trace.io import save_trace
from repro.trace.trace import DeferredTrace, Trace, TraceDigestError


def tiny_spec(benchmark="qurt", kind="data", cache_bytes=1024):
    return ExperimentSpec(
        trace=TraceSpec("powerstone", benchmark, kind=kind, scale="tiny"),
        geometry=GeometrySpec(cache_bytes=cache_bytes),
        search=SearchSpec(family="2-in"),
    )


def report_bytes(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def timeless(payload):
    """``payload`` with its wall-clock ``seconds`` fields zeroed."""
    if isinstance(payload, dict):
        return {
            key: 0.0 if key == "seconds" else timeless(value)
            for key, value in payload.items()
        }
    return payload


def memo_files(root):
    return sorted(path.name for path in (root / TRACE_MEMO).rglob("*.json"))


@pytest.fixture
def workload_calls(monkeypatch):
    """Every call of the workload registry, the only trace generator."""
    calls = []
    real = registry.get_workload

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(registry, "get_workload", counting)
    return calls


class TestWarmReplays:
    def test_warm_optimize_generates_nothing(self, tmp_path, workload_calls):
        spec = tiny_spec()
        with Session(cache_dir=tmp_path) as cold_session:
            cold = cold_session.optimize(spec)
        assert workload_calls
        assert len(memo_files(tmp_path)) == 1
        workload_calls.clear()
        with Session(cache_dir=tmp_path) as warm_session:
            warm = warm_session.optimize(spec)
            stats = warm_session.cache_stats()
        assert workload_calls == []
        assert report_bytes(warm) == report_bytes(cold)
        assert not any(k.get("misses") or k.get("stores") for k in stats.values())

    def test_warm_campaign_generates_nothing(self, tmp_path, workload_calls):
        specs = [
            tiny_spec(benchmark, kind, size)
            for benchmark in ("qurt", "fir")
            for kind in ("data", "instruction")
            for size in (1024, 4096)
        ]
        with Session(cache_dir=tmp_path, workers=1) as session:
            cold = session.campaign(specs)
        assert len(memo_files(tmp_path)) == 4
        workload_calls.clear()
        with Session(cache_dir=tmp_path, workers=1) as session:
            warm = session.campaign(specs)
        assert workload_calls == []
        assert warm.fully_cached
        assert [timeless(row.to_json()) for row in warm.rows] == [
            timeless(row.to_json()) for row in cold.rows
        ]

    def test_warm_profile_command_generates_nothing(
        self, tmp_path, capsys, workload_calls
    ):
        args = [
            "profile", "powerstone", "qurt", "--scale", "tiny",
            "--cache-dir", str(tmp_path), "--json",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert workload_calls
        workload_calls.clear()
        assert main([*args, "--expect-cached"]) == 0
        assert workload_calls == []
        assert capsys.readouterr().out == cold

    def test_memo_reports_match_memoless_reports(self, tmp_path):
        """A replay through the memo and one that regenerates the trace
        produce the same report bytes."""
        spec = tiny_spec()
        with Session(cache_dir=tmp_path) as session:
            session.optimize(spec)
        with Session(cache_dir=tmp_path) as session:
            via_memo = session.optimize(spec)
        shutil.rmtree(tmp_path / TRACE_MEMO)
        with Session(cache_dir=tmp_path) as session:
            regenerated = session.optimize(spec)
        assert report_bytes(via_memo) == report_bytes(regenerated)

    def test_deferred_trace_generates_when_a_stage_needs_addresses(
        self, tmp_path, workload_calls
    ):
        spec = tiny_spec()
        with Session(cache_dir=tmp_path) as session:
            session.optimize(spec)
        bigger = tiny_spec(cache_bytes=4096)
        workload_calls.clear()
        with Session(cache_dir=tmp_path) as session:
            result = session.optimize(bigger)
        assert len(workload_calls) == 1
        assert timeless(result.to_json()) == timeless(
            Session().optimize(bigger).to_json()
        )

    def test_same_process_reuses_the_registry_cache(self, tmp_path, workload_calls):
        """After generating a trace, a context asks the registry's
        in-process cache again instead of reading the memo."""
        context = PipelineContext(tmp_path)
        reads = []
        real = context.cache.load_memo
        context.cache.load_memo = lambda *args: reads.append(args) or real(*args)
        spec = tiny_spec().trace
        first = context.trace(spec)
        second = context.trace(spec)
        assert type(first) is Trace and second is first
        assert len(reads) == 1
        assert len(workload_calls) == 2


class TestCompatibility:
    def _write_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        tiny_spec().save(path)
        return str(path)

    def test_cache_without_memo_replays_expect_cached(self, tmp_path, capsys):
        spec_file = self._write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["run", spec_file, "--cache-dir", cache, "--json"]) == 0
        cold = capsys.readouterr().out
        shutil.rmtree(tmp_path / "cache" / TRACE_MEMO)
        args = ["run", spec_file, "--cache-dir", cache, "--json", "--expect-cached"]
        assert main(args) == 0
        assert capsys.readouterr().out == cold
        assert len(memo_files(tmp_path / "cache")) == 1
        assert main(args) == 0
        assert capsys.readouterr().out == cold

    def test_campaign_without_memo_replays_expect_cached(self, tmp_path, capsys):
        args = [
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt", "fir",
            "--cache-kb", "1", "--families", "2-in", "--scale", "tiny",
            "--workers", "1", "--cache-dir", str(tmp_path), "--json", "-",
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_totals"] == {"hits": 0, "misses": 8, "stores": 8}
        shutil.rmtree(tmp_path / TRACE_MEMO)
        assert main([*args, "--expect-cached"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["fully_cached"]
        assert len(memo_files(tmp_path)) == 2

    @pytest.mark.parametrize("storage", ["local", "sqlite"])
    def test_corrupt_entry_is_quarantined_and_ignored(
        self, tmp_path, storage, workload_calls
    ):
        spec = tiny_spec()
        with Session(cache_dir=tmp_path, storage=storage) as session:
            cold = session.optimize(spec)
        cache = ArtifactCache(tmp_path, storage=storage)
        key = PipelineContext(cache)._trace_key(spec.trace)
        cache.storage.corrupt(TRACE_MEMO, key, ".json")
        assert cache.load_memo(TRACE_MEMO, key) is None
        assert list(cache.quarantine_dir.iterdir())
        cache.close()
        workload_calls.clear()
        with Session(cache_dir=tmp_path, storage=storage) as session:
            warm = session.optimize(spec)
            stats = session.cache_stats()
        assert len(workload_calls) == 1
        assert report_bytes(warm) == report_bytes(cold)
        assert not any(k.get("misses") or k.get("stores") for k in stats.values())
        cache = ArtifactCache(tmp_path, storage=storage)
        assert cache.load_memo(TRACE_MEMO, key)["digest"] == cold.trace_digest
        cache.close()

    def test_unparseable_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_memo(TRACE_MEMO, "ab" * 32, {"digest": "x"})
        path = cache.path_for(TRACE_MEMO, "ab" * 32, ".json")
        path.write_text("{not json")
        path.with_name(path.name + ".sha256").unlink()
        assert cache.load_memo(TRACE_MEMO, "ab" * 32) is None
        assert not path.exists()
        assert cache.stats() == {}

    def test_malformed_record_reads_as_a_miss(self, tmp_path, workload_calls):
        spec = tiny_spec().trace
        context = PipelineContext(tmp_path)
        context.cache.store_memo(TRACE_MEMO, context._trace_key(spec), {"digest": 1})
        trace = context.trace(spec)
        assert type(trace) is Trace and len(workload_calls) == 1

    def test_changed_fingerprint_misses(self, tmp_path, monkeypatch, workload_calls):
        spec = tiny_spec()
        with Session(cache_dir=tmp_path) as session:
            session.optimize(spec)
        monkeypatch.setattr(fingerprint, "generator_fingerprint", lambda: "0" * 64)
        workload_calls.clear()
        with Session(cache_dir=tmp_path) as session:
            session.optimize(spec)
        assert len(workload_calls) == 1
        assert len(memo_files(tmp_path)) == 2

    def test_fingerprint_covers_the_generators(self):
        value = fingerprint.generator_fingerprint()
        assert len(value) == 64
        assert value == fingerprint.generator_fingerprint()

    def test_fingerprint_reads_the_imported_numpy_version(self):
        """The version read without importing NumPy is the one NumPy
        reports, so the key is the recipe's: sha256 over the version
        and every generator source."""
        import hashlib
        from pathlib import Path

        assert fingerprint.numpy_version() == np.__version__
        package = Path(fingerprint.__file__).resolve().parent.parent
        digest = hashlib.sha256(f"numpy={np.__version__}".encode())
        sources = sorted(
            path.relative_to(package).as_posix()
            for path in (package / "workloads").rglob("*.py")
        )
        for name in [*sources, "trace/trace.py"]:
            digest.update(f"\0{name}\0".encode())
            digest.update((package / name).read_bytes())
        assert fingerprint.generator_fingerprint() == digest.hexdigest()

    def test_forged_digest_raises_and_serves_nothing(self, tmp_path, capsys):
        spec = tiny_spec()
        spec_file = tmp_path / "spec.toml"
        spec.save(spec_file)
        cache_dir = tmp_path / "cache"
        with Session(cache_dir=cache_dir) as session:
            session.optimize(spec)
        cache = ArtifactCache(cache_dir)
        key = PipelineContext(cache)._trace_key(spec.trace)
        record = cache.load_memo(TRACE_MEMO, key)
        cache.store_memo(TRACE_MEMO, key, dict(record, digest="f" * 64))
        with Session(cache_dir=cache_dir) as session:
            with pytest.raises(TraceDigestError):
                session.optimize(spec)
        capsys.readouterr()
        with pytest.raises(TraceDigestError):
            main(["run", str(spec_file), "--cache-dir", str(cache_dir), "--json"])
        assert capsys.readouterr().out == ""


class TestWithoutMemo:
    def test_file_backed_specs_skip_the_memo(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the memo was consulted")

        load_memo = ArtifactCache.load_memo

        def other_memos_only(cache, kind, key):
            # Profiles keep their own memo; only the trace memo is off.
            if kind == TRACE_MEMO:
                forbidden()
            return load_memo(cache, kind, key)

        monkeypatch.setattr(PipelineContext, "_trace_key", forbidden)
        monkeypatch.setattr(ArtifactCache, "load_memo", other_memos_only)
        path = tmp_path / "trace.npz"
        save_trace(registry.get_trace("powerstone", "qurt", scale="tiny"), path)
        spec = ExperimentSpec(
            trace=TraceSpec(path=str(path)),
            geometry=GeometrySpec(cache_bytes=1024),
        )
        with Session(cache_dir=tmp_path / "cache") as session:
            session.optimize(spec)
            session.profile(spec)
        assert not (tmp_path / "cache" / TRACE_MEMO).exists()

    def test_contexts_without_a_cache_resolve_directly(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the memo was consulted")

        monkeypatch.setattr(PipelineContext, "_trace_key", forbidden)
        monkeypatch.setattr(ArtifactCache, "load_memo", forbidden)
        spec = tiny_spec()
        assert PipelineContext().trace(spec.trace) is spec.trace.resolve()
        Session().optimize(spec)

    def test_replay_only_neither_reads_nor_generates(self, tmp_path, workload_calls):
        path = tmp_path / "trace.npz"
        save_trace(registry.get_trace("powerstone", "qurt", scale="tiny"), path)
        workload_calls.clear()
        contexts = PipelineContext(tmp_path / "cache"), PipelineContext()
        with replay_only():
            for spec, context, kind in (
                (TraceSpec(path=str(path)), contexts[0], "trace"),
                (tiny_spec().trace, contexts[1], "trace"),
                (tiny_spec().trace, contexts[0], TRACE_MEMO),
            ):
                with pytest.raises(NotCached) as raised:
                    context.trace(spec)
                assert raised.value.kind == kind
        assert not workload_calls


class TestDeferredTrace:
    def _deferred(self, trace, source, **overrides):
        record = dict(
            digest=trace.digest,
            length=len(trace),
            uops=trace.uops,
            name=trace.name,
            kind=trace.kind,
            metadata=dict(trace.metadata),
        )
        record.update(overrides)
        return DeferredTrace(source, **record)

    def test_answers_everything_but_addresses_without_generating(self):
        spec = tiny_spec().trace

        class Unreachable:
            def resolve(self):
                raise AssertionError("generated")

        trace = spec.resolve()
        deferred = self._deferred(trace, Unreachable())
        assert isinstance(deferred, Trace)
        assert deferred.digest == trace.digest
        assert (len(deferred), deferred.uops, deferred.name, deferred.kind) == (
            len(trace), trace.uops, trace.name, trace.kind
        )
        assert deferred.mmap_path is None

    def test_generates_matching_addresses_once(self):
        spec = tiny_spec().trace
        trace = spec.resolve()
        deferred = self._deferred(trace, spec)
        np.testing.assert_array_equal(deferred.block_addresses(4), trace.block_addresses(4))
        assert deferred.addresses is deferred.addresses

    @pytest.mark.parametrize("field", ["digest", "length"])
    def test_mismatch_raises(self, field):
        spec = tiny_spec().trace
        trace = spec.resolve()
        wrong = {"digest": "0" * 64, "length": len(trace) + 1}[field]
        deferred = self._deferred(trace, spec, **{field: wrong})
        with pytest.raises(TraceDigestError):
            deferred.addresses
        with pytest.raises(TraceDigestError):
            deferred.block_addresses(4)

    def test_pickles(self):
        spec = tiny_spec().trace
        trace = spec.resolve()
        deferred = pickle.loads(pickle.dumps(self._deferred(trace, spec)))
        assert deferred.digest == trace.digest
        np.testing.assert_array_equal(deferred.addresses, trace.addresses)

    def test_replay_only_refuses_the_addresses(self):
        spec = tiny_spec().trace
        trace = spec.resolve()
        deferred = self._deferred(trace, spec)
        with replay_only(), pytest.raises(NotCached) as raised:
            deferred.block_addresses(4)
        assert (raised.value.kind, raised.value.key) == ("trace", trace.digest)
        np.testing.assert_array_equal(deferred.addresses, trace.addresses)
