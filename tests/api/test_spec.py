"""Spec classes: validation, error messages, and lossless round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    SpecError,
    TraceSpec,
)
from repro.api import tomlio
from repro.workloads.registry import SCALES, SUITES, TRACE_KINDS, workload_names

# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

_WORKLOADS = [
    (suite, name) for suite in sorted(SUITES) for name in workload_names(suite)
]


@st.composite
def trace_specs(draw):
    suite, benchmark = draw(st.sampled_from(_WORKLOADS))
    return TraceSpec(
        suite=suite,
        benchmark=benchmark,
        kind=draw(st.sampled_from(TRACE_KINDS)),
        scale=draw(st.sampled_from(SCALES)),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )


@st.composite
def geometry_specs(draw):
    # Built multiplicatively from powers of two, so every draw is a
    # valid geometry (total size, block size and set count all 2^k).
    block_size = draw(st.sampled_from((4, 8, 16)))
    associativity = draw(st.sampled_from((1, 2, 4)))
    sets = 1 << draw(st.integers(min_value=3, max_value=10))
    return GeometrySpec(
        cache_bytes=block_size * associativity * sets,
        block_size=block_size,
        associativity=associativity,
    )


@st.composite
def search_specs(draw, min_n: int = 12):
    return SearchSpec(
        family=draw(st.sampled_from(("1-in", "2-in", "4-in", "16-in", "general"))),
        strategy=draw(
            st.sampled_from(
                ("steepest", "first-improvement", "beam:2", "anneal:100:3")
            )
        ),
        n=draw(st.integers(min_value=min_n, max_value=20)),
        restarts=draw(st.integers(min_value=0, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=1000)),
        guard=draw(st.booleans()),
        max_steps=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=50))),
    )


@st.composite
def execution_specs(draw):
    return ExecutionSpec(
        workers=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8))),
        cache_dir=draw(st.one_of(st.none(), st.just("/tmp/repro-cache"))),
        shard_size=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 22))
        ),
        retries=draw(st.integers(min_value=0, max_value=5)),
        task_timeout=draw(st.one_of(st.none(), st.just(30.0), st.just(0.5))),
        on_error=draw(st.sampled_from(("raise", "skip", "retry"))),
    )


@st.composite
def experiment_specs(draw):
    geometry = draw(geometry_specs())
    # n must cover the geometry's index bits (up to 10 with the
    # generator above, while min_n=12), so every draw is consistent.
    return ExperimentSpec(
        trace=draw(trace_specs()),
        geometry=geometry,
        search=draw(search_specs(min_n=12)),
        execution=draw(execution_specs()),
    )


# ---------------------------------------------------------------------------
# Round trips: dict, TOML and JSON, for every spec class
# ---------------------------------------------------------------------------


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(spec=trace_specs())
    def test_trace_dict(self, spec):
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=geometry_specs())
    def test_geometry_dict(self, spec):
        assert GeometrySpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=search_specs())
    def test_search_dict(self, spec):
        assert SearchSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=execution_specs())
    def test_execution_dict(self, spec):
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=experiment_specs())
    def test_experiment_dict(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=experiment_specs())
    def test_experiment_toml(self, spec):
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=experiment_specs())
    def test_experiment_json(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(payload) == spec

    @settings(max_examples=25, deadline=None)
    @given(spec=experiment_specs())
    def test_save_load_both_formats(self, spec, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("specs")
        for name in ("spec.toml", "spec.json"):
            path = spec.save(tmp / name)
            assert ExperimentSpec.load(path) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=experiment_specs())
    def test_digest_deterministic_and_execution_free(self, spec):
        clone = ExperimentSpec.from_toml(spec.to_toml())
        assert clone.digest == spec.digest
        assert spec.with_execution(cache_dir="/elsewhere", workers=7).digest == spec.digest

    def test_digest_covers_result_fields(self):
        spec = ExperimentSpec(trace=TraceSpec("mibench", "fft"))
        for other in (
            ExperimentSpec(trace=TraceSpec("mibench", "susan")),
            ExperimentSpec(trace=TraceSpec("mibench", "fft", scale="tiny")),
            ExperimentSpec(
                trace=TraceSpec("mibench", "fft"),
                geometry=GeometrySpec(cache_bytes=1024),
            ),
            ExperimentSpec(
                trace=TraceSpec("mibench", "fft"),
                search=SearchSpec(family="4-in"),
            ),
        ):
            assert other.digest != spec.digest


# ---------------------------------------------------------------------------
# Validation: one SpecError, actionable messages
# ---------------------------------------------------------------------------


class TestSpecErrors:
    def test_unknown_suite(self):
        with pytest.raises(SpecError, match=r"unknown suite 'nope'.*mibench.*powerstone"):
            TraceSpec(suite="nope", benchmark="fft")

    def test_unknown_benchmark_lists_choices(self):
        with pytest.raises(
            SpecError, match=r"unknown workload mibench/nope; choose from .*fft"
        ):
            TraceSpec(suite="mibench", benchmark="nope")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match=r"trace\.kind.*data, instruction"):
            TraceSpec("mibench", "fft", kind="video")

    def test_unknown_scale(self):
        with pytest.raises(SpecError, match=r"trace\.scale.*tiny, small, default, large"):
            TraceSpec("mibench", "fft", scale="huge")

    def test_bad_geometry_size(self):
        with pytest.raises(
            SpecError, match=r"geometry: cache size must be a positive power of two"
        ):
            GeometrySpec(cache_bytes=1000)

    def test_bad_geometry_sets(self):
        with pytest.raises(SpecError, match=r"geometry:"):
            GeometrySpec(cache_bytes=4096, block_size=4, associativity=3)

    def test_unknown_family_lists_choices(self):
        with pytest.raises(
            SpecError,
            match=r"search\.family: unknown family 'fancy'; choose from "
            r"1-in, 2-in, 4-in, 16-in, general",
        ):
            SearchSpec(family="fancy")

    def test_unknown_strategy_lists_choices(self):
        with pytest.raises(
            SpecError,
            match=r"search\.strategy: unknown search strategy 'psychic'; "
            r"choose from steepest, first-improvement",
        ):
            SearchSpec(strategy="psychic")

    def test_window_narrower_than_index_is_actionable(self):
        with pytest.raises(
            SpecError, match=r"search\.n:.*m=12.*n=8.*raise search\.n to at least 12"
        ):
            ExperimentSpec(
                trace=TraceSpec("mibench", "fft"),
                geometry=GeometrySpec(cache_bytes=16384),
                search=SearchSpec(n=8),
            )

    def test_negative_counts(self):
        with pytest.raises(SpecError, match=r"search\.restarts: must be >= 0"):
            SearchSpec(restarts=-1)
        with pytest.raises(SpecError, match=r"trace\.seed"):
            TraceSpec("mibench", "fft", seed=-3)

    def test_unknown_key_names_known_ones(self):
        with pytest.raises(SpecError, match=r"trace\.benchmrk.*known keys:.*benchmark"):
            TraceSpec.from_dict({"suite": "mibench", "benchmrk": "fft"})

    def test_missing_trace_table(self):
        with pytest.raises(SpecError, match=r"\[trace\] table"):
            ExperimentSpec.from_dict({"geometry": {"cache_bytes": 4096}})

    def test_not_valid_toml(self):
        with pytest.raises(SpecError, match="not valid TOML"):
            ExperimentSpec.from_toml("[trace\nsuite=")

    def test_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            TraceSpec(suite="nope", benchmark="fft")

    def test_coerce_rejects_junk(self):
        with pytest.raises(SpecError, match="cannot interpret"):
            ExperimentSpec.coerce(42)


class TestTomlEmitter:
    def test_none_values_are_omitted(self):
        text = tomlio.dumps({"a": None, "t": {"x": 1, "y": None}})
        assert "a" not in text and "y" not in text and "x = 1" in text

    def test_all_none_table_is_dropped(self):
        assert "[t]" not in tomlio.dumps({"t": {"x": None}})

    def test_scalars_round_trip(self):
        payload = {
            "t": {"s": 'quo"te\\path', "i": -3, "f": 1.5, "b": True,
                  "l": [1, 2, 3]}
        }
        assert tomlio.loads(tomlio.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# File-backed trace specs and the sharded execution knob
# ---------------------------------------------------------------------------


class TestFileTraceSpecs:
    def _bin(self, tmp_path):
        import numpy as np

        from repro.trace import Trace, save_trace_bin

        path = tmp_path / "t.bin"
        save_trace_bin(
            Trace(np.array([0, 32, 64, 32], dtype=np.uint64)), path
        )
        return str(path)

    def test_dict_round_trip(self, tmp_path):
        spec = TraceSpec(path=self._bin(tmp_path))
        payload = spec.to_dict()
        assert payload == {"kind": "data", "path": spec.path, "format": "bin"}
        assert TraceSpec.from_dict(payload) == spec

    def test_registry_dict_has_no_path_keys(self):
        payload = TraceSpec("mibench", "fft").to_dict()
        assert "path" not in payload and "format" not in payload

    def test_format_inferred_from_suffix(self, tmp_path):
        spec = TraceSpec(path=self._bin(tmp_path))
        assert spec.format == "bin"

    def test_label(self, tmp_path):
        path = self._bin(tmp_path)
        assert TraceSpec(path=path).label == f"file:{path}"
        assert TraceSpec("mibench", "fft").label == "mibench/fft"

    def test_resolve_opens_mmap(self, tmp_path):
        trace = TraceSpec(path=self._bin(tmp_path)).resolve()
        assert trace.mmap_path is not None
        assert len(trace) == 4

    def test_experiment_toml_round_trip(self, tmp_path):
        spec = ExperimentSpec(
            trace=TraceSpec(path=self._bin(tmp_path)),
            search=SearchSpec(n=12),
            execution=ExecutionSpec(shard_size=1000),
        )
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_path_and_registry_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="not both|not "):
            TraceSpec("mibench", "fft", path=self._bin(tmp_path))

    def test_scale_with_path_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="scale"):
            TraceSpec(path=self._bin(tmp_path), scale="large")

    def test_format_without_path_rejected(self):
        with pytest.raises(SpecError, match="trace.format"):
            TraceSpec("mibench", "fft", format="bin")

    def test_unknown_suffix_needs_explicit_format(self, tmp_path):
        with pytest.raises(SpecError, match="format"):
            TraceSpec(path=str(tmp_path / "t.weird"))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="format"):
            TraceSpec(path=str(tmp_path / "t.bin"), format="tarball")

    def test_missing_file_fails_at_resolve(self, tmp_path):
        spec = TraceSpec(path=str(tmp_path / "absent.bin"))
        with pytest.raises(SpecError, match="absent.bin"):
            spec.resolve()

    def test_missing_suite_error_mentions_both_options(self):
        with pytest.raises(SpecError, match="trace.path"):
            TraceSpec()


def _bad_npz_without_header(path):
    import numpy as np

    np.savez(path, addresses=np.arange(3, dtype=np.uint64))


def _bad_sidecar(path):
    path.write_bytes(b"\x00" * 16)
    (path.parent / (path.name + ".meta.json")).write_text("{not json")


#: One malformed file per failure the readers must type: (suffix, writer).
_MALFORMED_TRACES = {
    "dinero-bad-hex": (".din", lambda p: p.write_text("0 zz\n")),
    "text-bad-hex": (".txt", lambda p: p.write_text("zz\n")),
    "dinero-not-utf8": (".din", lambda p: p.write_bytes(b"0 1\xff\xfe\n")),
    "bin-3-bytes": (".bin", lambda p: p.write_bytes(b"abc")),
    "npz-garbage": (".npz", lambda p: p.write_bytes(b"garbage")),
    "npz-no-header": (".npz", _bad_npz_without_header),
    "bin-bad-sidecar": (".bin", _bad_sidecar),
}


class TestMalformedTraceFiles:
    @pytest.mark.parametrize("case", sorted(_MALFORMED_TRACES))
    def test_resolve_raises_spec_error(self, tmp_path, case):
        suffix, write = _MALFORMED_TRACES[case]
        path = tmp_path / f"bad{suffix}"
        write(path)
        with pytest.raises(SpecError, match="cannot read trace file") as caught:
            TraceSpec(path=str(path)).resolve()
        assert caught.value.field == "trace.path"
        assert str(path) in str(caught.value)

    @settings(max_examples=60, deadline=None)
    @given(
        suffix=st.sampled_from([".din", ".lackey", ".txt", ".npz", ".bin"]),
        data=st.one_of(
            st.binary(max_size=200),
            st.lists(
                st.sampled_from(
                    ["0 10", "2 ff", "1 zz", "# uops: 3", "# kind: x", "I  40,4",
                     " M 44,8", " L", "ff", "0x1f", "-1", "\xff", "", "7 10"]
                ),
                max_size=8,
            ).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogateescape")),
        ),
    )
    def test_fuzzed_files_give_a_trace_or_spec_error(
        self, tmp_path_factory, suffix, data
    ):
        from repro.trace import Trace

        path = tmp_path_factory.mktemp("fuzz") / f"t{suffix}"
        path.write_bytes(data)
        try:
            trace = TraceSpec(path=str(path)).resolve()
        except SpecError as error:
            assert error.field == "trace.path"
        else:
            assert isinstance(trace, Trace)


class TestExecutionShardSize:
    def test_round_trip(self):
        spec = ExecutionSpec(shard_size=4096)
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec

    def test_default_omitted_from_dict(self):
        assert "shard_size" not in ExecutionSpec().to_dict()

    def test_non_positive_rejected(self):
        with pytest.raises(SpecError, match="shard_size"):
            ExecutionSpec(shard_size=0)

    def test_never_enters_spec_digest(self):
        base = ExperimentSpec(trace=TraceSpec("mibench", "fft"))
        sharded = ExperimentSpec(
            trace=TraceSpec("mibench", "fft"),
            execution=ExecutionSpec(shard_size=512),
        )
        assert base.digest == sharded.digest


class TestExecutionResilience:
    def test_round_trip(self):
        spec = ExecutionSpec(retries=3, task_timeout=30.0, on_error="skip")
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_omitted_from_dict(self):
        payload = ExecutionSpec().to_dict()
        assert "retries" not in payload
        assert "task_timeout" not in payload
        assert "on_error" not in payload

    def test_negative_retries_rejected(self):
        with pytest.raises(SpecError, match="retries"):
            ExecutionSpec(retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(SpecError, match="task_timeout"):
            ExecutionSpec(task_timeout=0)
        with pytest.raises(SpecError, match="task_timeout"):
            ExecutionSpec(task_timeout=True)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecError, match="on_error"):
            ExecutionSpec(on_error="ignore")

    def test_never_enters_spec_digest(self):
        base = ExperimentSpec(trace=TraceSpec("mibench", "fft"))
        resilient = ExperimentSpec(
            trace=TraceSpec("mibench", "fft"),
            execution=ExecutionSpec(retries=3, task_timeout=10.0, on_error="skip"),
        )
        assert base.digest == resilient.digest
