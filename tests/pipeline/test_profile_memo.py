"""The profile-digest memo: a stored profile is keyed without parsing it.

Every stored whole-trace profile gets an uncounted, checksummed memo of
its digest and header fields.  A profile hit is then a
:class:`DeferredProfile` whose counts are parsed only when a stage
needs them.  The memo changes what a hit reads, never what it counts:
replays, reports and cache events are the same with or without it, and
a missing or torn ``.npz`` behind a memo is a miss or a quarantine, as
it is without one.
"""

import json
from contextlib import closing

import numpy as np
import pytest

from repro.__main__ import main
from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, Session, TraceSpec
from repro.pipeline.artifact_cache import (
    PROFILE_MEMO,
    ArtifactCache,
    DeferredProfile,
    cache_events,
)
from repro.pipeline.artifact_cache import profile_key as _profile_key
from repro.pipeline.context import PipelineContext
from repro.profiling.conflict_profile import ConflictProfile

SPEC = ExperimentSpec(
    trace=TraceSpec("powerstone", "qurt", scale="tiny"),
    geometry=GeometrySpec(cache_bytes=1024),
    search=SearchSpec(family="2-in"),
)

WARM_EVENTS = {"profile": {"hits": 1}, "optimization": {"hits": 1}}


@pytest.fixture(params=["local", "sqlite"])
def storage(request):
    return request.param


def run_cold(root, storage):
    """(spec file, cache dir, cold report) of one run on ``storage``."""
    root.mkdir(exist_ok=True)
    spec_file = SPEC.save(root / "spec.toml")
    cache_dir = root / "cache"
    with Session(cache_dir=cache_dir, storage=storage) as session:
        report = session.optimize(SPEC).to_json()
    return spec_file, cache_dir, report


@pytest.fixture
def cold(tmp_path, storage):
    return run_cold(tmp_path, storage)


def profile_key(cache_dir) -> str:
    context = PipelineContext(cache_dir)
    trace = context.trace(SPEC.trace)
    base = {"trace": trace.digest, "block_size": 4, "n": SPEC.search.n}
    key = _profile_key("profile", base, SPEC.geometry.resolve().num_blocks)
    context.close()
    return key


def replay(spec_file, cache_dir, capsys, *flags):
    with cache_events() as events:
        code = main(["run", str(spec_file), "--cache-dir", str(cache_dir), "--json", *flags])
    return code, capsys.readouterr().out, events


def damage(cache_dir, how: str) -> None:
    key = profile_key(cache_dir)
    with closing(ArtifactCache(cache_dir)) as cache:
        if how == "memo":
            cache.storage.quarantine(PROFILE_MEMO, key, ".json")
        elif how == "deleted":
            cache.storage.quarantine("profile", key, ".npz")
        else:
            cache.storage.corrupt("profile", key, ".npz")


def memo_record(cache_dir, key: str) -> dict | None:
    with closing(ArtifactCache(cache_dir)) as cache:
        return cache.load_memo(PROFILE_MEMO, key)


class TestReplay:
    def test_warm_replay_defers_the_counts(self, cold):
        _, cache_dir, report = cold
        with Session(cache_dir=cache_dir) as session:
            with cache_events() as events:
                result = session.optimize(SPEC)
        assert events == WARM_EVENTS
        assert isinstance(result.profile, DeferredProfile)
        assert "_profile" not in vars(result.profile)
        assert result.to_json() == report

    def test_memoless_cache_replays_identically(self, cold, capsys):
        spec_file, cache_dir, _ = cold
        with_memo = replay(spec_file, cache_dir, capsys, "--expect-cached")
        damage(cache_dir, "memo")
        key = profile_key(cache_dir)
        assert memo_record(cache_dir, key) is None
        without_memo = replay(spec_file, cache_dir, capsys, "--expect-cached")
        assert with_memo == without_memo
        assert with_memo[0] == 0 and with_memo[2] == WARM_EVENTS
        # The fallback parsed the profile and wrote its memo back.
        assert memo_record(cache_dir, key) is not None


class TestDamage:
    @pytest.mark.parametrize("how", ["deleted", "truncated"])
    def test_memo_never_masks_a_damaged_profile(self, tmp_path, storage, how, capsys):
        """With or without the memo, the damaged profile is a miss (and a
        quarantine when torn), then a recompute and a store."""
        outcomes = []
        for memo in (True, False):
            spec_file, cache_dir, cold = run_cold(tmp_path / f"memo-{memo}", storage)
            if not memo:
                damage(cache_dir, "memo")
            damage(cache_dir, how)
            code, out, events = replay(spec_file, cache_dir, capsys)
            assert code == 0 and events["profile"]["misses"] == 1
            assert events["profile"]["stores"] == 1
            assert ("quarantined" in events["profile"]) == (how == "truncated")
            # The CLI echoes its --cache-dir into the spec.
            assert dict(json.loads(out), spec=None) == dict(cold, spec=None)
            outcomes.append((timeless(cold), events))
        assert outcomes[0] == outcomes[1]

    def test_forged_memo_digest_serves_no_counts(self, cold):
        _, cache_dir, _ = cold
        key = profile_key(cache_dir)
        with closing(ArtifactCache(cache_dir)) as cache:
            record = cache.load_memo(PROFILE_MEMO, key)
            cache.store_memo(PROFILE_MEMO, key, dict(record, digest="f" * 64))
            deferred = cache.load_profile(key)
        assert deferred.digest == "f" * 64
        with pytest.raises(ValueError, match="memo records"):
            deferred.counts  # noqa: B018


class TestDeferredProfile:
    def test_forced_counts_are_the_stored_profile(self, cold):
        _, cache_dir, _ = cold
        key = profile_key(cache_dir)
        with closing(ArtifactCache(cache_dir)) as cache:
            deferred = cache.load_profile(key)
            assert isinstance(deferred, DeferredProfile)
            damage(cache_dir, "memo")
            loaded = cache.load_profile(key)  # parsed now, as without memos
        assert type(loaded) is ConflictProfile
        np.testing.assert_array_equal(deferred.counts, loaded.counts)
        for field in ("n", "compulsory", "capacity", "accesses", "beyond_window"):
            assert getattr(deferred, field) == getattr(loaded, field)
        assert deferred.digest == loaded.digest == deferred.resolve().digest
        assert deferred.total_weight == loaded.total_weight
        assert deferred.top_vectors(4) == loaded.top_vectors(4)

    def test_new_family_searches_the_deferred_profile(self, cold):
        """A family never searched on a cached profile forces its counts;
        the result is the one a cache-less run computes."""
        _, cache_dir, _ = cold
        spec = ExperimentSpec(
            trace=SPEC.trace, geometry=SPEC.geometry, search=SearchSpec(family="4-in")
        )
        with Session(cache_dir=cache_dir) as session:
            with cache_events() as events:
                cached = session.optimize(spec)
        assert events["profile"] == {"hits": 1}
        assert events["optimization"] == {"misses": 1, "stores": 1}
        assert isinstance(cached.profile, DeferredProfile)
        assert "_profile" in vars(cached.profile)
        fresh = Session().optimize(spec)
        assert cached.profile_digest == fresh.profile.digest
        np.testing.assert_array_equal(cached.profile.counts, fresh.profile.counts)
        assert timeless(cached.to_json()) == timeless(fresh.to_json())


def timeless(report: dict) -> dict:
    """``report`` with the search's wall-clock ``seconds`` zeroed."""
    return dict(report, search=dict(report["search"], seconds=0.0))
