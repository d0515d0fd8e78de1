"""A :class:`ConflictProfile` keeps only its support, and equals the dense
profile it replaced (``tests/oracles/dense_profile.py``) in everything
it answers."""

import dataclasses
import io
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, Session, TraceSpec
from repro.profiling import conflict_profile
from repro.profiling.conflict_profile import ConflictProfile, _PairBins
from tests.oracles.dense_profile import DenseConflictProfile


@st.composite
def histograms(draw, n=None):
    """(n, dense counts): empty, sparse, half-full or fully dense, with
    weights from a narrow range (many ties) or a wide one."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=20))
    density = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0]))
    high = draw(st.sampled_from([3, 1 << 20, 1 << 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, high, size=1 << n, dtype=np.int64)
    counts[rng.random(1 << n) >= density] = 0
    counts[0] = 0
    return n, counts


def headers():
    return st.fixed_dictionaries(
        {
            name: st.integers(min_value=0, max_value=1 << 40)
            for name in ("compulsory", "capacity", "accesses", "beyond_window")
        }
    )


def archive(profile) -> bytes:
    buffer = io.BytesIO()
    profile.save(buffer)
    return buffer.getvalue()


def assert_same(profile: ConflictProfile, dense: DenseConflictProfile) -> None:
    counts = profile.counts
    assert counts.dtype == np.int64
    assert np.array_equal(counts, dense.counts)
    assert profile.digest == dense.digest
    assert profile.total_weight == dense.total_weight
    assert profile.num_distinct_vectors == dense.num_distinct_vectors
    for name in ("n", "compulsory", "capacity", "accesses", "beyond_window"):
        assert getattr(profile, name) == getattr(dense, name), name
    vectors, weights = profile.support()
    dense_vectors, dense_weights = dense.support()
    assert vectors.dtype == dense_vectors.dtype == np.uint32
    assert weights.dtype == np.int64
    assert np.array_equal(vectors, dense_vectors)
    assert np.array_equal(weights, dense_weights)


class TestEqualsDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(histograms(), headers())
    def test_every_answer(self, histogram, header):
        n, counts = histogram
        profile = ConflictProfile(n, counts, **header)
        dense = DenseConflictProfile(n, counts, **header)
        assert_same(profile, dense)
        assert repr(profile) == repr(dense).replace("Dense", "", 1)

    @settings(max_examples=40, deadline=None)
    @given(histograms(), headers(), st.data())
    def test_weight_of(self, histogram, header, data):
        n, counts = histogram
        profile = ConflictProfile(n, counts, **header)
        dense = DenseConflictProfile(n, counts, **header)
        vectors = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), max_size=20)
        ) + [0, (1 << n) - 1, *profile.vectors[:5].tolist()]
        for vector in vectors:
            assert profile.weight_of(vector) == dense.weight_of(vector)
        for bad in (-1, 1 << n):
            with pytest.raises(ValueError):
                profile.weight_of(bad)

    @settings(max_examples=40, deadline=None)
    @given(histograms(), st.integers(min_value=0, max_value=1 << 21))
    def test_top_vectors_and_ties(self, histogram, k):
        n, counts = histogram
        profile = ConflictProfile(n, counts)
        dense = DenseConflictProfile(n, counts)
        for size in (0, 1, 7, k):
            assert profile.top_vectors(size) == dense.top_vectors(size)

    @settings(max_examples=40, deadline=None)
    @given(histograms(), headers())
    def test_archives_are_byte_identical_and_cross_load(self, histogram, header):
        n, counts = histogram
        profile = ConflictProfile(n, counts, **header)
        dense = DenseConflictProfile(n, counts, **header)
        written = archive(profile)
        assert written == archive(dense)
        # A .npz written the old dense way loads into the support, and
        # the support's archive loads into the dense oracle.
        assert_same(ConflictProfile.load(io.BytesIO(archive(dense))), dense)
        assert_same(profile, DenseConflictProfile.load(io.BytesIO(written)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20).flatmap(
            lambda n: st.lists(st.tuples(histograms(n), headers()), min_size=1, max_size=4)
        )
    )
    def test_merge(self, addends):
        merged = ConflictProfile.merge(
            ConflictProfile(n, counts, **header) for (n, counts), header in addends
        )
        dense = DenseConflictProfile.merge(
            DenseConflictProfile(n, counts, **header)
            for (n, counts), header in addends
        )
        assert_same(merged, dense)
        if len(addends) == 2:
            (n, a), ha = addends[0]
            (_, b), hb = addends[1]
            chained = ConflictProfile(n, a, **ha).merged_with(ConflictProfile(n, b, **hb))
            assert_same(chained, dense)

    @settings(max_examples=30, deadline=None)
    @given(histograms(), headers(), headers())
    def test_replace_and_pickle(self, histogram, header, other):
        n, counts = histogram
        profile = ConflictProfile(n, counts, **header)
        dense = DenseConflictProfile(n, counts, **header)
        changed = {"compulsory": other["compulsory"], "accesses": other["accesses"]}
        assert_same(profile.replace(**changed), dataclasses.replace(dense, **changed))
        assert_same(pickle.loads(pickle.dumps(profile)), dense)

    def test_empty_and_full_extremes(self):
        for n in (1, 8, 20):
            empty = np.zeros(1 << n, dtype=np.int64)
            full = np.arange(1 << n, dtype=np.int64)
            for counts in (empty, full):
                assert_same(ConflictProfile(n, counts), DenseConflictProfile(n, counts))


class TestFrozen:
    def test_caller_mutation_after_construction_changes_nothing(self):
        counts = np.zeros(1 << 10, dtype=np.int64)
        counts[[3, 17, 900]] = [5, 2, 9]
        profile = ConflictProfile(10, counts, accesses=4)
        before = (profile.counts.copy(), profile.digest)
        fresh = ConflictProfile(10, counts.copy(), accesses=4)
        counts[:] = 7
        counts[0] = 0
        assert np.array_equal(profile.counts, before[0])
        assert profile.digest == before[1] == fresh.digest
        assert profile.weight_of(3) == 5 and profile.total_weight == 16

    def test_counts_and_support_are_read_only(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 11
        profile = ConflictProfile(4, counts)
        dense = profile.counts
        with pytest.raises(ValueError):
            dense[3] = 1
        vectors, weights = profile.support()
        with pytest.raises(ValueError):
            vectors[0] = 1
        with pytest.raises(ValueError):
            weights[0] = 1
        with pytest.raises(AttributeError):
            profile.compulsory = 3

    def test_counts_are_not_kept(self):
        counts = np.zeros(1 << 12, dtype=np.int64)
        counts[5] = 1
        profile = ConflictProfile(12, counts)
        assert profile.counts is not profile.counts
        held = [v for v in vars(profile).values() if isinstance(v, np.ndarray)]
        assert all(array.size < 1 << 12 for array in held)


def _retained_bytes(n: int, support: int) -> int:
    """Traced bytes a profile of ``support`` vectors keeps alive once
    the dense histogram it was built from is gone."""
    counts = np.zeros(1 << n, dtype=np.int64)
    rng = np.random.default_rng(n)
    counts[1 + rng.choice((1 << n) - 1, size=support, replace=False)] = rng.integers(
        1, 1 << 30, size=support
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profile = ConflictProfile(n, counts)
        del counts
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert profile.num_distinct_vectors == support
    return retained


class TestMemory:
    """Deterministic byte counts, not RSS thresholds."""

    @pytest.mark.parametrize("n", [16, 20])
    @pytest.mark.parametrize("support", [0, 1, 1183, 16381])
    def test_profile_retains_its_support_only(self, n, support):
        # 4 bytes per uint32 vector and 8 per int64 weight, plus the
        # object, its attribute dict and two array headers.
        assert _retained_bytes(n, support) <= 16 * support + 4096

    @pytest.mark.parametrize(
        "bins, cells",
        [
            (0, 1 << 15),
            (1 << 10, 1 << 15),
            (1 << 16, 1 << 18),  # serve: one capacity at n = 16, 2 MiB
            (3 << 16, 1 << 19),  # Table 2: three capacities, 4 MiB
            (1 << 20, 1 << 21),
            (3 << 20, 1 << 21),  # capped at 16 MiB
        ],
    )
    def test_pair_buffer_follows_the_sizing_rule(self, bins, cells):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pair_bins = _PairBins(bins)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pair_bins._buf.size == cells
        assert allocated - 8 * (cells + bins + 1) in range(0, 4096)

    def test_pair_buffer_tunables_stay_patchable(self, monkeypatch):
        monkeypatch.setattr(conflict_profile, "_PAIR_BUFFER", 1)
        assert _PairBins(3 << 16)._buf.size == 1
        monkeypatch.setattr(conflict_profile, "_PAIR_BUFFER", 1 << 21)
        monkeypatch.setattr(conflict_profile, "_GATHER_CELLS", 5)
        assert _PairBins(1)._buf.size == 5

    def test_session_memo_holds_no_dense_histogram(self):
        specs = [
            ExperimentSpec(
                trace=TraceSpec("mibench", kernel, scale="tiny"),
                geometry=GeometrySpec(cache_bytes=size),
                search=SearchSpec(family=family),
            )
            for kernel in ("fft", "susan")
            for size in (1024, 4096)
            for family in ("2-in", "4-in")
        ]
        with Session() as session:
            for spec in specs:
                session.optimize(spec)
            memo = session.context()._memo
            profiles = [value for (kind, _), value in memo.items() if kind == "profile"]
            assert len(profiles) == 4
            dense = 1 << specs[0].search.n
            for value in memo.values():
                for array in _arrays(value):
                    assert array.size < dense, (type(value).__name__, array.shape)


def _arrays(value, depth: int = 3):
    """Every NumPy array reachable from ``value`` through attributes and
    containers, ``depth`` levels deep."""
    if isinstance(value, np.ndarray):
        yield value
        return
    if depth == 0:
        return
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple)):
        children = list(value)
    else:
        children = list(getattr(value, "__dict__", {}).values())
    for child in children:
        yield from _arrays(child, depth - 1)
