"""Backend equivalence: every backend vs the scalar oracle.

The compute-backend contract is bit-identity: ``lru_depth_at_least``
and ``skewed_misses`` must return the same miss vectors on every
*available* backend — the ``python`` backend is the per-access oracle,
``numpy`` the vectorized default, ``numba`` the optional JIT (these
tests parametrize over whatever is importable, so the Numba CI matrix
entry runs them three-way while the default environment runs two-way).

Coverage crosses associativities {1, 2, 4, 8}, bank counts {2, 4},
key widths n ∈ {8, 16, 20, 33, 64} and the empty/single-access edge
traces, via both Hypothesis-generated and fixed-seed random streams.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import (
    BACKEND_ENV_VAR,
    active_backend,
    backend_status,
    get_backend,
    use_backend,
)
from repro.cache.engine.core import lru_miss_vector, skewed_miss_vector

BACKENDS = [row["name"] for row in backend_status() if row["available"]]
ORACLE = get_backend("python")

#: Key widths the kernels must handle; 64 exercises full-width uint64
#: keys (no headroom for sentinel tricks).
WIDTHS = (8, 16, 20, 33, 64)


def _keys_for_width(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    if n >= 64:
        return rng.integers(0, 1 << 63, size=count, dtype=np.uint64) * 2 + (
            rng.integers(0, 2, size=count, dtype=np.uint64)
        )
    return rng.integers(0, 1 << n, size=count, dtype=np.uint64)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return get_backend(request.param)


class TestLRUBackends:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        ways=st.sampled_from([1, 2, 4, 8]),
        num_sets=st.integers(min_value=1, max_value=8),
    )
    def test_matches_oracle_on_random_traces(self, backend, data, ways, num_sets):
        count = data.draw(st.integers(min_value=0, max_value=120))
        pool = data.draw(st.integers(min_value=1, max_value=24))
        keys = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=pool - 1),
                    min_size=count,
                    max_size=count,
                )
            ),
            dtype=np.uint64,
        )
        set_map = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_sets - 1),
                    min_size=pool,
                    max_size=pool,
                )
            ),
            dtype=np.uint16,
        )
        set_ids = set_map[keys.astype(np.intp)]
        got = lru_miss_vector(set_ids, keys, ways, backend=backend)
        want = lru_miss_vector(set_ids, keys, ways, backend=ORACLE)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_matches_oracle_across_key_widths(self, backend, n, ways):
        rng = np.random.default_rng(n * 100 + ways)
        count, num_sets = 500, 4
        keys = _keys_for_width(rng, count, n)
        # The set must be a function of the key (an index function is a
        # function of the block address): hash the key down to a set.
        set_ids = (keys % np.uint64(num_sets)).astype(np.uint16)
        got = lru_miss_vector(set_ids, keys, ways, backend=backend)
        want = lru_miss_vector(set_ids, keys, ways, backend=ORACLE)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("count", [0, 1])
    def test_edge_traces(self, backend, count):
        keys = np.arange(count, dtype=np.uint64)
        set_ids = np.zeros(count, dtype=np.uint16)
        for ways in (1, 2, 8):
            misses = lru_miss_vector(set_ids, keys, ways, backend=backend)
            assert misses.shape == (count,)
            assert misses.all()  # every first touch misses
        # fully-associative spelling (set_ids=None)
        misses = lru_miss_vector(None, keys, 2, backend=backend)
        assert misses.shape == (count,) and misses.all()


class TestSkewedBackends:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        num_banks=st.sampled_from([2, 4]),
        num_sets=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_matches_oracle_on_random_traces(
        self, backend, data, num_banks, num_sets, seed
    ):
        count = data.draw(st.integers(min_value=0, max_value=120))
        pool = data.draw(st.integers(min_value=1, max_value=24))
        keys = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=pool - 1),
                    min_size=count,
                    max_size=count,
                )
            ),
            dtype=np.uint64,
        )
        bank_maps = [
            np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=num_sets - 1),
                        min_size=pool,
                        max_size=pool,
                    )
                ),
                dtype=np.uint16,
            )
            for _ in range(num_banks)
        ]
        streams = [m[keys.astype(np.intp)] for m in bank_maps]
        got = skewed_miss_vector(
            streams, keys, seed=seed, num_sets=num_sets, backend=backend
        )
        want = skewed_miss_vector(
            streams, keys, seed=seed, num_sets=num_sets, backend=ORACLE
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("num_banks", [2, 4])
    def test_matches_oracle_across_key_widths(self, backend, n, num_banks):
        rng = np.random.default_rng(n * 10 + num_banks)
        count, num_sets = 700, 8
        keys = _keys_for_width(rng, count, n)
        streams = [
            ((keys >> np.uint64(b)) % np.uint64(num_sets)).astype(np.uint16)
            for b in range(num_banks)
        ]
        got = skewed_miss_vector(
            streams, keys, num_sets=num_sets, backend=backend
        )
        want = skewed_miss_vector(
            streams, keys, num_sets=num_sets, backend=ORACLE
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("count", [0, 1])
    def test_edge_traces(self, backend, count):
        keys = np.arange(count, dtype=np.uint64)
        streams = [np.zeros(count, dtype=np.uint16)] * 2
        misses = skewed_miss_vector(streams, keys, num_sets=1, backend=backend)
        assert misses.shape == (count,)
        assert misses.all()


class TestSelection:
    def test_status_lists_every_registered_backend(self):
        names = {row["name"] for row in backend_status()}
        assert {"python", "numpy", "numba"} <= names
        assert sum(row["active"] for row in backend_status()) == 1

    def test_use_backend_overrides(self):
        with use_backend("python") as pinned:
            assert pinned.name == "python"
            assert active_backend().name == "python"

    def test_override_is_per_thread(self):
        """A pin in one thread is invisible to another, and overlapping
        exits restore each thread's own stack."""
        default = active_backend().name
        pinned = "python" if default != "python" else "numpy"
        a_inside, b_inside, a_left = (threading.Event() for _ in range(3))
        seen: dict[str, str] = {}

        def first():
            with use_backend(pinned):
                a_inside.set()
                assert b_inside.wait(10)
                seen["a_inside"] = active_backend().name
            seen["a_after"] = active_backend().name
            a_left.set()

        def second():
            assert a_inside.wait(10)
            seen["b_before"] = active_backend().name
            with use_backend(default):
                b_inside.set()
                assert a_left.wait(10)
                seen["b_inside"] = active_backend().name
            seen["b_after"] = active_backend().name

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
            assert not thread.is_alive()
        assert seen == {
            "a_inside": pinned,
            "b_before": default,
            "a_after": default,
            "b_inside": default,
            "b_after": default,
        }
        assert active_backend().name == default

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert active_backend().name == "python"

    def test_unavailable_choice_raises(self):
        unavailable = [row for row in backend_status() if not row["available"]]
        if not unavailable:
            pytest.skip("every backend is available here")
        with pytest.raises(ValueError, match="not available"):
            get_backend(unavailable[0]["name"])

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_backend("fortran")
