"""Property tests for null-space equivalence — the paper's Sec. 2
deduplication argument, verified behaviourally."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.engine import simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import XorIndexing
from repro.gf2.hashfn import XorHashFunction
from repro.gf2.spaces import Subspace
from tests.conftest import block_traces, hash_functions


class TestEquivalenceIsBehavioural:
    @settings(max_examples=25, deadline=None)
    @given(hash_functions(n=12, m=5), st.data())
    def test_column_reorder_preserves_null_space(self, fn, data):
        """Permuting index bits relabels sets; the null space (hence the
        partition of blocks into sets) is unchanged."""
        order = list(range(fn.m))
        data.draw(st.randoms()).shuffle(order)
        shuffled = XorHashFunction(fn.n, [fn.columns[i] for i in order])
        assert shuffled.equivalent_to(fn)

    @settings(max_examples=20, deadline=None)
    @given(hash_functions(n=12, m=4), block_traces(max_block=1 << 12))
    def test_equivalent_functions_miss_identically(self, fn, blocks):
        """Same null space => exactly the same misses on any trace
        (the paper's justification for searching null spaces)."""
        if fn.m < 2:
            return
        cols = list(fn.columns)
        cols[1] ^= cols[0]  # column op: same span, different matrix
        other = XorHashFunction(fn.n, cols)
        assert other.equivalent_to(fn)
        geometry = CacheGeometry.direct_mapped((1 << fn.m) * 4)
        a = simulate(blocks, geometry, XorIndexing(fn))
        b = simulate(blocks, geometry, XorIndexing(other))
        assert a.misses == b.misses

    @settings(max_examples=25, deadline=None)
    @given(hash_functions(n=10, m=4))
    def test_same_set_iff_xor_in_null_space_pairwise(self, fn):
        """Eq. 2, exhaustively for a sample of pairs."""
        ns = fn.null_space()
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 1 << fn.n, size=50)
        ys = rng.integers(0, 1 << fn.n, size=50)
        for x, y in zip(xs, ys):
            x, y = int(x), int(y)
            assert (fn.apply(x) == fn.apply(y)) == ((x ^ y) in ns)


class TestNeighborConstruction:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0))
    def test_single_generator_swap_is_neighbor(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = 8, 4
        space = Subspace.random(n, dim, rng)
        # Replace one basis vector by a vector outside the space.
        basis = list(space.basis)
        while True:
            candidate = int(rng.integers(1, 1 << n))
            if candidate not in space:
                break
        replaced = Subspace(basis[1:] + [candidate], n)
        if replaced.dim == dim and replaced != space:
            assert space.is_neighbor_of(replaced)
