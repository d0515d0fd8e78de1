"""Tests for the Trace type."""

import numpy as np
import pytest

from repro.trace.trace import Trace


class TestConstruction:
    def test_coerces_dtype(self):
        tr = Trace([1, 2, 3])
        assert tr.addresses.dtype == np.uint64
        assert len(tr) == 3

    def test_default_uops(self):
        assert Trace([1, 2, 3]).uops == 3

    def test_explicit_uops(self):
        assert Trace([1, 2], uops=10).uops == 10

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Trace([1], kind="mystery")

    def test_rejects_negative_uops(self):
        with pytest.raises(ValueError):
            Trace([1], uops=-5)


class TestBlocks:
    def test_block_addresses(self):
        tr = Trace([0, 4, 8, 9])
        assert tr.block_addresses(4).tolist() == [0, 1, 2, 2]

    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Trace([0]).block_addresses(3)

    def test_unique_blocks_and_footprint(self):
        tr = Trace([0, 1, 2, 3, 4])
        assert tr.unique_blocks(4) == 2
        assert tr.footprint_bytes(4) == 8


class TestDigest:
    def test_stable_across_instances(self):
        a = Trace(np.array([1, 2, 3], dtype=np.uint64), uops=10)
        b = Trace(np.array([1, 2, 3], dtype=np.uint64), uops=10)
        assert a.digest == b.digest
        assert len(a.digest) == 64  # sha256 hex

    def test_memoized(self):
        trace = Trace(np.array([1, 2, 3], dtype=np.uint64))
        assert trace.digest is trace.digest

    def test_addresses_are_immutable(self):
        """The memoized digest keys on-disk artifacts, so the digested
        array must reject writes instead of silently going stale."""
        trace = Trace(np.array([1, 2, 3], dtype=np.uint64))
        _ = trace.digest
        with pytest.raises(ValueError):
            trace.addresses[0] = 999

    def test_freeze_does_not_leak_to_caller_array(self):
        """Passing an already-contiguous uint64 buffer must not freeze
        the caller's copy of it."""
        buffer = np.array([1, 2, 3], dtype=np.uint64)
        trace = Trace(buffer)
        _ = trace.digest
        buffer[0] = 999  # caller's buffer stays writable...
        assert int(trace.addresses[0]) == 1  # ...and the trace is unaffected

    def test_sensitive_to_content_uops_and_kind(self):
        base = Trace(np.array([1, 2, 3], dtype=np.uint64), uops=10)
        assert base.digest != Trace(
            np.array([1, 2, 4], dtype=np.uint64), uops=10
        ).digest
        assert base.digest != Trace(
            np.array([1, 2, 3], dtype=np.uint64), uops=11
        ).digest
        assert base.digest != Trace(
            np.array([1, 2, 3], dtype=np.uint64), uops=10, kind="instruction"
        ).digest

    def test_ignores_provenance(self):
        """Name and metadata are identity, not content: equal streams
        share every content-addressed artifact."""
        a = Trace(np.array([5, 6], dtype=np.uint64), name="a", metadata={"x": 1})
        b = Trace(np.array([5, 6], dtype=np.uint64), name="b", metadata={"y": 2})
        assert a.digest == b.digest


class TestManipulation:
    def test_concat(self):
        a = Trace([1, 2], uops=5, name="a")
        b = Trace([3], uops=7, name="b")
        joined = a.concat(b)
        assert joined.addresses.tolist() == [1, 2, 3]
        assert joined.uops == 12
        assert joined.name == "a+b"

    def test_concat_mixed_kind_is_unified(self):
        a = Trace([1], kind="data")
        b = Trace([2], kind="instruction")
        assert a.concat(b).kind == "unified"

    def test_repr(self):
        assert "refs=2" in repr(Trace([1, 2], name="x"))
