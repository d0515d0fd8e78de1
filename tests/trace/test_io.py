"""Round-trip tests for trace persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.formats import iter_trace_text
from repro.trace.io import load_trace, save_trace, save_trace_text
from repro.trace.trace import Trace
from tests.oracles.trace_text import save_trace_text_reference


def _sample():
    return Trace(
        np.array([0, 4, 0xDEADBEEF], dtype=np.uint64),
        uops=42,
        name="sample",
        kind="instruction",
        metadata={"origin": "unit-test"},
    )


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.npz"
        original = _sample()
        save_trace(original, path)
        loaded = load_trace(path)
        assert (loaded.addresses == original.addresses).all()
        assert loaded.uops == original.uops
        assert loaded.name == original.name
        assert loaded.kind == original.kind
        assert loaded.metadata == original.metadata


class TestTextRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt"
        original = _sample()
        save_trace_text(original, path)
        loaded = load_trace(path)
        assert (loaded.addresses == original.addresses).all()
        assert loaded.uops == original.uops
        assert loaded.name == original.name
        assert loaded.kind == original.kind

    def test_text_format_is_hex_lines(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace_text(Trace([255]), path)
        lines = path.read_text().splitlines()
        assert "ff" in lines

    def test_ignores_blank_lines(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# name: x\n\n10\n\n20\n")
        loaded = load_trace(path)
        assert loaded.addresses.tolist() == [16, 32]


class TestVectorizedTextAgainstReference:
    """The vectorized writer vs its loop oracle; the reader vs known
    answers (the addresses and header a test wrote)."""

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=0,
            max_size=80,
        )
    )
    def test_save_matches_reference(self, values, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("textio")
        trace = Trace(np.array(values, dtype=np.uint64), name="prop")
        fast, slow = tmp_path / "fast.txt", tmp_path / "slow.txt"
        save_trace_text(trace, fast)
        save_trace_text_reference(trace, slow)
        assert fast.read_bytes() == slow.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            min_size=0,
            max_size=80,
        ),
        batch_lines=st.integers(min_value=1, max_value=9),
    )
    def test_load_matches_reference(self, values, batch_lines, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("textio")
        path = tmp_path / "t.txt"
        written = Trace(
            np.array(values, dtype=np.uint64), uops=7, name="prop", kind="unified"
        )
        save_trace_text_reference(written, path)
        loaded = load_trace(path)
        assert loaded.addresses.tolist() == values
        assert (loaded.uops, loaded.name, loaded.kind) == (7, "prop", "unified")
        header: dict = {}
        batches = iter_trace_text(path, batch_lines=batch_lines, header=header)
        assert [int(a) for batch in batches for a in batch] == values
        assert header == {"name": "prop", "kind": "unified", "uops": 7}

    def test_uppercase_and_prefixed_hex(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("DEADBEEF\n0xFF\nff\n")
        assert load_trace(path).addresses.tolist() == [0xDEADBEEF, 0xFF, 0xFF]

    def test_leading_zero_literals(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0000000000000000000f\n01\n")
        assert load_trace(path).addresses.tolist() == [15, 1]

    def test_invalid_literal_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("12\nnotahexnumber\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_max_uint64_round_trips(self, tmp_path):
        path = tmp_path / "t.txt"
        trace = Trace(np.array([(1 << 64) - 1, 0], dtype=np.uint64))
        save_trace_text(trace, path)
        assert load_trace(path).addresses.tolist() == [(1 << 64) - 1, 0]
