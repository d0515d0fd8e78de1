"""Tests for the Dinero and Lackey trace readers, through load_trace."""

import pytest

from repro.trace import load_trace

_DINERO = """\
# comment
0 1000
1 1004
2 400000
0 1008
"""

_LACKEY = """\
==12345== Lackey, an example tool
I  0400a7e0,4
 L 1ffefffd80,8
 S 04222028,4
I  0400a7e4,3
 M 04222028,4
garbage line
"""


class TestDinero:
    def test_data_selection(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text(_DINERO)
        trace = load_trace(path, kind="data")
        assert trace.addresses.tolist() == [0x1000, 0x1004, 0x1008]
        assert trace.uops == 4  # all references count as work

    def test_instruction_selection(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text(_DINERO)
        trace = load_trace(path, kind="instruction")
        assert trace.addresses.tolist() == [0x400000]

    def test_unified(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text(_DINERO)
        assert len(load_trace(path, kind="unified")) == 4

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.din"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            load_trace(path)
        path.write_text("7 1000\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_bad_kinds(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text(_DINERO)
        with pytest.raises(ValueError):
            load_trace(path, kind="writes")


class TestLackey:
    def test_data_selection(self, tmp_path):
        path = tmp_path / "t.log"
        path.write_text(_LACKEY)
        trace = load_trace(path, "lackey", kind="data")
        # L, S, then M twice (load + store).
        assert trace.addresses.tolist() == [
            0x1FFEFFFD80, 0x04222028, 0x04222028, 0x04222028
        ]

    def test_instruction_selection(self, tmp_path):
        path = tmp_path / "t.log"
        path.write_text(_LACKEY)
        trace = load_trace(path, "lackey", kind="instruction")
        assert trace.addresses.tolist() == [0x0400A7E0, 0x0400A7E4]

    def test_noise_ignored(self, tmp_path):
        path = tmp_path / "t.log"
        path.write_text("==1== banner\nrandom\n")
        assert len(load_trace(path, "lackey", kind="unified")) == 0

    def test_pipeline_integration(self, tmp_path):
        """A lackey trace drives the optimizer end to end."""
        from repro import CacheGeometry
        from repro.core.optimizer import optimize_for_trace

        lines = []
        for i in range(200):
            lines.append(f" L {0x1000:x},4\n")
            lines.append(f" S {0x1000 + 1024:x},4\n")
        path = tmp_path / "pp.log"
        path.write_text("".join(lines))
        trace = load_trace(path, "lackey", kind="data")
        result = optimize_for_trace(
            trace, CacheGeometry.direct_mapped(1024), family="2-in"
        )
        assert result.removed_percent > 90
