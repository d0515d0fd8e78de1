"""Tests for the trace builder and code-image model."""

import pytest

from repro.workloads.cpu import CodeImage, TraceBuilder, WorkloadRun
from repro.workloads.layout import MemoryLayout


class TestTraceBuilder:
    def test_loads_and_stores_counted(self):
        builder = TraceBuilder("t")
        builder.load(0x100)
        builder.store(0x104)
        builder.alu(3)
        trace = builder.data_trace()
        assert trace.addresses.tolist() == [0x100, 0x104]
        assert trace.uops == 5
        assert trace.kind == "data"

    def test_instruction_trace(self):
        builder = TraceBuilder("t")
        builder.fetch_block(0x1000, 3)
        trace = builder.instruction_trace()
        assert trace.addresses.tolist() == [0x1000, 0x1004, 0x1008]
        assert trace.kind == "instruction"

    def test_empty_instruction_trace(self):
        assert len(TraceBuilder("t").instruction_trace()) == 0

    def test_empty_builder(self):
        run = WorkloadRun(TraceBuilder("e"))
        assert len(run.data) == len(run.instructions) == 0
        assert run.uops == run.data.uops == run.instructions.uops == 0
        assert "ifetch=0 refs" in repr(run)

    def test_run_below_four_times_the_words_before_it(self):
        # The second run's base (0x10) is below 4 x the 2000 words fetched
        # before it, so its offset wraps in uint64 and must wrap back.
        builder = TraceBuilder("t")
        builder.fetch_block(0x1000, 2000)
        builder.fetch_block(0x10, 2)
        addresses = builder.instruction_trace().addresses
        assert addresses[:2000].tolist() == list(range(0x1000, 0x1000 + 8000, 4))
        assert addresses[2000:].tolist() == [0x10, 0x14]


class TestCodeImage:
    def test_blocks_allocated_in_text(self):
        layout = MemoryLayout()
        code = CodeImage(layout)
        code.block("f", 4)
        base = code.address_of("f")
        assert base >= MemoryLayout.SEGMENT_BASES["text"]
        assert code.instructions_of("f") == 4

    def test_padding_separates_blocks(self):
        layout = MemoryLayout()
        code = CodeImage(layout)
        code.block("a", 4)
        code.block("b", 4, padding=1000)
        gap = code.address_of("b") - (code.address_of("a") + 16)
        assert gap >= 1000

    def test_run_emits_fetches_and_uops(self):
        layout = MemoryLayout()
        code = CodeImage(layout)
        code.block("loop", 5)
        builder = TraceBuilder("t")
        code.run(builder, "loop", times=2)
        trace = builder.instruction_trace()
        assert len(trace) == 10
        assert builder.uops == 10

    def test_run_zero_times(self):
        layout = MemoryLayout()
        code = CodeImage(layout)
        code.block("loop", 5)
        code.block("tail", 2)
        builder = TraceBuilder("t")
        code.run(builder, "loop", times=0)
        assert builder.uops == 0
        assert len(builder.instruction_trace()) == 0
        code.run(builder, "tail")
        code.run(builder, "loop", times=0)
        tail = code.address_of("tail")
        assert builder.instruction_trace().addresses.tolist() == [tail, tail + 4]
        assert builder.uops == 2

    def test_zero_instructions_rejected(self):
        with pytest.raises(ValueError):
            CodeImage(MemoryLayout()).block("empty", 0)


class TestWorkloadRun:
    def test_trace_selector(self):
        builder = TraceBuilder("w")
        builder.load(4)
        builder.fetch_block(0x1000, 1)
        run = WorkloadRun(builder, {"param": 1})
        assert run.trace("data").kind == "data"
        assert run.trace("instruction").kind == "instruction"
        with pytest.raises(ValueError):
            run.trace("unified")
        assert run.parameters == {"param": 1}
        assert "refs" in repr(run)

    def test_instructions_built_on_first_access(self):
        builder = TraceBuilder("w")
        builder.load(4)
        builder.fetch_block(0x1000, 3, times=2)
        run = WorkloadRun(builder)
        assert "ifetch=6 refs" in repr(run)
        run.name = "renamed"
        assert "instructions" not in vars(run)
        trace = run.instructions
        assert trace is run.trace("instruction")
        assert trace.name == "renamed"
        assert trace.addresses.tolist() == [0x1000, 0x1004, 0x1008] * 2
        assert trace.uops == 6
