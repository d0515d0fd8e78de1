"""Tests for the streaming trace layer: .bin files, mmap, converters."""

import json

import numpy as np
import pytest

from repro.trace import (
    BinTraceWriter,
    Trace,
    TRACE_FORMATS,
    convert_to_bin,
    infer_trace_format,
    TraceFileError,
    iter_dinero,
    iter_lackey,
    iter_trace_text,
    load_trace,
    save_trace,
    save_trace_bin,
    save_trace_text,
)


def _sample():
    return Trace(
        np.array([0, 4, 0xDEADBEEF, 1 << 60], dtype=np.uint64),
        uops=42,
        name="sample",
        kind="instruction",
        metadata={"origin": "unit-test"},
    )


class TestBinRoundTrip:
    def test_writer_round_trip(self, tmp_path):
        path = tmp_path / "trace.bin"
        original = _sample()
        with BinTraceWriter(
            path, name=original.name, kind=original.kind,
            metadata=original.metadata,
        ) as writer:
            writer.append(original.addresses[:2])
            writer.append(original.addresses[2:])
        loaded = writer.close(uops=original.uops)
        assert (loaded.addresses == original.addresses).all()
        assert loaded.uops == original.uops
        assert loaded.name == original.name
        assert loaded.kind == original.kind
        assert loaded.metadata == original.metadata
        assert loaded.mmap_path == str(path)

    def test_save_trace_bin(self, tmp_path):
        path = tmp_path / "trace.bin"
        original = _sample()
        save_trace_bin(original, path)
        loaded = Trace.open_mmap(path)
        assert (loaded.addresses == original.addresses).all()
        assert loaded.uops == original.uops
        assert loaded.kind == original.kind

    def test_sidecar_is_json(self, tmp_path):
        path = tmp_path / "trace.bin"
        save_trace_bin(_sample(), path)
        meta = json.loads((tmp_path / "trace.bin.meta.json").read_text())
        assert meta["name"] == "sample"
        assert meta["kind"] == "instruction"

    def test_open_without_sidecar(self, tmp_path):
        path = tmp_path / "bare.bin"
        np.arange(5, dtype="<u8").tofile(path)
        loaded = Trace.open_mmap(path)
        assert (loaded.addresses == np.arange(5)).all()
        assert loaded.uops == len(loaded)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.touch()
        loaded = Trace.open_mmap(path)
        assert len(loaded) == 0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(ValueError, match="multiple of 8"):
            Trace.open_mmap(path)

    def test_digest_matches_in_memory(self, tmp_path):
        path = tmp_path / "trace.bin"
        original = _sample()
        save_trace_bin(original, path)
        assert Trace.open_mmap(path).digest == original.digest

    def test_digest_streams_in_chunks(self, tmp_path, monkeypatch):
        import repro.trace.trace as trace_mod

        monkeypatch.setattr(trace_mod, "_DIGEST_CHUNK_BYTES", 16)
        rng = np.random.default_rng(3)
        original = Trace(rng.integers(0, 1 << 40, size=100, dtype=np.uint64))
        path = tmp_path / "trace.bin"
        save_trace_bin(original, path)
        assert original.digest == Trace.open_mmap(path).digest

    def test_writer_rejects_after_close(self, tmp_path):
        writer = BinTraceWriter(tmp_path / "t.bin")
        writer.append(np.array([1], dtype=np.uint64))
        writer.close()
        with pytest.raises(ValueError):
            writer.append(np.array([2], dtype=np.uint64))


class TestFormatInference:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("a.bin", "bin"),
            ("a.npz", "npz"),
            ("a.txt", "text"),
            ("a.text", "text"),
            ("a.din", "dinero"),
            ("a.dinero", "dinero"),
            ("a.lackey", "lackey"),
        ],
    )
    def test_suffixes(self, name, expected):
        assert infer_trace_format(name) == expected
        assert expected in TRACE_FORMATS

    def test_unknown_suffix(self):
        assert infer_trace_format("a.weird") is None


class TestStreamingIterators:
    """Batch boundaries never change what a reader yields."""

    def _dinero_file(self, tmp_path, lines):
        path = tmp_path / "t.din"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_iter_dinero_matches_loader(self, tmp_path):
        lines = [f"{i % 3} {i * 64:x}" for i in range(100)]
        path = self._dinero_file(tmp_path, lines)
        whole = load_trace(path, kind="unified")
        header: dict = {}
        batches = list(iter_dinero(path, "unified", batch_lines=7, header=header))
        assert len(batches) == 15
        assert (np.concatenate(batches) == whole.addresses).all()
        assert header == {"kind": "unified", "uops": whole.uops}

    def test_iter_lackey_matches_loader(self, tmp_path):
        lines = ["I  4000,4", " L 5000,8", " S 6000,4", " M 7000,8"]
        path = tmp_path / "t.lackey"
        path.write_text("\n".join(lines) + "\n")
        whole = load_trace(path, kind="data")
        header: dict = {}
        batches = list(iter_lackey(path, batch_lines=2, header=header))
        assert (np.concatenate(batches) == whole.addresses).all()
        assert header["uops"] == whole.uops == 5

    def test_iter_trace_text_matches_loader(self, tmp_path):
        original = _sample()
        path = tmp_path / "t.txt"
        save_trace_text(original, path)
        header: dict = {}
        batches = list(iter_trace_text(path, batch_lines=2, header=header))
        assert (np.concatenate(batches) == original.addresses).all()
        assert (load_trace(path).addresses == original.addresses).all()
        assert header == {
            "name": original.name, "kind": original.kind, "uops": original.uops
        }

    def test_iter_dinero_bad_line_has_location(self, tmp_path):
        path = self._dinero_file(tmp_path, ["0 100", "nonsense"])
        with pytest.raises(TraceFileError, match=r"t\.din:2") as caught:
            for _ in iter_dinero(path):
                pass
        assert caught.value.path == str(path) and caught.value.line == 2

    @pytest.mark.parametrize(
        "suffix,body,line",
        [
            (".din", "0 10\n# note\n\n1 zz\n", 4),
            (".din", "0 10\n3 10\n", 2),
            (".din", "0 10000000000000000\n", 1),
            (".txt", "# name: t\n10\nzz\n", 3),
            (".txt", "10\n10000000000000000\n", 2),
            (".txt", "# kind: cheese\n", 1),
            (".txt", "1\n# uops: -3\n", 2),
        ],
    )
    def test_bad_line_is_located_across_batches(self, tmp_path, suffix, body, line):
        path = tmp_path / f"t{suffix}"
        path.write_text(body)
        with pytest.raises(TraceFileError) as caught:
            load_trace(path)
        assert caught.value.line == line
        reader = iter_dinero if suffix == ".din" else iter_trace_text
        with pytest.raises(TraceFileError) as caught:
            list(reader(path, batch_lines=1))
        assert caught.value.line == line

    def test_lackey_lookalike_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.lackey"
        path.write_bytes(
            b" Loading\xff\n I think\n L 10000000000000000,4\nI  -4,4\n L 40,4\n"
        )
        trace = load_trace(path, kind="data")
        assert trace.addresses.tolist() == [0x40] and trace.uops == 1

    def test_non_utf8_bytes_fail_their_line(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_bytes(b"0 10\n0 1\xff\n")
        with pytest.raises(TraceFileError) as caught:
            load_trace(path)
        assert caught.value.line == 2


class TestConvertToBin:
    def test_from_npz(self, tmp_path):
        original = _sample()
        src = tmp_path / "t.npz"
        save_trace(original, src)
        dst = tmp_path / "t.bin"
        converted = convert_to_bin(src, dst)
        assert converted.digest == original.digest
        assert converted.name == original.name

    def test_from_text(self, tmp_path):
        original = _sample()
        src = tmp_path / "t.txt"
        save_trace_text(original, src)
        converted = convert_to_bin(src, tmp_path / "t.bin")
        assert converted.digest == original.digest
        assert converted.kind == original.kind
        assert converted.uops == original.uops

    @pytest.mark.parametrize("kinds", ["data", "instruction", "unified"])
    def test_from_dinero(self, tmp_path, kinds):
        src = tmp_path / "t.din"
        src.write_text("".join(f"{i % 3} {i * 64:x}\n" for i in range(50)))
        in_memory = load_trace(src, kind=kinds)
        converted = convert_to_bin(
            src, tmp_path / f"{kinds}.bin", kinds=kinds
        )
        assert converted.digest == in_memory.digest

    @pytest.mark.parametrize("kinds", ["data", "instruction", "unified"])
    def test_from_lackey(self, tmp_path, kinds):
        src = tmp_path / "t.lackey"
        src.write_text("I  4000,4\n L 5000,8\n S 6000,4\n M 7000,8\n")
        in_memory = load_trace(src, kind=kinds)
        converted = convert_to_bin(
            src, tmp_path / f"{kinds}.bin", kinds=kinds
        )
        assert converted.digest == in_memory.digest

    @pytest.mark.parametrize("suffix", [".npz", ".txt", ".din", ".lackey"])
    def test_matches_load_trace(self, tmp_path, suffix):
        """One reader per format: converting and loading agree on every
        field, whatever the batch size."""
        src = tmp_path / f"t{suffix}"
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 1 << 48, size=40, dtype=np.uint64)
        if suffix == ".npz":
            save_trace(Trace(addresses, uops=99, kind="instruction"), src)
        elif suffix == ".txt":
            save_trace_text(Trace(addresses, uops=99, name="x"), src)
        elif suffix == ".din":
            src.write_text("".join(f"{i % 3} {a:x}\n" for i, a in enumerate(addresses)))
        else:
            src.write_text("".join(f"I  {a:x},4\n M {a:x},8\n" for a in addresses))
        loaded = load_trace(src)
        converted = convert_to_bin(src, tmp_path / "t.bin", batch_lines=3)
        assert (converted.addresses == loaded.addresses).all()
        for field in ("uops", "name", "kind", "metadata", "digest"):
            assert getattr(converted, field) == getattr(loaded, field)

    def test_bin_source_rejected(self, tmp_path):
        src = tmp_path / "t.bin"
        save_trace_bin(_sample(), src)
        with pytest.raises(ValueError, match="already"):
            convert_to_bin(src, tmp_path / "u.bin")

    def test_explicit_format_overrides_suffix(self, tmp_path):
        original = _sample()
        src = tmp_path / "t.dat"
        save_trace_text(original, src)
        converted = convert_to_bin(src, tmp_path / "t.bin", format="text")
        assert converted.digest == original.digest


class TestAtomicConversion:
    """A failed write leaves no truncated trace behind."""

    def _bad_dinero(self, tmp_path):
        src = tmp_path / "partial.din"
        src.write_text("0 40\n" * 2500 + "0 zz\n")
        return src

    def test_failed_convert_leaves_nothing(self, tmp_path):
        dst = tmp_path / "partial.bin"
        with pytest.raises(TraceFileError, match="partial.din:2501"):
            convert_to_bin(self._bad_dinero(tmp_path), dst, batch_lines=1000)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["partial.din"]

    def test_failed_convert_keeps_the_old_trace(self, tmp_path):
        dst = tmp_path / "partial.bin"
        save_trace_bin(_sample(), dst)
        sidecar = tmp_path / "partial.bin.meta.json"
        before = dst.read_bytes(), sidecar.read_bytes()
        with pytest.raises(TraceFileError):
            convert_to_bin(self._bad_dinero(tmp_path), dst, batch_lines=1000)
        assert (dst.read_bytes(), sidecar.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "partial.bin", "partial.bin.meta.json", "partial.din"
        ]

    def test_writer_discards_on_error(self, tmp_path):
        dst = tmp_path / "t.bin"
        with pytest.raises(RuntimeError):
            with BinTraceWriter(dst) as writer:
                writer.append(np.arange(10))
                raise RuntimeError("producer failed")
        assert list(tmp_path.iterdir()) == []
