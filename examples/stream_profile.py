#!/usr/bin/env python3
"""Profile an out-of-core trace: stream, memory-map, shard, resume.

Shows the streaming trace pipeline as a downstream user would drive it
on a trace too big to hold in memory:

1. stream a synthetic multi-million-access trace straight to a raw
   ``.bin`` file with :class:`~repro.trace.BinTraceWriter` — the
   writer only ever sees one chunk at a time (swap in
   ``repro.trace.convert_to_bin`` for dinero/lackey/text dumps);
2. reopen it memory-mapped with :meth:`~repro.trace.Trace.open_mmap`
   — no load, the file *is* the backing store;
3. profile it with the sharded out-of-core driver: the trace is cut
   into shards, each profiled independently (in parallel when
   ``workers > 1``) and merged into a conflict profile that is
   bit-identical to the single-pass kernel — verified below on an
   in-memory cross-check;
4. re-profile through the same artifact cache: every shard hits the
   cache, so the warm replay recomputes nothing.

Run:  python examples/stream_profile.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import CacheGeometry
from repro.pipeline import PipelineContext
from repro.profiling import profile_blocks, run_sharded_profile
from repro.trace import BinTraceWriter, Trace

ACCESSES = 2_000_000
CHUNK = 200_000
SHARD_SIZE = 250_000
BLOCK_SIZE = 32
WINDOW = 12


def stream_synthetic_trace(path: Path) -> Trace:
    """Write a mixed hot-loop + streaming trace chunk by chunk."""
    rng = np.random.default_rng(2006)
    shift = np.uint64(BLOCK_SIZE.bit_length() - 1)
    with BinTraceWriter(path, name="streamed", kind="data") as writer:
        written = 0
        while written < ACCESSES:
            size = min(CHUNK, ACCESSES - written)
            hot = rng.integers(0, 2048, size=size // 2, dtype=np.uint64)
            sweep = (written + np.arange(size - size // 2, dtype=np.uint64)) % 65536
            blocks = np.concatenate([hot, sweep])
            rng.shuffle(blocks)
            writer.append(blocks << shift)
            written += size
    return writer.close(uops=ACCESSES)


def main() -> None:
    geometry = CacheGeometry(8 * 1024, block_size=BLOCK_SIZE)
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        bin_path = Path(tmp) / "trace.bin"

        trace = stream_synthetic_trace(bin_path)
        size_mb = bin_path.stat().st_size / 1e6
        print(f"streamed {len(trace):,} accesses to {bin_path.name} "
              f"({size_mb:.0f} MB), digest {trace.digest[:12]}...")

        # Reopen memory-mapped: identical digest, no load.
        mapped = Trace.open_mmap(bin_path)
        assert mapped.digest == trace.digest

        context = PipelineContext(Path(tmp) / "cache")
        t0 = time.perf_counter()
        cold = run_sharded_profile(
            mapped, geometry, WINDOW, shard_size=SHARD_SIZE, workers=1,
            context=context,
        )
        cold_s = time.perf_counter() - t0
        print(f"cold sharded profile: {len(cold.plan)} shard(s) x "
              f"{SHARD_SIZE:,}, {cold.recomputed_shards} computed "
              f"in {cold_s:.2f}s")

        # The merged profile is bit-identical to the single pass.
        single = profile_blocks(
            mapped.block_addresses(BLOCK_SIZE), geometry.num_sets, WINDOW
        )
        assert (cold.profile.counts == single.counts).all()
        assert cold.profile.compulsory == single.compulsory
        print(f"bit-identical to the in-memory single pass "
              f"({single.capacity:,} capacity misses, "
              f"{single.total_weight:,} conflict weight)")

        # Warm replay: every shard loads from the artifact cache.
        t0 = time.perf_counter()
        warm = run_sharded_profile(
            mapped, geometry, WINDOW, shard_size=SHARD_SIZE, workers=1,
            context=context,
        )
        warm_s = time.perf_counter() - t0
        assert warm.recomputed_shards == 0
        print(f"warm replay: 0 of {len(warm.plan)} shard(s) recomputed "
              f"in {warm_s:.2f}s ({cold_s / max(warm_s, 1e-9):.0f}x faster)")


if __name__ == "__main__":
    main()
