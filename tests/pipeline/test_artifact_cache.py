"""Tests for the content-addressed artifact store."""

import sys
import threading

import numpy as np

from repro.pipeline.artifact_cache import (
    CACHE_DIR_ENV,
    ArtifactCache,
    cache_events,
    default_cache_dir,
    replayed,
    stable_key,
)
from repro.profiling.conflict_profile import ConflictProfile


class TestStableKey:
    def test_deterministic_and_order_insensitive(self):
        a = stable_key("profile", {"trace": "abc", "n": 16})
        b = stable_key("profile", {"n": 16, "trace": "abc"})
        assert a == b
        assert len(a) == 64

    def test_sensitive_to_kind_and_params(self):
        base = stable_key("profile", {"trace": "abc", "n": 16})
        assert base != stable_key("stats", {"trace": "abc", "n": 16})
        assert base != stable_key("profile", {"trace": "abc", "n": 15})
        assert base != stable_key("profile", {"trace": "abd", "n": 16})


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"


class TestCacheEvents:
    def test_scope_counts_only_its_own_events(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_json("stats", "a", {"v": 1})
        with cache_events() as outer:
            cache.load_json("stats", "a")
            with cache_events() as inner:
                cache.load_json("stats", "b")
                cache.load_memo("trace-memo", "a")  # memos are uncounted
        cache.load_json("stats", "a")
        assert inner == {"stats": {"misses": 1}}
        assert outer == {"stats": {"hits": 1, "misses": 1}}
        assert cache.stats()["stats"] == {"hits": 2, "misses": 1, "stores": 1}

    def test_other_threads_do_not_reach_the_scope(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_json("stats", "a", {"v": 1})
        with cache_events() as events:
            worker = threading.Thread(target=cache.store_json, args=("stats", "b", {}))
            worker.start()
            worker.join()
            cache.load_json("stats", "a")
        assert events == {"stats": {"hits": 1}}

    def test_replayed_needs_a_hit_and_no_miss_or_store(self):
        assert replayed({"optimization": {"hits": 1}, "profile": {"hits": 2}})
        assert not replayed({})
        assert not replayed({"optimization": {"hits": 1}, "stats": {"misses": 1}})
        assert not replayed({"optimization": {"hits": 1}, "stats": {"stores": 1}})


class TestJsonArtifacts:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("stats", {"x": 1})
        assert cache.load_json("stats", key) is None
        cache.store_json("stats", key, {"misses": 3, "accesses": 10})
        assert cache.load_json("stats", key) == {"misses": 3, "accesses": 10}
        assert cache.counters["stats"] == {"hits": 1, "misses": 1, "stores": 1}
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_shared_directory_across_instances(self, tmp_path):
        key = stable_key("stats", {"x": 2})
        ArtifactCache(tmp_path).store_json("stats", key, {"v": 1})
        assert ArtifactCache(tmp_path).load_json("stats", key) == {"v": 1}

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("stats", {"x": 3})
        cache.store_json("stats", key, {"v": 1})
        cache.path_for("stats", key, ".json").write_text("{not json")
        assert cache.load_json("stats", key) is None

    def test_no_partial_files_left_behind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("stats", {"x": 4})
        cache.store_json("stats", key, {"v": 1})
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and p.name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestProfileArtifacts:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        counts = np.zeros(16, dtype=np.int64)
        counts[5] = 4
        profile = ConflictProfile(
            4, counts, compulsory=1, capacity=2, accesses=9, beyond_window=3
        )
        key = stable_key("profile", {"trace": "t"})
        assert cache.load_profile(key) is None
        cache.store_profile(key, profile)
        loaded = cache.load_profile(key)
        assert loaded.digest == profile.digest
        assert cache.counters["profile"] == {"hits": 1, "misses": 1, "stores": 1}


class TestSelfHealing:
    """Checksum-verified loads, quarantine, and fault-injected corruption."""

    def _store_arrays(self, cache, key):
        cache.store_arrays("arrays", key, {"a": np.arange(8, dtype=np.int64)})
        return cache.path_for("arrays", key, ".npz")

    def test_checksum_sidecar_written_on_store(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = self._store_arrays(cache, stable_key("arrays", {"x": 1}))
        sidecar = path.with_name(path.name + ".sha256")
        assert sidecar.exists()
        assert len(sidecar.read_text().strip()) == 64

    def test_truncated_entry_quarantined_and_healed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("arrays", {"x": 2})
        path = self._store_arrays(cache, key)
        with open(path, "r+b") as fh:  # torn write
            fh.truncate(path.stat().st_size // 2)
        assert cache.load_arrays("arrays", key) is None  # miss, not a crash
        assert not path.exists()
        assert any(cache.quarantine_dir.iterdir())
        assert cache.counters["arrays"]["quarantined"] == 1
        # recompute + store heals; the replay then hits cleanly
        self._store_arrays(cache, key)
        loaded = cache.load_arrays("arrays", key)
        assert list(loaded["a"]) == list(range(8))

    def test_bad_zipfile_with_valid_checksum_is_a_miss(self, tmp_path):
        # Content that checksums fine but is not a zip exercises the
        # BadZipFile branch rather than the checksum gate.
        cache = ArtifactCache(tmp_path)
        key = stable_key("arrays", {"x": 3})
        path = self._store_arrays(cache, key)
        path.write_bytes(b"definitely not a zip archive")
        import hashlib

        sidecar = path.with_name(path.name + ".sha256")
        sidecar.write_text(hashlib.sha256(path.read_bytes()).hexdigest())
        assert cache.load_arrays("arrays", key) is None
        assert not path.exists()  # quarantined by the parse failure

    def test_legacy_entry_without_sidecar_still_loads(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("arrays", {"x": 4})
        path = self._store_arrays(cache, key)
        path.with_name(path.name + ".sha256").unlink()
        assert cache.load_arrays("arrays", key) is not None

    def test_corrupt_profile_quarantined(self, tmp_path):
        from repro.profiling.conflict_profile import ConflictProfile

        cache = ArtifactCache(tmp_path)
        key = stable_key("profile", {"t": "x"})
        counts = np.zeros(8, dtype=np.int64)
        cache.store_profile(key, ConflictProfile(3, counts, accesses=4))
        path = cache.path_for("profile", key, ".npz")
        with open(path, "r+b") as fh:
            fh.truncate(4)
        assert cache.load_profile(key) is None
        assert cache.counters["profile"]["quarantined"] == 1

    def test_corrupt_json_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("stats", {"x": 5})
        cache.store_json("stats", key, {"v": 1})
        path = cache.path_for("stats", key, ".json")
        with open(path, "r+b") as fh:
            fh.truncate(3)
        assert cache.load_json("stats", key) is None
        assert cache.counters["stats"]["quarantined"] == 1

    def test_injected_load_error_is_miss_without_quarantine(self, tmp_path):
        from repro.pipeline.faults import attempt_scope, use_faults

        cache = ArtifactCache(tmp_path)
        key = stable_key("arrays", {"x": 6})
        path = self._store_arrays(cache, key)
        with use_faults("cache.load:error:p=1:count=1"):
            assert cache.load_arrays("arrays", key) is None  # injected miss
            assert path.exists()  # healthy entry untouched
            with attempt_scope(1):  # the retry: count=1 only hits attempt 0
                assert cache.load_arrays("arrays", key) is not None
        assert "quarantined" not in cache.counters["arrays"]

    def test_injected_truncation_heals_end_to_end(self, tmp_path):
        from repro.pipeline.faults import attempt_scope, use_faults

        cache = ArtifactCache(tmp_path)
        key = stable_key("arrays", {"x": 7})
        self._store_arrays(cache, key)
        with use_faults("cache.load:truncate:p=1:count=1"):
            assert cache.load_arrays("arrays", key) is None  # corrupted on read
            assert cache.counters["arrays"]["quarantined"] == 1
            with attempt_scope(1):
                self._store_arrays(cache, key)  # recompute
                assert cache.load_arrays("arrays", key) is not None


class TestMaterializeErrors:
    def test_io_error_is_a_counted_miss_for_every_kind(self, tmp_path, monkeypatch):
        """An I/O error while an entry is read from storage is a miss
        for JSON and npz artifacts alike."""
        cache = ArtifactCache(tmp_path)
        json_key = stable_key("stats", {"x": 8})
        profile_key = stable_key("profile", {"x": 8})
        arrays_key = stable_key("arrays", {"x": 8})
        cache.store_json("stats", json_key, {"v": 1})
        cache.store_profile(profile_key, ConflictProfile(3, np.zeros(8, np.int64), accesses=4))
        cache.store_arrays("arrays", arrays_key, {"a": np.arange(8)})

        def unreadable(*args):
            raise OSError("storage read failed")

        monkeypatch.setattr(cache.storage, "read", unreadable)
        assert cache.load_json("stats", json_key) is None
        assert cache.load_profile(profile_key) is None
        assert cache.load_arrays("arrays", arrays_key) is None
        assert {kind: counts["misses"] for kind, counts in cache.stats().items()} == {
            "stats": 1, "profile": 1, "arrays": 1,
        }


class TestCounterThreadSafety:
    def test_concurrent_bumps_lose_no_count(self, tmp_path):
        """``repro serve`` job threads share one cache's counters."""
        cache = ArtifactCache(tmp_path)
        threads, bumps = 8, 10_000
        # Switch threads as often as possible, so an unlocked
        # read-add-write would interleave.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = threading.Barrier(threads)

            def bump():
                start.wait()
                for _ in range(bumps):
                    cache._bump("stats", "hits")

            workers = [threading.Thread(target=bump) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(previous)
        assert cache.stats()["stats"]["hits"] == threads * bumps
        assert cache.hits == threads * bumps
