"""Pluggable cache storage: backend parity, resolution, concurrency."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import (
    ArtifactCache,
    LocalDirStorage,
    SqliteStorage,
    resolve_storage,
    use_faults,
)
from repro.pipeline.storage import SQLITE_INDEX_NAME, STORAGE_ENV

KEY = "ab" * 32
OTHER = "cd" * 32

BACKENDS = ("local", "sqlite")


@pytest.fixture(params=BACKENDS)
def cache(request, tmp_path):
    cache = ArtifactCache(tmp_path, storage=request.param)
    yield cache
    cache.close()


class TestBackendParity:
    """Both backends satisfy the same cache contract."""

    def test_json_roundtrip(self, cache):
        assert cache.load_json("stats", KEY) is None
        cache.store_json("stats", KEY, {"misses": 7})
        assert cache.load_json("stats", KEY) == {"misses": 7}
        assert cache.counters["stats"] == {"hits": 1, "misses": 1, "stores": 1}

    def test_arrays_roundtrip(self, cache):
        arrays = {"a": np.arange(9), "b": np.eye(3)}
        cache.store_arrays("arrays", KEY, arrays)
        loaded = cache.load_arrays("arrays", KEY)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], arrays["a"])

    def test_overwrite_same_key(self, cache):
        cache.store_json("stats", KEY, {"v": 1})
        cache.store_json("stats", KEY, {"v": 2})
        assert cache.load_json("stats", KEY) == {"v": 2}

    def test_kinds_are_disjoint_namespaces(self, cache):
        cache.store_json("stats", KEY, {"v": 1})
        assert cache.load_json("optimization", KEY) is None

    def test_injected_corruption_quarantined_and_healed(self, cache):
        cache.store_arrays("arrays", KEY, {"a": np.arange(64)})
        with use_faults("cache.load:truncate:p=1:count=1"):
            assert cache.load_arrays("arrays", KEY) is None
        assert cache.counters["arrays"]["quarantined"] == 1
        assert any(cache.quarantine_dir.iterdir())
        # The torn entry left the live store: clean miss, then heal.
        assert cache.load_arrays("arrays", KEY) is None
        cache.store_arrays("arrays", KEY, {"a": np.arange(64)})
        assert np.array_equal(cache.load_arrays("arrays", KEY)["a"], np.arange(64))

    def test_injected_load_error_is_miss_without_quarantine(self, cache):
        cache.store_json("stats", KEY, {"v": 1})
        with use_faults("cache.load:error:p=1:count=1"):
            assert cache.load_json("stats", KEY) is None
        assert "quarantined" not in cache.counters["stats"]
        assert cache.load_json("stats", KEY) == {"v": 1}

    def test_close_is_idempotent(self, cache):
        cache.store_json("stats", KEY, {"v": 1})
        cache.close()
        cache.close()


class TestResolution:
    def test_default_is_local(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.storage_name == "local"
        assert isinstance(cache.storage, LocalDirStorage)

    def test_sqlite_root_autodetected(self, tmp_path):
        first = ArtifactCache(tmp_path, storage="sqlite")
        first.store_json("stats", KEY, {"v": 1})
        first.close()
        reopened = ArtifactCache(tmp_path)
        assert reopened.storage_name == "sqlite"
        assert reopened.load_json("stats", KEY) == {"v": 1}
        reopened.close()

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV, "sqlite")
        cache = ArtifactCache(tmp_path)
        assert cache.storage_name == "sqlite"
        cache.close()

    def test_explicit_instance(self, tmp_path):
        backend = SqliteStorage(tmp_path)
        cache = ArtifactCache(tmp_path, storage=backend)
        assert cache.storage is backend
        cache.close()

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache storage"):
            resolve_storage(tmp_path, "s3")

    def test_sqlite_has_no_artifact_paths(self, tmp_path):
        cache = ArtifactCache(tmp_path, storage="sqlite")
        with pytest.raises(ValueError, match="no per-artifact paths"):
            cache.path_for("stats", KEY, ".json")
        cache.close()

    def test_local_layout_unchanged(self, tmp_path):
        """The default layout is byte-compatible with pre-seam caches."""
        cache = ArtifactCache(tmp_path, storage="local")
        cache.store_json("stats", KEY, {"v": 1})
        path = tmp_path / "stats" / KEY[:2] / f"{KEY}.json"
        assert path.exists()
        assert path.with_name(path.name + ".sha256").exists()


_WRITER = """
import sys
from repro.pipeline import ArtifactCache
root, key, value = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ArtifactCache(root, storage="sqlite")
for i in range(20):
    cache.store_json("stats", key, {"value": value, "round": i})
    loaded = cache.load_json("stats", key)
    assert loaded is not None and loaded["value"] in (1, 2), loaded
cache.close()
print("ok")
"""


class TestSqliteConcurrency:
    def test_two_processes_share_one_key(self, tmp_path):
        """Two replicas hammering the same key never observe a torn
        artifact: every load is either writer's complete document."""
        ArtifactCache(tmp_path, storage="sqlite").close()  # create the index
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), KEY, str(value)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for value in (1, 2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        survivor = ArtifactCache(tmp_path)
        assert survivor.storage_name == "sqlite"
        final = survivor.load_json("stats", KEY)
        assert final["value"] in (1, 2) and final["round"] == 19
        survivor.close()

    def test_one_index_file_not_a_tree(self, tmp_path):
        cache = ArtifactCache(tmp_path, storage="sqlite")
        for i in range(8):
            cache.store_json("stats", f"{i:02d}" * 32, {"i": i})
        cache.close()
        live = [
            p
            for p in tmp_path.iterdir()
            if not p.name.startswith(SQLITE_INDEX_NAME)
        ]
        assert live == []  # no per-kind directory tree


class TestPipelineOverSqlite:
    def test_campaign_workers_join_sqlite_cache(self, tmp_path):
        """Worker processes auto-detect the sqlite root (no flag) and a
        warm replay through them recomputes nothing."""
        from repro.api import expand_grid
        from repro.pipeline import run_campaign

        ArtifactCache(tmp_path, storage="sqlite").close()  # create the index
        specs = expand_grid(
            {
                "suite": "powerstone",
                "benchmarks": ["qurt", "ucbqsort"],
                "cache_bytes": [1024],
                "families": ["2-in"],
                "scale": "tiny",
            }
        )
        cold = run_campaign(specs, cache_dir=tmp_path, workers=2)
        warm = run_campaign(specs, cache_dir=tmp_path, workers=2)
        assert cold.cache_totals()["stores"] > 0
        assert warm.fully_cached
        assert [(r.spec, r.optimized_misses) for r in warm.rows] == [
            (r.spec, r.optimized_misses) for r in cold.rows
        ]

    def test_warm_optimize_replays_with_zero_recomputes(self, tmp_path):
        from repro.api import Session

        spec = {
            "trace": {"suite": "powerstone", "benchmark": "qurt", "scale": "tiny"},
            "geometry": {"cache_bytes": 1024},
            "search": {"family": "2-in"},
        }
        with Session(cache_dir=tmp_path, storage="sqlite") as cold:
            first = cold.optimize(spec)
        with Session(cache_dir=tmp_path, storage="sqlite") as warm:
            second = warm.optimize(spec)
            stats = warm.cache_stats()
        assert first.to_json() == second.to_json()
        assert all(
            per_kind["misses"] == 0 and per_kind["stores"] == 0
            for per_kind in stats.values()
        )
        assert sum(per_kind["hits"] for per_kind in stats.values()) >= 1
