"""Import guards: ``import repro`` and a cached ``repro run`` stay lean.

Package ``__init__`` modules re-export lazily (PEP 562) and the CLI
imports each subcommand's dependencies inside it, so a warm replay
loads neither the campaign executor, the certified search, the miss
classifier, the service, the experiment drivers nor a process pool.
Specs validate against static name tables and a warm replay answers
from its records, so neither imports NumPy either.
"""

import ast
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, TraceSpec

ROOT = Path(__file__).resolve().parent.parent

#: Modules a cached replay never needs.
HEAVY = (
    "repro.search.branch_bound",
    "repro.pipeline.resilience",
    "repro.cache.classify",
    "repro.serve",
    "repro.experiments",
    "repro.hardware",
    "concurrent.futures.process",
)


def run_python(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def heavy_loaded(modules) -> list[str]:
    return sorted(
        name
        for name in modules
        for heavy in HEAVY
        if name == heavy or name.startswith(heavy + ".")
    )


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A spec file and a cache directory holding its every artifact."""
    root = tmp_path_factory.mktemp("warm")
    spec = ExperimentSpec(
        trace=TraceSpec("powerstone", "qurt", scale="tiny"),
        geometry=GeometrySpec(cache_bytes=1024),
        search=SearchSpec(family="2-in"),
    )
    spec_file = spec.save(root / "spec.toml")
    cache = root / "cache"
    cold = run_python("-m", "repro", "run", spec_file, "--cache-dir", cache, "--json")
    assert cold.returncode == 0, cold.stderr
    return spec_file, cache, cold.stdout


def test_import_repro_is_lean():
    probe = run_python(
        "-c", "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
    )
    assert probe.returncode == 0, probe.stderr
    modules = json.loads(probe.stdout)
    assert heavy_loaded(modules) == []
    assert "repro.api.session" not in modules


def test_warm_run_is_lean(warm_cache):
    spec_file, cache, cold = warm_cache
    warm = run_python(
        "-X", "importtime", "-m", "repro", "run", spec_file,
        "--cache-dir", cache, "--expect-cached", "--json",
    )
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold
    modules = [
        line.rsplit("|", 1)[1].strip()
        for line in warm.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.core.optimizer" in modules
    assert heavy_loaded(modules) == []
    assert "numpy" not in modules


def test_warm_run_skips_the_shard_driver(warm_cache):
    """A stored profile is looked up before the shard driver loads."""
    spec_file, cache, _ = warm_cache
    probe = run_python(
        "-c",
        "import json, sys\n"
        "from repro.__main__ import main\n"
        f"assert main(['run', {str(spec_file)!r}, '--cache-dir', {str(cache)!r}, "
        "'--expect-cached', '--json']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))",
    )
    assert probe.returncode == 0, probe.stderr
    modules = json.loads(probe.stdout.splitlines()[-1])
    assert "repro.pipeline.context" in modules
    assert "repro.profiling.sharded" not in modules
    assert "numpy" not in modules


def test_dry_run_loads_no_numpy(warm_cache):
    spec_file, _, _ = warm_cache
    probe = run_python(
        "-c",
        "import json, sys\n"
        "from repro.__main__ import main\n"
        f"assert main(['run', {str(spec_file)!r}, '--dry-run']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))",
    )
    assert probe.returncode == 0, probe.stderr
    assert "numpy" not in json.loads(probe.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["repro.api.spec", "repro.serve.client"])
def test_control_plane_loads_no_numpy(module):
    probe = run_python(
        "-c",
        f"import json, sys, {module}\n"
        "from repro.api import ExperimentSpec\n"
        "spec = ExperimentSpec.from_dict({'trace': {'suite': 'mibench', "
        "'benchmark': 'fft'}, 'search': {'strategy': 'branch-bound:9'}})\n"
        "print(spec.digest)\n"
        "print(json.dumps(sorted(sys.modules)))",
    )
    assert probe.returncode == 0, probe.stderr
    assert "numpy" not in json.loads(probe.stdout.splitlines()[-1])


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", ()):
        assert getattr(module, name) is not None, name
        assert name in dir(module)


#: Test oracles that live under ``tests/oracles/`` and the estimator
#: scorers no package code called; no ``repro`` module may hold them.
RETIRED_NAMES = {
    "LRUStack",
    "profile_blocks_reference",
    "profile_blocks_slotted",
    "hill_climb_scalar",
    "simulate_direct_mapped_scalar",
    "simulate_set_associative_scalar",
    "simulate_fully_associative_scalar",
    "simulate_skewed_scalar",
    "estimate_misses_nullspace",
    "save_trace_text_reference",
    "DenseConflictProfile",
    "cost_of",
    "costs_for_moves",
    "costs_with_column_replaced",
    "_costs_with_column_replaced_loop",
}
RETIRED_MODULES = ("repro.cache.reference", "repro.profiling.lru_stack")


def test_oracles_live_outside_the_package():
    """No ``repro`` module defines or exports an oracle, and none
    imports the test package."""
    for module in RETIRED_MODULES:
        assert importlib.util.find_spec(module) is None, module
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined = node.value  # an __all__ or lazy-export entry
            elif isinstance(node, ast.Import):
                defined = None
                for alias in node.names:
                    assert alias.name.split(".")[0] != "tests", path
            elif isinstance(node, ast.ImportFrom):
                defined = None
                assert (node.module or "").split(".")[0] != "tests", path
            else:
                continue
            assert defined not in RETIRED_NAMES, f"{path}: {defined}"


def test_lazy_attribute_errors_are_attribute_errors():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
    assert not hasattr(repro.pipeline, "no_such_name")


def test_perfbench_tracer_installs_on_the_lazy_layout():
    probe = run_python(
        "-c",
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer\n"
        "import repro.__main__\n"
        "import repro.cache.engine as engine, repro.workloads.registry as registry\n"
        "originals = engine.simulate, registry.get_workload\n"
        "tracer = Tracer(); tracer.install()\n"
        "assert engine.simulate is not originals[0]\n"
        "assert registry.get_workload is not originals[1]\n"
        "tracer.uninstall()\n"
        "assert (engine.simulate, registry.get_workload) == originals\n",
    )
    assert probe.returncode == 0, probe.stderr


def test_traced_warm_replay_generates_no_trace(warm_cache, tmp_path):
    spec_file, cache, cold = warm_cache
    spans = tmp_path / "replay.spans"
    traced = run_python(
        ROOT / "perfbench" / "traced_repro.py", spans, "run", spec_file,
        "--cache-dir", cache, "--expect-cached", "--json",
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == cold
    layers = [span[0] for span in json.loads(spans.read_text())["spans"]]
    assert "cache.load" in layers
    assert "workloads" not in layers
