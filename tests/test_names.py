"""The static name tables match the live registries they mirror.

Specs, the CLI and the HTTP client validate against :mod:`repro.names`
without importing a compute module; these tests keep each table in
step with the code that resolves its names.
"""

import importlib
import pkgutil

import pytest

import repro.backend
import repro.names as names
from repro.backend import backend_names
from repro.search.families import FAMILY_CHOICES, family_for_name
from repro.search.strategies import strategy_for_name
from repro.trace.stream import TRACE_FORMATS
from repro.workloads.registry import SUITES

#: Strategy specs the parser must accept, with the instance each names.
ACCEPTED = [
    "steepest", "Steepest", " descent ", "steepest-descent", "first",
    "first-improvement", "beam", "beam:1", "beam:8", "beam(8)", "beam(8",
    "anneal", "anneal:0", "anneal:10000", "anneal:10000:7", "anneal(50,3)",
    "branch-bound", "branch-bound:1", "branch-bound:100000",
    "branch-bound:50000", "branchbound", "branch-and-bound:9",
    "branchandbound(9)", "portfolio", "portfolio:1", "portfolio:3",
    "portfolio:4", "portfolio(4)",
]

#: Malformed or out-of-range strategy specs.
REJECTED = [
    "", "steep", "beam:", "beam:0", "beam:-1", "beam:x", "beam:4:2",
    "anneal:", "anneal:1:2:3", "anneal:x", "anneal:-5",
    "branch-bound:0", "branch-bound:", "branch-bound:1:2", "bound",
    "portfolio:0", "portfolio:5", "portfolio:", "portfolio:1:1",
    "hill-climb", "random",
]


class TestWorkloads:
    def test_suites_in_registry_order(self):
        assert list(names.WORKLOADS) == list(SUITES)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_kernels_in_table_order(self, suite):
        assert names.WORKLOADS[suite] == tuple(SUITES[suite])


class TestFamilies:
    def test_choices_are_the_search_layers(self):
        assert names.FAMILY_CHOICES == FAMILY_CHOICES

    @pytest.mark.parametrize(
        "label", [*FAMILY_CHOICES, "bit-select", "BitSelect", "3-in", "8-in", "32-in"]
    )
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_canonical_name_is_the_family_name(self, label, n):
        assert names.family_name(label, n) == family_for_name(label, n, 2).name

    @pytest.mark.parametrize("label", ["0-in", "-2-in", "x-in", "perm", "", "in"])
    def test_rejected_labels(self, label):
        with pytest.raises(ValueError):
            names.parse_family(label, 16)


class TestStrategies:
    @pytest.mark.parametrize("spec", ACCEPTED)
    def test_identity_is_the_instances(self, spec):
        strategy = strategy_for_name(spec)
        assert names.strategy_identity(spec) == (strategy.name, strategy.deterministic)

    @pytest.mark.parametrize("spec", REJECTED)
    def test_rejected_everywhere(self, spec):
        with pytest.raises(ValueError):
            names.parse_strategy(spec)
        with pytest.raises(ValueError):
            strategy_for_name(spec)

    def test_defaults_are_the_strategies(self):
        from repro.search.branch_bound import DEFAULT_MAX_NODES
        from repro.search.portfolio import DEFAULT_ZOO
        from repro.search.strategies import Annealing, BeamSearch

        assert DEFAULT_MAX_NODES == names.BRANCH_BOUND_NODES
        assert DEFAULT_ZOO == names.PORTFOLIO_ZOO
        assert BeamSearch().width == names.BEAM_WIDTH
        assert Annealing().iterations == names.ANNEAL_ITERATIONS
        assert Annealing().cooling == names.ANNEAL_COOLING


class TestFormatsAndBackends:
    def test_trace_formats_are_the_streaming_layers(self):
        assert names.TRACE_FORMATS == TRACE_FORMATS

    @pytest.mark.parametrize(
        "path, expected",
        [("t.bin", "bin"), ("t.NPZ", "npz"), ("t.txt", "text"), ("t.din", "dinero"),
         ("t.lackey", "lackey"), ("t.csv", None)],
    )
    def test_infer_trace_format(self, path, expected):
        assert names.infer_trace_format(path) == expected

    def test_every_backend_module_is_registered(self):
        modules = {
            info.name.removesuffix("_backend")
            for info in pkgutil.iter_modules(repro.backend.__path__)
            if info.name.endswith("_backend")
        }
        assert modules == set(backend_names())

    @pytest.mark.parametrize("name", ["numpy", "python", "numba"])
    def test_registered_kernels_exist(self, name):
        module = importlib.import_module(f"repro.backend.{name}_backend")
        assert callable(module.lru_depth_at_least)
        assert callable(module.skewed_misses)
