"""The build/capability descriptor: one source of truth for info + /status."""

import pytest

import repro
from repro.capabilities import SERVE_API_VERSION, build_descriptor
from repro.cli import main
from repro.experiments.config import SCENARIOS
from repro.faults.plan import FAULT_KINDS
from repro.grid import GridConfig
from repro.serve.core import ServeConfig, _resolve_grid_config


class TestDescriptor:
    def test_descriptor_shape(self):
        desc = build_descriptor()
        assert desc["name"] == "repro"
        assert desc["version"] == repro.__version__
        assert desc["serve_api"] == SERVE_API_VERSION
        assert desc["fault_kinds"] == sorted(FAULT_KINDS)
        assert desc["scenarios"] == sorted(SCENARIOS)
        assert set(desc["algorithms"]) == {"qsa", "random", "fixed"}
        # The whole surface: there is one peer-state representation and
        # one lookup substrate, so neither is advertised (or printed by
        # ``repro info``).
        assert sorted(desc) == [
            "algorithms", "fault_kinds", "name", "paper", "scenarios",
            "serve_api", "version",
        ]

    def test_every_advertised_scenario_loads(self):
        for name in build_descriptor()["scenarios"]:
            grid = _resolve_grid_config(ServeConfig(scenario=name, seed=3))
            assert isinstance(grid, GridConfig) and grid.seed == 3

    def test_unknown_scenario_lists_the_loadable_ones(self):
        with pytest.raises(ValueError) as exc:
            _resolve_grid_config(ServeConfig(scenario="serving"))
        assert "unknown serve scenario 'serving'" in str(exc.value)
        assert ", ".join(build_descriptor()["scenarios"]) in str(exc.value)

    def test_descriptor_is_json_able(self):
        import json

        assert json.loads(json.dumps(build_descriptor())) == build_descriptor()

    def test_fresh_dict_per_call(self):
        a = build_descriptor()
        b = build_descriptor()
        assert a == b and a is not b
        a["scenarios"].append("mutated")
        assert build_descriptor() == b


class TestInfoCommand:
    def test_info_renders_the_descriptor(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        desc = build_descriptor()
        assert f"repro {desc['version']}" in out
        assert desc["serve_api"] in out
        assert all(kind in out for kind in desc["fault_kinds"])
        assert all(name in out for name in desc["scenarios"])
        assert "peer state" not in out
        assert "lookup protocols" not in out
