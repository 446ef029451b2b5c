"""Every shipped scenario run through the CLI entry point, twice.

The subcommand is the file-name prefix (``area_``, ``check_``, ``length_``,
``variation_``).  Each scenario must exit with its expected code, write the
same CSV bytes on both runs, and report PASS on every row, except the
deliberate negative example ``check_homogeneity_energy``, which exits 1.
"""
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from grassvar import cli, scenarios
from grassvar.errors import ScenarioError
from grassvar.forms import QuadratureSpec
from grassvar.scenarios import SCENARIO_SCHEMA, build_quadrature, load_scenario, run_scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
EXPECTED_FAIL = {"check_homogeneity_energy"}


def _run(path, out):
    code = cli.main([path.stem.split("_")[0], "--scenario", str(path), "--csv", str(out), "--quiet"])
    return code, out.read_bytes()


def test_scenarios_are_shipped():
    assert {p.stem.split("_")[0] for p in SCENARIOS} == {"area", "check", "length", "variation"}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_through_cli(path, tmp_path):
    code, first = _run(path, tmp_path / "first.csv")
    code_again, second = _run(path, tmp_path / "second.csv")
    assert code == code_again == (1 if path.stem in EXPECTED_FAIL else 0)
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == cli.CSV_HEADER
    statuses = [line.split(",")[5] for line in lines[1:]]
    assert statuses
    if path.stem in EXPECTED_FAIL:
        assert "FAIL" in statuses
    else:
        assert set(statuses) == {"PASS"}


def test_scenario_schema_is_valid():
    jsonschema.validators.validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


def test_schema_violation_names_the_field(tmp_path):
    bad = json.loads((SCENARIO_DIR / "area_sphere_zone.json").read_text())
    bad["geometry"]["box"][1] = [0.0, "wide"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ScenarioError) as info:
        load_scenario(str(path))
    assert info.value.location == f"{path}#geometry/box/1/1"


def test_malformed_form_override_raises_at_form():
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    scenario["checks"] = [{"name": "stokes", "tolerance": 1e-10, "form": {"degree": 1, "dim": 2}}]
    with pytest.raises(ScenarioError) as info:
        run_scenario("check", scenario, 42)
    assert info.value.location == "form"
    assert "coefficients" in str(info.value)


def test_cli_import_does_not_load_scipy():
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, grassvar.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_quadrature_defaults_come_from_the_spec(tmp_path, monkeypatch):
    built = []

    def recorded(*args):
        built.append(build_quadrature(*args))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_quadrature", recorded)
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    del scenario["quadrature"]
    path = tmp_path / "no_quadrature.json"
    path.write_text(json.dumps(scenario))
    for extra in ([], ["--cells", "3"]):
        assert cli.main(["length", "--scenario", str(path), "--quiet", *extra]) == 0
    assert built == [QuadratureSpec(), QuadratureSpec(cells_per_axis=3)]
    blocked = {"version": "1", "quadrature": {"gauss_order": 5, "cells_per_axis": 9}}
    overrides = {"gauss_order": None, "cells_per_axis": 4}
    assert build_quadrature(blocked, overrides) == QuadratureSpec(5, 4)
