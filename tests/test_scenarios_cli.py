"""Every shipped scenario run through the CLI entry point, twice.

The subcommand is the file-name prefix (``area_``, ``check_``, ``length_``,
``variation_``).  Each scenario must exit with its expected code, write the
same CSV bytes on both runs, and report PASS on every row, except the
deliberate negative example ``check_homogeneity_energy``, which exits 1.

Both the CSV and the ``--dump-integrand`` output must also match, byte for
byte, the files ``tests/golden/<scenario>.csv`` and
``tests/golden/<scenario>.dump.csv``, so a refactor that changes any value
fails here.  After an intended value change, regenerate them with
``grassvar <subcommand> --scenario scenarios/<scenario>.json --csv
tests/golden/<scenario>.csv --dump-integrand tests/golden/<scenario>.dump.csv``
and state the change.
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
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
EXPECTED_FAIL = {"check_homogeneity_energy"}


def _run(path, out, dump=None):
    extra = [] if dump is None else ["--dump-integrand", str(dump)]
    code = cli.main(
        [path.stem.split("_")[0], "--scenario", str(path), "--csv", str(out), "--quiet", *extra]
    )
    return code, out.read_bytes()


def test_scenarios_are_shipped():
    assert {p.stem.split("_")[0] for p in SCENARIOS} == {"area", "check", "length", "variation"}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_through_cli(path, tmp_path):
    code, first = _run(path, tmp_path / "first.csv", tmp_path / "dump.csv")
    code_again, second = _run(path, tmp_path / "second.csv")
    assert code == code_again == (1 if path.stem in EXPECTED_FAIL else 0)
    assert first == second
    assert first == (GOLDEN_DIR / f"{path.stem}.csv").read_bytes()
    assert (tmp_path / "dump.csv").read_bytes() == (
        GOLDEN_DIR / f"{path.stem}.dump.csv"
    ).read_bytes()
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


@pytest.mark.parametrize("module", ["scipy", "sympy"])
def test_cli_import_does_not_load(module):
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, grassvar.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


PAYLOAD = "__import__('pathlib').Path({path!r}).write_text('x') + y1"


@pytest.mark.parametrize(
    "key, value",
    [
        ("a,b", "y1"),
        ("1,2", [1]),
        ("1,2", "y1 +"),
        ("1,2", "y1^2"),
        ("1,2", PAYLOAD),
        ("1,2", "atan(y1)"),
        ("1,2", "Abs(y1)"),
        ("1,2", "E*y1"),
        ("1,2", "factorial(3)"),
        ("1,2", "-" * 100000 + "y1"),
    ],
    ids=["key", "list", "syntax", "caret", "payload", "atan", "Abs", "E", "factorial", "deep"],
)
def test_malformed_form_block_exits_2_and_runs_nothing(key, value, tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    scenario["form"]["coefficients"] = {
        key: PAYLOAD.format(path=str(tmp_path / "pwned")) if value is PAYLOAD else value
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    assert cli.main(["check", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 2
    assert "form" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize(
    "extra, block",
    [(["--cells", "0"], {}), (["--gauss-order", "0"], {}), ([], {"adaptive": True, "target": 0})],
    ids=["cells", "gauss-order", "target"],
)
def test_bad_quadrature_exits_2(extra, block, tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["quadrature"].update(block)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["length", "--scenario", str(path), "--quiet", *extra]) == 2
    assert "[quadrature]" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [0, 0.0, -1e-4, float("nan"), float("inf")])
def test_bad_variation_epsilon_exits_2(eps, tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "variation_line.json").read_text())
    scenario["variation"]["epsilon"] = eps
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    assert cli.main(["variation", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 2
    assert "variation/epsilon]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad", [{"gauss_order": 0}, {"cells_per_axis": 0}, {"max_refinements": 0}, {"target": 0.0},
            {"target": -1e-9}, {"target": float("nan")}],
)
def test_quadrature_spec_rejects_bad_settings(bad):
    with pytest.raises(ValueError):
        QuadratureSpec(adaptive=True, **bad)


def test_dual_route_with_reparam_shares_no_node():
    # coarse enough that two node sets integrate the Randers helix differently
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    scenario["quadrature"] = {"gauss_order": 2, "cells_per_axis": 2}
    scenario["checks"] = [
        {"name": "dual_route", "tolerance": 1e-10},
        {"name": "reparam_invariance", "tolerance": 1e-8},
    ]
    dual, reparam = (row.value for row in run_scenario("check", scenario, 42).rows)
    assert dual > 1e-2
    # the Hilbert side on zeta o rho is the length of zeta o rho (Euler identity)
    assert dual == pytest.approx(reparam, rel=1e-9)


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
