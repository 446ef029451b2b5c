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
import copy
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import jsonschema
import numpy as np
import pytest

import grassvar
from grassvar import (
    checks, cli, expressions, finsler, functional, grassmann, quadrature, scenarios, variation,
)
from grassvar.errors import InvalidPartitionError, ScenarioError
from grassvar.expressions import MAX_DEPTH
from grassvar.quadrature import MAX_CELLS_PER_AXIS, MAX_COVERS, QuadratureSpec
from grassvar.scenarios import SCENARIO_SCHEMA, build_quadrature, load_scenario, run_scenario

from .oracles import FirstRowRejected, same_bits
from .test_forms import NESTINGS

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
    # the second run in the same process reads what the first left cached
    code, first = _run(path, tmp_path / "first.csv", tmp_path / "dump.csv")
    code_again, second = _run(path, tmp_path / "second.csv", tmp_path / "dump_again.csv")
    assert code == code_again == (1 if path.stem in EXPECTED_FAIL else 0)
    assert first == second
    assert first == (GOLDEN_DIR / f"{path.stem}.csv").read_bytes()
    golden_dump = (GOLDEN_DIR / f"{path.stem}.dump.csv").read_bytes()
    assert (tmp_path / "dump.csv").read_bytes() == golden_dump
    assert (tmp_path / "dump_again.csv").read_bytes() == golden_dump
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


def _fresh_modules(code: str) -> set[str]:
    """The modules loaded after running ``code`` in a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(out.stdout.split())


@pytest.fixture(scope="module")
def cli_modules():
    """The modules loaded by ``import grassvar.cli`` in a fresh interpreter."""
    return _fresh_modules("import grassvar.cli")


@pytest.mark.parametrize(
    "module",
    ["scipy", "sympy", "jsonschema", "attrs", "referencing", "rpds", "hypothesis",
     "numpy.random", "numpy.polynomial", "grassvar.grassmann", "grassvar.expressions",
     "grassvar.forms", "grassvar.checks", "grassvar.variation"],
)
def test_cli_import_does_not_load(module, cli_modules):
    assert "grassvar.cli" in cli_modules
    assert module not in cli_modules


# modules a launch loads only for the rows that use them: sampled checks draw
# from numpy.random, the grassmann_roundtrip check reads ray charts, a form
# coefficient is built by grassvar.expressions, a form by grassvar.forms, the
# check rows are grassvar.checks and the first variation grassvar.variation;
# the Gauss rule needs no numpy.polynomial
ON_DEMAND = {
    "numpy.random", "numpy.polynomial", "grassvar.grassmann", "grassvar.expressions",
    "grassvar.forms", "grassvar.checks", "grassvar.variation",
}
LAUNCH_LOADS = {
    "area_sphere_zone": set(),
    "length_circle": set(),
    # positive controls: the gate sees each module when a row needs it
    "variation_line": {"grassvar.variation"},
    "check_forms_square": {"grassvar.expressions", "grassvar.forms", "grassvar.checks"},
    "check_suite_randers": {"numpy.random", "grassvar.grassmann", "grassvar.checks"},
}


@pytest.mark.parametrize("stem", sorted(LAUNCH_LOADS))
def test_a_launch_loads_only_the_modules_its_rows_use(stem, tmp_path):
    path, out = SCENARIO_DIR / f"{stem}.json", tmp_path / "out.csv"
    argv = [stem.split("_")[0], "--scenario", str(path), "--csv", str(out), "--quiet"]
    loaded = _fresh_modules(f"from grassvar import cli; cli.main({argv!r})")
    assert out.read_bytes() == (GOLDEN_DIR / f"{stem}.csv").read_bytes()
    assert loaded & ON_DEMAND == LAUNCH_LOADS[stem]


def test_every_module_imports_first_in_a_fresh_interpreter():
    # scenarios imports checks and variation on demand and checks imports
    # scenarios, so a cycle hides behind the usual order cli -> scenarios
    package = pathlib.Path(cli.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package.parent),
                                                      os.environ.get("PYTHONPATH", "")]))
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert {"checks", "forms", "quadrature", "scenarios", "variation"} <= set(modules)
    launched = {  # one interpreter each, run side by side
        name: subprocess.Popen([sys.executable, "-c", f"import grassvar.{name}"], env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for name in modules
    }
    failed = {name: proc.communicate()[1][-300:] for name, proc in launched.items()}
    assert {name: err for name, err in failed.items() if launched[name].returncode} == {}


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
        ("1", "y1"),
        ("1,2,3", "y1"),
        ("2,1", "y1"),
        ("1,1", "y1"),
        ("1,3", "y1"),
        ("1,2", 10**400),
        ("1" * 5000, "y1"),
    ],
    ids=["key", "list", "syntax", "caret", "payload", "atan", "Abs", "E", "factorial", "deep",
         "short", "long", "decreasing", "repeated", "out-of-range", "huge-number", "huge-key"],
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


@pytest.mark.parametrize("alias", ["01,02", "1,2\n", "\u0661,\u0662"],
                         ids=["zeros", "newline", "arabic-indic"])
def test_a_key_spelled_other_than_its_index_exits_2(alias, tmp_path, capsys):
    # each alias passes the key pattern and reads (1, 2); kept, one would overwrite the other
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    scenario["form"]["coefficients"] = {"1,2": "y1", alias: "y2"}
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(scenario))
    assert load_scenario(str(path)) == scenario
    assert cli.main(["check", "--scenario", str(path), "--csv", str(tmp_path / "out.csv")]) == 2
    assert f"{alias!r} is not spelled '1,2' [form]" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["alias.json"]


def test_a_coefficient_that_does_not_parse_exits_2_on_every_run(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    scenario["form"]["coefficients"] = {"1,2": "y1 + (y2"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    argv = ["check", "--scenario", str(path), "--quiet"]
    assert [cli.main(argv), cli.main(argv)] == [2, 2]
    assert capsys.readouterr().err.count("cannot parse coefficient 'y1 + (y2'") == 2


def test_a_repeat_form_run_rebuilds_no_coefficient(monkeypatch):
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    first = run_scenario("check", scenario, 42).rows
    calls = []
    for name in ("_parse", "_closure", "_diff"):
        fn = getattr(expressions, name)
        monkeypatch.setattr(expressions, name,
                            lambda *args, name=name, fn=fn: (calls.append(name), fn(*args))[1])
    second = run_scenario("check", scenario, 42).rows
    assert calls == []
    assert [row.name for row in second] == [row.name for row in first]
    assert same_bits([row.value for row in second], [row.value for row in first])


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_coefficient_at_the_depth_limit_runs_and_one_level_more_exits_2(kind, tmp_path, capsys):
    # the Stokes check of c(y1) dy2 evaluates the partial of c inside a CLI
    # run; on [0.999, 1] four Gauss nodes integrate it to 1e-9
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    scenario["geometry"]["box"] = [[0.999, 1.0], [0.0, 1.0]]
    for depth, code in ((MAX_DEPTH, 0), (MAX_DEPTH + 1, 2)):
        form = {"degree": 1, "dim": 2, "coefficients": {"2": NESTINGS[kind](depth)}}
        scenario["checks"] = [{"name": "stokes", "tolerance": 1e-9, "form": form}]
        path = tmp_path / f"depth{depth}.json"
        path.write_text(json.dumps(scenario))
        argv = ["check", "--scenario", str(path), "--gauss-order", "4", "--cells", "1", "--quiet"]
        assert cli.main(argv) == code
    assert "bad form" in capsys.readouterr().err


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


# cell counts past quadrature.MAX_CELLS_PER_AXIS, each refused before a node array
# is made: 1e20 overflows numpy's array size, and 2**40 cells would take 8 TiB
CELLS_PAST_CAP = [99999999999999999999, 2**40, MAX_CELLS_PER_AXIS + 1]


@pytest.mark.parametrize("cells", CELLS_PAST_CAP)
@pytest.mark.parametrize("route", ["flag", "file"])
def test_cells_past_the_cap_exit_2_and_write_nothing(route, cells, tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    extra = ["--cells", str(cells)] if route == "flag" else []
    if route == "file":
        scenario["quadrature"]["cells_per_axis"] = cells
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    argv = ["length", "--scenario", str(path), "--csv", str(tmp_path / "out.csv"), "--quiet"]
    assert cli.main([*argv, *extra]) == 2
    # the file's value fails the schema, which names the field
    where = "[quadrature]" if route == "flag" else f"[{path}#quadrature/cells_per_axis]"
    assert where in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]
    with pytest.raises(ScenarioError) as info:  # past the schema, the spec refuses it too
        run_scenario("length", scenario, 42, {"cells_per_axis": cells})
    assert info.value.location == "quadrature"


def test_quadrature_spec_admits_the_cell_cap():
    assert QuadratureSpec(cells_per_axis=MAX_CELLS_PER_AXIS).cells_per_axis == MAX_CELLS_PER_AXIS


def test_metric_of_the_wrong_dimension_exits_3_naming_both_dimensions(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["metric"] = {"kind": "euclidean", "dim": 3}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["length", "--scenario", str(path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "metric dimension 3" in err and "codomain dimension 2" in err


# the quadrature checks each chunk once (kvector.checked_lift); each error
# of that one check still reaches the CLI, as exit 3 naming its class
ONE_CHECK_ERRORS = {
    # finite Jacobian entries 1e200 whose 2 x 2 minors overflow to inf
    "minors-overflow": ([[1e200, 0.0], [0.0, 1e200], [0.0, 0.0]], "EvaluationError",
                        "non-finite k-vector data"),
    "zero-lift": ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "ImmersionError", "degenerate lift"),
}


@pytest.mark.parametrize("name", sorted(ONE_CHECK_ERRORS))
def test_lift_errors_of_the_one_check_path_exit_3(name, tmp_path, capsys):
    matrix, error, text = ONE_CHECK_ERRORS[name]
    scenario = json.loads((SCENARIO_DIR / "area_sphere_zone.json").read_text())
    scenario["geometry"] = {"catalog": "linear", "params": {"matrix": matrix},
                            "box": [[0.0, 1.0], [0.0, 1.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    assert cli.main(["area", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert f"numeric error ({error})" in err and text in err
    assert not out.exists()


def test_a_lift_vanishing_at_one_node_warns_once_with_its_count(tmp_path, capsys):
    # t -> (t^3, 0) on [-1, 1]: with 3 cells of order 3 one node sits at t = 0
    scenario = {
        "version": "1",
        "geometry": {"catalog": "polynomial",
                     "params": {"domain_dim": 1, "terms": [[[1.0, [3]]], [[0.0, [0]]]]},
                     "box": [[-1.0, 1.0]]},
        "form": {"degree": 0, "dim": 2, "coefficients": {"": "y1"}},
        "quadrature": {"gauss_order": 3, "cells_per_axis": 3},
        "checks": [{"name": "stokes", "tolerance": 1e-12}],
    }
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["check", "--scenario", str(path)]) == 0
    warned = [line for line in capsys.readouterr().out.splitlines() if "Degenerate" in line]
    assert warned == ["warning: DegeneratePieceWarning: polynomial: "
                      "canonical lift vanished at 1 quadrature node(s)"]


def test_row_signatures_are_read_once_per_row_function():
    scenario = load_scenario(str(SCENARIO_DIR / "check_suite_randers.json"))
    scenarios._signature.cache_clear()
    for _ in range(2):
        run_scenario("check", scenario, 0)
    info = scenarios._signature.cache_info()
    assert info.misses == len({entry["name"] for entry in scenario["checks"]})
    assert info.hits == 2 * len(scenario["checks"]) - info.misses


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
    "bad", [{"gauss_order": 0}, {"cells_per_axis": 0}, {"target": 0.0},
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


def test_grassmann_roundtrip_compares_each_chart_point_with_its_k_vector(monkeypatch):
    # labelling every ray +1 keeps the two transitions consistent with each
    # other; only the comparison with the source k-vector sees the lost sign
    real = grassmann.to_grassmann

    def plus_one(xi, pivot=None):
        p = real(xi, pivot)
        w = p.w.copy()
        np.put_along_axis(w, np.asarray(p.pivot)[..., None], 1.0, axis=-1)
        return grassmann.GrassmannPoint(p.base, p.pivot, np.ones_like(p.pivot_sign), w, p.k, p.m)

    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    scenario["checks"] = [{"name": "grassmann_roundtrip", "tolerance": 1e-13, "k": 2, "m": 4}]
    assert [row.status for row in run_scenario("check", scenario, 42).rows] == ["PASS"]
    monkeypatch.setattr(grassmann, "to_grassmann", plus_one)
    assert [row.status for row in run_scenario("check", scenario, 42).rows] == ["FAIL"]


def test_grassmann_roundtrip_draws_a_rejected_row_again():
    stub = FirstRowRejected(5)
    run = scenarios.Run({}, 5, QuadratureSpec())
    run.rng = stub
    value = checks._check_grassmann_roundtrip(run, k=2, m=4, count=5)
    assert stub.sizes == [
        ("standard_normal", (5, 6)), ("standard_normal", (5, 4)), ("integers", 5),
        ("standard_normal", (1, 6)), ("standard_normal", (1, 4)), ("integers", 1),
    ]
    assert value <= 1e-13


def test_zero_width_interval_is_valid_and_has_length_zero():
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["geometry"]["interval"] = [1.0, 1.0]
    assert run_scenario("length", scenario, 42).rows[0].value == 0.0


def test_variation_on_a_zero_width_interval_reads_zero(tmp_path):
    # its sine bumps are the zero field there, as the length is 0.0
    scenario = json.loads((SCENARIO_DIR / "variation_line.json").read_text())
    scenario["geometry"]["interval"] = [0.5, 0.5]
    path, out = tmp_path / "point.json", tmp_path / "out.csv"
    path.write_text(json.dumps(scenario))
    assert cli.main(["variation", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 0
    name, value, *_, status, seconds = out.read_text().splitlines()[1].split(",")
    assert (name, float(value), status) == ("extremal_residual", 0.0, "PASS")


@pytest.mark.parametrize("modes", [functional.MAX_MODES + 1, 10**20])
def test_variation_modes_over_the_cap_exit_2_before_anything_is_built(
        modes, tmp_path, capsys, monkeypatch):
    # modes x dim fields, each perturbed 4 times per node: the cap bounds the stack
    def refused(*args, **kwargs):
        raise AssertionError("a scenario over the cap reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refused)
    scenario = json.loads((SCENARIO_DIR / "variation_line.json").read_text())
    scenario["variation"]["modes"] = modes
    path, out = tmp_path / "many_modes.json", tmp_path / "out.csv"
    path.write_text(json.dumps(scenario))
    assert cli.main(["variation", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"[{path}#variation/modes]")
    assert not out.exists()


def test_the_modes_cap_is_the_schema_maximum_and_no_shipped_scenario_nears_it():
    modes = SCENARIO_SCHEMA["properties"]["variation"]["properties"]["modes"]
    assert modes["maximum"] == functional.MAX_MODES == 64
    for path in SCENARIOS:
        modes = json.loads(path.read_text()).get("variation", {}).get("modes", 4)
        assert modes <= 4


def _refuse_runs(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a scenario over a cap reached run_scenario")

    monkeypatch.setattr(cli, "run_scenario", refused)


COVERS = SCENARIO_SCHEMA["properties"]["partition"]["properties"]["covers"]


# 10**5 windows per axis would exhaust memory in uniform_cover
@pytest.mark.parametrize("covers, where", [
    ([2, 100000], "partition/covers/1"),
    ([MAX_COVERS + 1, 2], "partition/covers/0"),
    ([2] * (COVERS["maxItems"] + 1), "partition/covers"),
])
def test_partition_covers_past_the_caps_exit_2_and_write_nothing(
        covers, where, tmp_path, capsys, monkeypatch):
    _refuse_runs(monkeypatch)
    scenario = json.loads((SCENARIO_DIR / "check_partition_circle.json").read_text())
    scenario["partition"]["covers"] = covers
    path, out = tmp_path / "bad.json", tmp_path / "out.csv"
    path.write_text(json.dumps(scenario))
    assert cli.main(["check", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"[{path}#{where}]")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_the_cover_cap_is_the_schema_maximum_and_uniform_cover_refuses_past_it():
    from grassvar.forms import PartitionOfUnity

    assert COVERS["items"]["maximum"] == MAX_COVERS == 16
    box = ((0.0, 1.0), (0.0, 2.0))
    assert len(PartitionOfUnity.uniform_cover(box, MAX_COVERS).cover) == MAX_COVERS**2
    with pytest.raises(InvalidPartitionError, match=f"in 1..{MAX_COVERS}, got 100000"):
        PartitionOfUnity.uniform_cover(box, 100000)
    scenario = json.loads((SCENARIO_DIR / "check_partition_circle.json").read_text())
    scenario["partition"]["covers"] = [2, MAX_COVERS + 1]
    with pytest.raises(InvalidPartitionError):  # a dict load_scenario never saw
        run_scenario("check", scenario, 42)
    for path in SCENARIOS:
        assert max(json.loads(path.read_text()).get("partition", {}).get("covers", [3])) <= 3


# C(10**5, 3) coefficients would exhaust memory in enumerate_multiindices
@pytest.mark.parametrize("where", ["form", "checks/0/form"])
def test_form_dim_past_the_cap_exits_2_and_writes_nothing(where, tmp_path, capsys, monkeypatch):
    big = {"degree": 3, "dim": 100000, "coefficients": {"1,2,3": 1.0}}
    scenario = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    if where == "form":
        scenario["form"] = big
    else:
        scenario["checks"] = [{"name": "stokes", "tolerance": 1e-10, "form": big}]
    with pytest.raises(ScenarioError) as info:  # a dict load_scenario never saw
        run_scenario("check", scenario, 42)
    assert info.value.location == "form" and "maximum of 16" in str(info.value)
    _refuse_runs(monkeypatch)
    path, out = tmp_path / "bad.json", tmp_path / "out.csv"
    path.write_text(json.dumps(scenario))
    assert cli.main(["check", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"[{path}#{where}/dim]")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_the_form_dim_cap_is_the_schema_maximum_and_admits_the_cap_itself():
    dim = SCENARIO_SCHEMA["properties"]["form"]["properties"]["dim"]
    assert dim["maximum"] == scenarios.MAX_FORM_DIM == 16
    top = {"degree": 8, "dim": scenarios.MAX_FORM_DIM, "coefficients": {"1,3,5,7,9,11,13,15": 2.0}}
    assert len(scenarios.build_form(top).coeffs) == math.comb(16, 8) == 12870


def test_the_leibniz_profiles_of_the_schema_are_the_check_families():
    family = SCENARIO_SCHEMA["properties"]["family"]["properties"]["profile"]
    assert family["enum"] == sorted(checks.PROFILE_FAMILIES)


@pytest.mark.parametrize("sub, stem", [("length", "length_circle"),
                                       ("check", "check_suite_randers")])
def test_negative_seed_exits_2_and_writes_nothing(sub, stem, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [sub, "--scenario", str(SCENARIO_DIR / f"{stem}.json"), "--csv", str(out)]
    assert cli.main([*argv, "--seed", "-1", "--quiet"]) == 2
    assert "[seed]" in capsys.readouterr().err
    assert not out.exists()


# scenario -> (subcommand, metric builds and homogeneity probes of the first
# of two runs in one process, RNGs made in each run): the second run reads the
# interned metric and its verdict, and the probe makes no RNG, on the first
# run either, when it builds its fiber shape's table
RUN_BUILDS = {
    "check_suite_randers": ("check", 1, [1, 1]),
    "area_sphere_zone": ("area", 1, [0, 0]),
    "length_circle": ("length", 1, [0, 0]),
    "variation_line": ("variation", 1, [0, 0]),
    "check_forms_square": ("check", 0, [0, 0]),
}


def _clear_interned():
    """Forget the metrics, maps and variation bases earlier runs interned."""
    scenarios._INTERNED.clear()
    variation._sine_bumps.cache_clear()


@pytest.mark.parametrize("stem", sorted(RUN_BUILDS))
def test_a_run_builds_each_input_once_and_makes_an_rng_only_to_draw(stem, monkeypatch):
    # the integrand dump of area and length reads the same metric and piece
    sub, first_builds, rngs_per_run = RUN_BUILDS[stem]
    builds, probes, seeds = [], [], []

    def counted(log, fn):
        return lambda *args, **kwargs: (log.append(args[:1]), fn(*args, **kwargs))[1]

    for kind, build in list(scenarios.METRIC_KINDS.items()):
        monkeypatch.setitem(scenarios.METRIC_KINDS, kind, counted(builds, build))
    probe = functional.check_homogeneity
    monkeypatch.setattr(functional, "check_homogeneity", counted(probes, probe))
    monkeypatch.setattr(np.random, "default_rng", counted(seeds, np.random.default_rng))
    scenario = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
    functional._probe_samples.cache_clear()  # whatever ran before, the first run builds them
    _clear_interned()
    for run, rngs in enumerate(rngs_per_run):
        for log in (builds, probes, seeds):
            log.clear()
        run_scenario(sub, scenario, 42, dump=True)
        n_builds = first_builds if run == 0 else 0
        assert [len(builds), len(probes), len(seeds)] == [n_builds, n_builds, rngs], run
        assert seeds == [(42,)] * rngs  # only the sampled checks draw, from the run's seed


def _inputs(scenario):
    """The metric and the maps one run of a copy of ``scenario`` reads."""
    run = scenarios.Run(copy.deepcopy(scenario), 42, QuadratureSpec())
    return run.metric, run.curve.map, *([run.reparam] if "reparam" in scenario else [])


def test_equal_blocks_share_one_object():
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    metric, curve, reparam = _inputs(scenario)
    # a copy whose geometry spells its keys in another order
    again = _inputs({**scenario, "geometry": dict(reversed(scenario["geometry"].items()))})
    assert [a is b for a, b in zip((metric, curve, reparam), again)] == [True] * 3
    forms_square = json.loads((SCENARIO_DIR / "check_forms_square.json").read_text())
    alpha = [scenarios._interned(scenarios.build_map, copy.deepcopy(forms_square["alpha"]), "alpha")
             for _ in range(2)]
    assert alpha[0] is alpha[1]


@pytest.mark.parametrize("block, path, value", [
    ("metric", ("b", 0), 0.25),  # a value
    ("metric", ("b", 0), float(np.nextafter(0.2, 1.0))),  # the next float, spelled apart
    ("geometry", ("params", "pitch"), 0.25),
    ("reparam", ("params", "amplitude"), 0.25),
])
def test_blocks_that_differ_in_a_value_do_not_share(block, path, value):
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    first = _inputs(scenario)
    *keys, last = path
    spec = scenario[block]
    for key in keys:
        spec = spec[key]
    spec[last] = value
    second = _inputs(scenario)
    index = ["metric", "geometry", "reparam"].index(block)
    assert first[index] is not second[index]
    assert [a is b for i, (a, b) in enumerate(zip(first, second)) if i != index] == [True] * 2


def test_blocks_that_differ_in_the_sign_of_a_zero_do_not_share():
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["metric"] = {"kind": "randers", "dim": 2, "b": [0.0, 0.0]}
    scenario["geometry"]["params"]["center"] = [0.0, 0.0]
    unsigned = _inputs(scenario)
    scenario["metric"]["b"][0] = scenario["geometry"]["params"]["center"][0] = -0.0
    signed = _inputs(scenario)
    assert [a is b for a, b in zip(unsigned, signed)] == [False, False]
    assert [a is b for a, b in zip(signed, _inputs(scenario))] == [True, True]


@pytest.mark.parametrize("block, bad", [
    ("metric", {"kind": "randers", "dim": 2, "b": [2.0, 0.0]}),  # |b| >= 1
    ("metric", {"kind": "euclidean", "dimension": 2}),
    ("geometry", {"catalog": "circle", "params": {"radius": 1.0, "spin": 2},
                  "interval": [0.0, 1.0]}),
])
def test_an_invalid_block_exits_2_on_every_run_and_is_not_stored(block, bad, tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario[block] = bad
    path, out = tmp_path / "bad.json", tmp_path / "out.csv"
    path.write_text(json.dumps(scenario))
    errors = []
    for _ in range(2):
        assert cli.main(["length", "--scenario", str(path), "--csv", str(out), "--quiet"]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] and f"[{block}]" in errors[0]
    assert json.dumps(bad, sort_keys=True) not in {key for _, key in scenarios._INTERNED}


def test_a_block_that_is_not_json_is_built_on_every_run():
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["geometry"]["params"]["center"] = np.zeros(2)  # json.dumps refuses an array
    first, second = (_inputs(scenario)[1] for _ in range(2))
    assert first is not second
    assert run_scenario("length", scenario, 42).rows[0].status == "PASS"


def test_the_interning_cache_keeps_at_most_its_size_most_recent_blocks():
    assert scenarios.CACHE_SIZE == expressions.CACHE_SIZE == 256
    _clear_interned()
    specs = [{"catalog": "circle", "params": {"radius": 1.0 + i}}
             for i in range(scenarios.CACHE_SIZE + 10)]
    built = [scenarios._interned(scenarios.build_map, spec, "geometry") for spec in specs[:2]]
    for spec in specs[2:]:
        scenarios._interned(scenarios.build_map, specs[0], "geometry")  # keeps the first in use
        scenarios._interned(scenarios.build_map, spec, "geometry")
    assert len(scenarios._INTERNED) == scenarios.CACHE_SIZE
    assert scenarios._interned(scenarios.build_map, specs[0], "geometry") is built[0]
    assert scenarios._interned(scenarios.build_map, specs[1], "geometry") is not built[1]
    last = scenarios._interned(scenarios.build_map, specs[-1], "geometry")
    assert scenarios._interned(scenarios.build_map, dict(specs[-1]), "geometry") is last
    assert len(scenarios._INTERNED) == scenarios.CACHE_SIZE


def test_an_energy_length_warns_on_its_first_run_and_never_cross_checks(monkeypatch):
    # the Hilbert route of the 2-homogeneous energy reads twice its length, so
    # a cross-check would raise; the verdict kept with the metric skips it
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["metric"] = {"kind": "energy", "dim": 2}
    _clear_interned()
    hilbert = []
    monkeypatch.setattr(functional, "_hilbert_value", lambda F, lift: hilbert.append(F))
    values, warned = [], []
    for _ in range(3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values.append(run_scenario("length", scenario, 42).rows[0].value)
        warned.append([str(w.message) for w in caught])
    assert warned == [
        ["energy: homogeneity residual 1; the functional value is parametrization-dependent"],
        [], [],
    ]
    assert values[0] == values[1] == values[2] == pytest.approx(2 * math.pi, abs=1e-9)
    assert hilbert == []


def test_check_run_reparametrizes_once_and_walks_the_direct_length_once(monkeypatch):
    moved, walked = [], []  # each reparametrized curve; each piece walked without a density
    reparametrized, lift_value = checks.reparametrized, functional._lift_value

    def counted_moves(piece, rho):
        moved.append(reparametrized(piece, rho))
        return moved[-1]

    def counted_walks(L, piece, q, density=None):
        if density is None:
            walked.append(piece)
        return lift_value(L, piece, q, density)

    monkeypatch.setattr(checks, "reparametrized", counted_moves)
    monkeypatch.setattr(functional, "_lift_value", counted_walks)
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    rows = run_scenario("check", scenario, 42).rows
    assert {row.name for row in rows} >= {"dual_route", "reparam_invariance"}
    direct = [p for p in walked if not any(p is q for q in moved)]
    assert (len(moved), len(direct)) == (1, 1)


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


def _drop(*keys):
    """Delete a nested key of a scenario, e.g. ``_drop("geometry", "box")``."""
    def edit(s):
        for key in keys[:-1]:
            s = s[key]
        del s[keys[-1]]
    return edit


def _put(value, *keys):
    """Set a nested key of a scenario to ``value``."""
    def edit(s):
        for key in keys[:-1]:
            s = s[key]
        s[keys[-1]] = value
    return edit


def _graph_of(*term):
    """An area scenario on the unit square over (u, v) -> (u, v, h) with a
    polynomial h of the single ``[coeff, exponents]`` term given."""
    return _put({
        "catalog": "polynomial",
        "params": {"domain_dim": 2, "terms": [[[1.0, [1, 0]]], [[1.0, [0, 1]]], [list(term)]]},
        "box": [[0.0, 1.0], [0.0, 1.0]],
    }, "geometry")


def test_polynomial_graph_scenario_has_the_graph_area():
    scenario = json.loads((SCENARIO_DIR / "area_sphere_zone.json").read_text())
    _graph_of(1.0, [1, 0])(scenario)  # h = u: a plane of slope 1
    assert run_scenario("area", scenario, 42).rows[0].value == pytest.approx(math.sqrt(2.0))


# (id, subcommand, shipped scenario, edit of its JSON (None: no file; a str: raw text), location)
SCENARIO_ERRORS = [
    ("unreadable", "length", "length_circle", None, "{path}"),
    ("invalid-json", "length", "length_circle", "{", "{path}:1:2"),
    ("version", "length", "length_circle", _put("2", "version"), "{path}#version"),
    ("metric-kind", "length", "length_circle", _put({"kind": "nope"}, "metric"), "metric/kind"),
    ("metric-params", "length", "length_circle", _put(1, "metric", "bogus"), "metric"),
    ("catalog", "length", "length_circle", _put("nope", "geometry", "catalog"), "geometry"),
    ("no-geometry", "length", "length_circle", _drop("geometry"), "geometry"),
    ("no-interval", "length", "length_circle", _drop("geometry", "interval"),
     "geometry/interval"),
    ("not-a-curve", "length", "length_circle", _put("sphere_patch", "geometry", "catalog"),
     "geometry/catalog"),
    ("no-box", "area", "area_sphere_zone", _drop("geometry", "box"), "geometry/box"),
    ("interval-reversed", "length", "length_circle", _put([1.0, 0.0], "geometry", "interval"),
     "geometry/interval"),
    ("box-reversed", "area", "area_sphere_zone", _put([0.0, -1.0], "geometry", "box", 1),
     "geometry/box"),
    # a curve runs along its interval: an orientation key is refused, not ignored
    ("interval-orientation", "length", "length_circle", _put(-1, "geometry", "orientation"),
     "geometry/orientation"),
    ("interval-orientation-plus", "variation", "variation_line",
     _put(1, "geometry", "orientation"), "geometry/orientation"),
    ("no-metric", "length", "length_circle", _drop("metric"), "metric"),
    ("check-no-metric", "check", "check_suite_randers", _drop("metric"), "metric"),
    ("seed-key", "length", "length_circle", _put(7, "seed"), "{path}#<root>"),
    ("output-key", "length", "length_circle", _put({"csv": "o.csv"}, "output"), "{path}#<root>"),
    ("polynomial-exponent-float", "area", "area_sphere_zone", _graph_of(1.0, [1.5, 0]),
     "geometry"),
    ("polynomial-exponent-string", "area", "area_sphere_zone", _graph_of(1.0, ["a", 0]),
     "geometry"),
    ("polynomial-coefficient-string", "area", "area_sphere_zone", _graph_of("x", [1, 0]),
     "geometry"),
    ("polynomial-exponent-negative", "area", "area_sphere_zone", _graph_of(1.0, [-1, 0]),
     "geometry"),
    ("polynomial-coefficient-huge", "area", "area_sphere_zone", _graph_of(10**400, [1, 0]),
     "geometry"),
    ("box-dimension", "area", "area_sphere_zone", _put([[0.1, 3.0]], "geometry", "box"),
     "geometry/box"),
    # catalog and metric parameters, read by maps.checked_reals and checked_dimension
    ("radius-string", "length", "length_circle", _put("x", "geometry", "params", "radius"),
     "geometry"),
    ("radius-bool", "length", "length_circle", _put(True, "geometry", "params", "radius"),
     "geometry"),
    ("center-short", "length", "length_circle", _put([0.0], "geometry", "params", "center"),
     "geometry"),
    ("start-short", "length", "length_randers_segment",
     _put([0.0], "geometry", "params", "start"), "geometry"),
    ("drift-string", "length", "length_randers_segment", _put(["x", 0, 0], "metric", "b"),
     "metric"),
    ("metric-matrix-string", "length", "length_randers_segment",
     _put({"matrix": [["x"]]}, "metric", "g"), "metric"),
    ("metric-field-number", "length", "length_randers_segment", _put(2, "metric", "g"),
     "metric"),
    ("metric-dim-float", "length", "length_circle", _put(2.5, "metric", "dim"), "metric"),
    ("areal-degree-above-dim", "area", "area_sphere_zone",
     _put({"kind": "areal_gram", "k": 4, "m": 3}, "metric"), "metric"),
    ("identity-dim-string", "length", "length_circle",
     _put({"catalog": "identity", "params": {"dim": "x"}, "interval": [0.0, 1.0]}, "geometry"),
     "geometry"),
    ("reparam-amplitude-string", "check", "check_suite_randers",
     _put("x", "reparam", "params", "amplitude"), "reparam"),
    ("alpha-amplitude-huge", "check", "check_forms_square",
     _put(10**400, "alpha", "params", "amplitude"), "alpha"),
    ("no-form", "check", "check_partition_circle", _drop("form"), "form"),
    ("no-reparam", "check", "check_suite_randers", _drop("reparam"), "reparam"),
    ("dual-route-no-reparam", "check", "check_suite_randers",
     lambda s: (_drop("reparam")(s), _one_check(name="dual_route")(s)), "reparam"),
    ("no-alpha", "check", "check_forms_square", _drop("alpha"), "alpha"),
    ("no-family", "check", "check_forms_square", _drop("family"), "family"),
    ("quantity", "length", "length_circle", _put([{"name": "area"}], "compute"), "compute"),
    ("no-checks", "check", "check_partition_circle", _put([], "checks"), "checks"),
    ("unknown-check", "check", "check_partition_circle",
     _put([{"name": "nope", "tolerance": 1.0}], "checks"), "checks"),
    ("deep-nesting", "length", "length_circle",
     (SCENARIO_DIR / "length_circle.json").read_text().replace(
         '"metric": {', '"metric": {"deep": ' + "[" * 100000 + "]" * 100000 + ", "), "{path}"),
    ("huge-integer", "length", "length_circle",
     (SCENARIO_DIR / "length_circle.json").read_text().replace('"radius": 1.0', '"radius": 1'
                                                               + "0" * 5000), "{path}"),
]


def _one_check(**entry):
    return _put([{"tolerance": 1e-10, **entry}], "checks")


# malformed check parameters and non-finite numbers, named by their field
PARAMETER_ERRORS = [
    ("samples-0", "check", "check_suite_randers", _one_check(name="homogeneity", samples=0),
     "{path}#checks/0/samples"),
    ("samples-many", "check", "check_suite_randers",
     _one_check(name="euler_identity", samples="many"), "{path}#checks/0/samples"),
    ("samples-float", "check", "check_suite_randers",
     _one_check(name="euler_identity", samples=3.0), "{path}#checks/0/samples"),
    ("count-0", "check", "check_suite_randers", _one_check(name="lift_functoriality", count=0),
     "{path}#checks/0/count"),
    ("lambdas-negative", "check", "check_suite_randers",
     _one_check(name="projectability", lambdas=[-1]), "{path}#checks/0/lambdas/0"),
    ("lambdas-empty", "check", "check_suite_randers",
     _one_check(name="homogeneity", lambdas=[]), "{path}#checks/0/lambdas"),
    ("k-0", "check", "check_suite_randers", _one_check(name="grassmann_roundtrip", k=0),
     "{path}#checks/0/k"),
    ("m-1", "check", "check_suite_randers", _one_check(name="grassmann_roundtrip", k=1, m=1),
     "{path}#checks/0/m"),
    ("k-equals-m", "check", "check_suite_randers",
     _one_check(name="grassmann_roundtrip", k=3, m=3), "checks"),
    ("k-above-m", "check", "check_suite_randers",
     _one_check(name="grassmann_roundtrip", k=5, m=4), "checks"),
    ("misspelled", "check", "check_suite_randers", _one_check(name="homogeneity", sample=3),
     "{path}#checks/0"),
    ("check-form", "check", "check_forms_square",
     _one_check(name="stokes", form={"degree": 1, "dim": 2}), "{path}#checks/0/form"),
    ("covers-one", "check", "check_partition_circle", _put([2], "partition", "covers"),
     "{path}#partition/covers"),
    ("covers-none", "check", "check_partition_circle", _put([], "partition", "covers"),
     "{path}#partition/covers"),
    ("overlap-negative", "check", "check_partition_circle", _put(-0.6, "partition", "overlap"),
     "{path}#partition/overlap"),
    ("dt-step-0", "check", "check_forms_square", _put(0, "family", "dt_step"),
     "{path}#family/dt_step"),
    ("gauss-order-float", "length", "length_circle", _put(8.0, "quadrature", "gauss_order"),
     "{path}#quadrature/gauss_order"),
    ("tolerance-nan", "length", "length_circle", _put(float("nan"), "compute", 0, "tolerance"),
     "{path}#compute/0/tolerance"),
    ("interval-infinity", "length", "length_circle",
     _put(float("inf"), "geometry", "interval", 1), "{path}#geometry/interval/1"),
    ("metric-minus-infinity", "check", "check_suite_randers",
     _put(-float("inf"), "metric", "b", 0), "{path}#metric/b/0"),
    ("overflow", "length", "length_circle",
     (SCENARIO_DIR / "length_circle.json").read_text().replace("1e-8", "1e400"),
     "{path}#compute/0/tolerance"),
    ("tolerance-negative", "length", "length_circle", _put(-1, "compute", 0, "tolerance"),
     "{path}#compute/0/tolerance"),
    ("check-tolerance-negative", "check", "check_suite_randers",
     _one_check(name="dual_route", tolerance=-1), "{path}#checks/0/tolerance"),
    # a parameter the check does not read
    ("unread-parameters", "check", "check_suite_randers", _one_check(
        name="dual_route", samples=5, lambdas=[3.0], k=1, m=2, count=7), "checks/0"),
    ("unread-samples", "check", "check_partition_circle",
     _one_check(name="partition_independence", samples=5), "checks/0"),
]


@pytest.mark.parametrize(
    "sub, stem, edit, location",
    [case[1:] for case in SCENARIO_ERRORS + PARAMETER_ERRORS],
    ids=[case[0] for case in SCENARIO_ERRORS + PARAMETER_ERRORS],
)
def test_scenario_error_exits_2_names_its_location_and_writes_nothing(
    sub, stem, edit, location, tmp_path, capsys
):
    path = tmp_path / "bad.json"
    if isinstance(edit, str):
        path.write_text(edit)
    elif edit is not None:
        scenario = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
        edit(scenario)
        path.write_text(json.dumps(scenario))
    before = sorted(tmp_path.iterdir())
    out, dump = tmp_path / "out.csv", tmp_path / "dump.csv"
    argv = [sub, "--scenario", str(path), "--csv", str(out), "--dump-integrand", str(dump)]
    assert cli.main([*argv, "--quiet"]) == 2
    assert f"[{location.format(path=path)}]" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("flag", ["--csv", "--report", "--dump-integrand"])
def test_unwritable_output_exits_2_naming_the_path(flag, tmp_path, capsys):
    # exit 1 would read as a FAIL row; a path that cannot be written is an input error
    bad = tmp_path / "missing" / "out.txt"
    argv = ["length", "--scenario", str(SCENARIO_DIR / "length_circle.json"), "--quiet"]
    assert cli.main([*argv, flag, str(bad)]) == 2
    assert capsys.readouterr().err == f"cannot write {bad}: No such file or directory\n"


# one past each cap on the samples a check draws or the Gauss order
OVER_CAP = [
    ("samples", "homogeneity", {"samples": 100001}, [], "{path}#checks/0/samples"),
    ("count", "lift_functoriality", {"count": 100001}, [], "{path}#checks/0/count"),
    ("grassmann-count", "grassmann_roundtrip", {"count": 100001}, [], "{path}#checks/0/count"),
    ("lambdas", "projectability", {"lambdas": [2.0] * 17}, [], "{path}#checks/0/lambdas"),
    ("grassmann-m", "grassmann_roundtrip", {"k": 2, "m": 9}, [], "{path}#checks/0/m"),
    ("gauss-order", "homogeneity", {}, ["--gauss-order", "65"], "quadrature"),
]


@pytest.mark.parametrize("check, params, extra, location",
                         [case[1:] for case in OVER_CAP], ids=[case[0] for case in OVER_CAP])
def test_over_cap_exits_2_at_once_and_writes_nothing(
    check, params, extra, location, tmp_path, capsys
):
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    scenario["checks"] = [{"name": check, "tolerance": 1e-10, **params}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out.csv"
    t0 = time.perf_counter()
    assert cli.main(["check", "--scenario", str(path), "--csv", str(out), "--quiet", *extra]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"[{location.format(path=path)}]" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_sampled_check_evaluates_at_most_a_chunk_per_call(tmp_path, monkeypatch):
    rows = []
    call = finsler.FinslerFunction.__call__
    monkeypatch.setattr(finsler.FinslerFunction, "__call__",
                        lambda F, y, v: (rows.append(len(np.atleast_2d(v))), call(F, y, v))[1])
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    scenario["checks"] = [
        {"name": "homogeneity", "tolerance": 1e-11, "samples": 1000, "lambdas": [2.0] * 16},
    ]
    path = tmp_path / "many.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["check", "--scenario", str(path), "--quiet"]) == 0
    assert max(rows) <= quadrature.CHUNK_NODES and sum(rows) == 17 * 1000


def test_caps_admit_the_cap_itself():
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    scenario["checks"] = [
        {"name": "homogeneity", "tolerance": 1e-11, "samples": 2, "lambdas": [2.0] * 16},
        {"name": "grassmann_roundtrip", "tolerance": 1e-13, "k": 4, "m": 8, "count": 3},
    ]
    scenario["quadrature"]["gauss_order"] = 64
    assert scenarios._violation(SCENARIO_SCHEMA, scenario) is None
    rows = run_scenario("check", scenario, 42).rows
    assert [row.status for row in rows] == ["PASS", "PASS"]
    with pytest.raises(ValueError, match="gauss_order"):
        QuadratureSpec(gauss_order=65)


def test_misspelled_check_parameter_is_named(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "check_homogeneity_energy.json").read_text())
    scenario["checks"][0]["sample"] = scenario["checks"][0].pop("samples")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["check", "--scenario", str(path), "--quiet"]) == 2
    assert "'sample' was unexpected" in capsys.readouterr().err


def test_unread_check_parameter_is_named(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "check_suite_randers.json").read_text())
    scenario["checks"].append({"name": "lift_functoriality", "tolerance": 1e-10, "samples": 5})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["check", "--scenario", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "'lift_functoriality'" in err and "'samples'" in err and "[checks/7]" in err


def test_walk_past_the_stack_is_a_scenario_error(tmp_path, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(scenarios, "_violation", too_deep)
    with pytest.raises(ScenarioError) as info:
        load_scenario(str(SCENARIO_DIR / "length_circle.json"))
    assert info.value.location == str(SCENARIO_DIR / "length_circle.json")


def test_quadrature_overrides_apply_to_checks(tmp_path):
    out = tmp_path / "out.csv"
    path = SCENARIO_DIR / "check_suite_randers.json"
    argv = ["check", "--scenario", str(path), "--gauss-order", "2", "--cells", "2"]
    assert cli.main([*argv, "--csv", str(out), "--quiet"]) == 1
    rows = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
    # at order 2, 2 cells the two routes see different nodes (the file's 8 x 16 reads 0)
    assert float(rows["dual_route"]) == pytest.approx(4.377e-2, rel=1e-3)
    assert float(rows["reparam_invariance"]) == pytest.approx(4.377e-2, rel=1e-3)


def test_every_check_is_gated_by_a_shipped_scenario():
    shipped = {
        entry["name"] for path in SCENARIOS for entry in json.loads(path.read_text()).get("checks", [])
    }
    assert shipped == set(checks.CHECKS)


def _code(member):
    """The code object whose running counts as running ``member``, or None:
    a property runs its getter, a static or class method its function."""
    member = inspect.unwrap(getattr(member, "fget", None) or getattr(member, "__func__", member))
    return member.__code__ if inspect.isfunction(member) else None


def _public_names():
    """Public name -> code objects: each exported function, each exported
    class (any code of its body), and each public member of those classes.
    The names are ``grassvar.__all__``, each resolved by ``getattr``, so a
    name the package serves on first use counts too."""
    names = {}
    for name in grassvar.__all__:
        obj = getattr(grassvar, name)
        if not callable(obj) or inspect.ismodule(obj):
            continue
        members = vars(obj) if inspect.isclass(obj) else {name: obj}
        names[name] = {_code(member) for member in members.values()} - {None}
        for attr, member in members.items():
            if inspect.isclass(obj) and not attr.startswith("_") and _code(member) is not None:
                names[f"{name}.{attr}"] = {_code(member)}
    return names


def test_all_lists_every_name_the_package_binds():
    bound = {
        name for name, obj in vars(grassvar).items()
        if not (name.startswith("_") or inspect.ismodule(obj))
    }
    assert bound <= set(grassvar.__all__) and len(set(grassvar.__all__)) == len(grassvar.__all__)
    assert {"GrassmannPoint", "grassmann_transition", "to_grassmann"} <= set(_public_names())


def test_every_public_name_runs_on_a_shipped_scenario(tmp_path):
    public = _public_names()
    for name in grassvar.__all__:
        getattr(getattr(grassvar, name), "cache_clear", lambda: None)()  # a hit skips the call
    _clear_interned()  # so the catalog builders and VariationField.sine_bump run
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        for path in SCENARIOS:
            _run(path, tmp_path / "out.csv", tmp_path / "dump.csv")
    finally:
        sys.setprofile(None)
    # a class's public methods, classmethods and properties count as names of their own
    assert {name for name, codes in public.items() if not codes & ran} == set()
