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
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

import grassvar
from grassvar import cli, finsler, forms, grassmann, scenarios
from grassvar.errors import ScenarioError
from grassvar.expressions import MAX_DEPTH
from grassvar.forms import QuadratureSpec
from grassvar.scenarios import SCENARIO_SCHEMA, build_quadrature, load_scenario, run_scenario

from .oracles import FirstRowRejected
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


@pytest.fixture(scope="module")
def cli_modules():
    """The modules loaded by ``import grassvar.cli`` in a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, grassvar.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(out.stdout.split())


@pytest.mark.parametrize(
    "module", ["scipy", "sympy", "jsonschema", "attrs", "referencing", "rpds", "hypothesis"]
)
def test_cli_import_does_not_load(module, cli_modules):
    assert "grassvar.cli" in cli_modules
    assert module not in cli_modules


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
    ],
    ids=["key", "list", "syntax", "caret", "payload", "atan", "Abs", "E", "factorial", "deep",
         "short", "long", "decreasing", "repeated", "out-of-range"],
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


def test_metric_of_the_wrong_dimension_exits_3_naming_both_dimensions(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "length_circle.json").read_text())
    scenario["metric"] = {"kind": "euclidean", "dim": 3}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["length", "--scenario", str(path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "metric dimension 3" in err and "codomain dimension 2" in err


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
    value = scenarios._check_grassmann_roundtrip({}, stub, QuadratureSpec(), k=2, m=4, count=5)
    assert stub.sizes == [
        ("standard_normal", (5, 6)), ("standard_normal", (5, 4)), ("integers", 5),
        ("standard_normal", (1, 6)), ("standard_normal", (1, 4)), ("integers", 1),
    ]
    assert value <= 1e-13


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
    assert max(rows) <= forms.CHUNK_NODES and sum(rows) == 17 * 1000


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
    assert shipped == set(scenarios.CHECKS)


# public names that no shipped scenario runs, each with the reason it stays
LIBRARY_ONLY = {
    "wedge": "builds a k-vector from tangent vectors; the lifts build theirs from minors",
    "equivalent": "tests two k-vectors for the same ray; the checks compare chart points",
    "grassmann_canonical_lift": "the ray of a canonical lift, for library use",
    "hilbert_form": "the Hilbert form as a KForm; the dual route integrates it as a density",
    "first_variation": "one field's variation; extremal_residual batches all fields",
}


def _codes(obj):
    """Code objects whose running counts as running ``obj``: a function's
    own, or those of the functions defined in a class body."""
    members = vars(obj).values() if inspect.isclass(obj) else [obj]
    codes = set()
    for member in members:
        # a property runs its getter, a static or class method its function
        member = inspect.unwrap(getattr(member, "fget", None) or getattr(member, "__func__", member))
        if inspect.isfunction(member):
            codes.add(member.__code__)
    return codes


def test_every_public_name_runs_on_a_shipped_scenario(tmp_path):
    public = {
        name: obj for name, obj in vars(grassvar).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
    }
    for obj in public.values():
        getattr(obj, "cache_clear", lambda: None)()  # a cache hit would skip the call
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
    unreached = {name for name, obj in public.items() if not _codes(obj) & ran}
    assert unreached == set(LIBRARY_ONLY)
