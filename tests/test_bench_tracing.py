"""The spans of the traced benchmark still find the functions they wrap.

``bench/tracing.py`` wraps grassvar functions by module and attribute
path, and a traced run leaves out every per-layer metric whose spans wrap
nothing.  So renaming, moving or deleting a traced function drops metrics
from the benchmark without an error; this test names the span instead.
The file is loaded by path and only read.  A traced pass over three
shipped scenarios must also report every metric the tracer defines, each
finite, and every per-layer metric ``BENCHMARK.json`` declares must be one
of those or one that ``bench/run.py`` adds.
"""
import ast
import importlib.util
import json
import math
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("grassvar_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_finds_one_of_its_grassvar_targets():
    tracing = _load_tracing()
    # only grassvar's targets: resolving the sympy one would import sympy
    lost = [
        span
        for span, targets in tracing.TARGETS.items()
        if not any(
            tracing._resolve(module, path)
            for module, path, _ in targets
            if module.split(".")[0] == "grassvar"
        )
    ]
    assert lost == [], f"traced spans whose grassvar targets are all gone: {lost}"


ROOT = TRACING.parent.parent
TRACED_RUNS = [("area", "area_sphere_zone"), ("check", "check_forms_square"),
               ("check", "check_suite_randers")]


def _run_py_metric_names():
    """The per-layer names ``bench/run.py`` adds to the tracer's: one
    ``import.<package>_s`` per entry of ``IMPORT_PACKAGES`` and the literal
    keys of ``PER_LAYER_UNITS``.  The file is parsed, not imported, since
    importing it sets thread variables."""
    tree = ast.parse((TRACING.parent / "run.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target == "IMPORT_PACKAGES":
                names |= {f"import.{p}_s" for p in ast.literal_eval(node.value)}
            elif target == "PER_LAYER_UNITS":
                names |= {key.value for key in node.value.keys if isinstance(key, ast.Constant)}
    return names


def test_a_traced_pass_reports_every_per_layer_metric():
    # a run whose traced pass leaves a metric out, or reports a NaN, ends
    # without a JSON result line
    from grassvar import scenarios

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for sub, stem in TRACED_RUNS:
            scenario = scenarios.load_scenario(str(ROOT / "scenarios" / f"{stem}.json"))
            scenarios.run_scenario(sub, scenario, 42)
    finally:
        tracer.uninstall()
    assert tracer.absent() == []
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.METRICS)
    assert all(math.isfinite(value) for value in metrics.values())
    json.dumps(metrics, allow_nan=False)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(tracing.METRICS) - _run_py_metric_names() == set()
