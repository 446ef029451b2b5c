"""The spans of the traced benchmark still find the functions they wrap.

``bench/tracing.py`` wraps grassvar functions by module and attribute
path, and a traced run leaves out every per-layer metric whose spans wrap
nothing.  So renaming, moving or deleting a traced function drops metrics
from the benchmark without an error; this test names the span instead.
The file is loaded by path and only read.
"""
import importlib.util
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
