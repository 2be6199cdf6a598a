"""The benchmark's per-layer spans find their entry points.

perfbench/tracing.py rebinds package functions by (module, attribute) name
and reports a span it cannot find as a null metric, so renaming or deleting
one of those functions silently blinds a per-layer metric.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import spinmix.measurement as measurement

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module: str, path: str) -> bool:
    try:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


def test_every_span_resolves_through_some_binding():
    bindings = load_tracing().BINDINGS
    found = {name for name, module, path, _ in bindings if resolves(module, path)}
    assert {name for name, *_ in bindings} - found == set()


def test_run_experiments_still_takes_workers():
    # perfbench's workers2_speedup times run_experiments at workers 1 and 2.
    assert "workers" in inspect.signature(measurement.run_experiments).parameters
