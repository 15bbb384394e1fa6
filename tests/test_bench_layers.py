"""The benchmark's per-layer tracer wraps functions by name.

``perfbench/bench_trace.py`` lists them in ``LAYERS``; a function deleted or
renamed in the package would break ``--trace 1`` runs without any other test
failing.  The table is read with ``ast`` so the benchmark directory is never
imported or written to.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _layers() -> dict:
    tree = ast.parse(BENCH_TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYERS not found in perfbench/bench_trace.py")


TRACED = [(layer, name) for layer, names in _layers().items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"eprgeo.{layer}")
    assert callable(getattr(module, name, None)), f"eprgeo.{layer}.{name} is gone"
