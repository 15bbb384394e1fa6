"""The benchmark's per-layer tracer wraps functions by name.

``perfbench/bench_trace.py`` lists them in ``LAYERS``, and the spacetime
methods it wraps on every spacetime class in ``SPACETIME_METHODS``; a
function deleted or renamed in the package would break ``--trace 1`` runs
without any other test failing, and so would a result field that its
counting hooks read, or an argument they read moved to another position.  The tables are read with ``ast`` so the benchmark
directory is never imported or written to.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _table(name: str):
    tree = ast.parse(BENCH_TRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/bench_trace.py")


TRACED = [(layer, name) for layer, names in _table("LAYERS").items() for name in names]
SPACETIMES = [
    ("minkowski", {}),
    ("schwarzschild", {"M": 1.0}),
    ("weak_field", {"epsilon": 0.05}),
]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"eprgeo.{layer}")
    assert callable(getattr(module, name, None)), f"eprgeo.{layer}.{name} is gone"


@pytest.mark.parametrize("kind, params", SPACETIMES, ids=[k for k, _ in SPACETIMES])
def test_traced_spacetime_methods_exist(kind, params):
    # the tracer wraps a method only where the class itself defines it
    from eprgeo import make_spacetime

    cls = type(make_spacetime(kind, params))
    for meth in _table("SPACETIME_METHODS"):
        assert callable(vars(cls).get(meth)), f"{cls.__name__}.{meth} is gone"


def test_traced_results_keep_the_fields_the_hooks_read():
    # the counting hooks in bench_trace.py read these attributes off the
    # traced functions' arguments and results; pruning one breaks --trace 1
    from eprgeo import Event, integrate_geodesic, make_spacetime, sample_bundle
    from eprgeo.frames import frame_field
    from eprgeo.geodesic import solve_bvp

    st = make_spacetime("schwarzschild", {"M": 1.0})
    decay = np.array([0.0, 12.0, np.pi / 2.0, 0.0])
    u = frame_field(st, decay) @ np.array([np.sqrt(1.09), 0.3, 0.0, 0.0])
    leg = integrate_geodesic(st, Event(decay), u, 0.5)
    assert isinstance(leg.meta["n_steps"], int) and leg.meta["n_steps"] > 0
    assert isinstance(leg.meta["n_rejected"], int)
    assert isinstance(leg.meta["n_rhs"], int) and leg.meta["n_rhs"] > 0
    assert leg.n_samples == leg.tau.shape[0]

    seg, shot = solve_bvp(st, Event(decay), leg.end, tau_hint=0.5)
    assert seg is not None and shot.converged is True
    assert isinstance(shot.iterations, int) and shot.iterations >= 0

    bundle = sample_bundle(leg, 0.05, 3, 0)
    assert bundle.n_paths == 3
    assert bundle.meta["resample_rounds"] == 0


def test_traced_functions_take_what_the_hooks_read_where_they_read_it():
    # the point-counting hooks read args[1] as a batch of points (of paths for
    # the polygon transport), the cache hooks args[0].cache; a dropped or
    # reordered parameter would make them count zero or the wrong thing
    import inspect

    from eprgeo import Event, integrate_geodesic, make_spacetime
    from eprgeo.frames import frame_field, spin_connection
    from eprgeo.transport import polygon_spinor_transport, spinor_propagator, world_propagator

    st = make_spacetime("schwarzschild", {"M": 1.0})
    xs = np.array([[0.0, 8.0, 1.2, 0.1], [0.5, 9.0, 1.4, -0.3], [1.0, 10.0, 1.6, 0.2]])
    knots = xs + np.linspace(0.0, 0.3, 5)[:, None, None]  # 5 paths of 3 knots
    batches = [
        (spin_connection, (st, xs, np.ones_like(xs)), 3),
        (frame_field, (st, xs), 3),
        (polygon_spinor_transport, (st, knots), 5),
    ]
    for fn, args, count in batches:
        second = list(inspect.signature(fn).parameters.values())[1]
        assert second.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, fn.__name__
        assert fn(*args).shape[:-2] == (count,), fn.__name__

    decay = np.array([0.0, 12.0, np.pi / 2.0, 0.0])
    u = frame_field(st, decay) @ np.array([np.sqrt(1.09), 0.3, 0.0, 0.0])
    leg = integrate_geodesic(st, Event(decay), u, 0.5)
    for propagator in (world_propagator, spinor_propagator):
        first = next(iter(inspect.signature(propagator).parameters.values()))
        assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, propagator.__name__
        cached = len(leg.cache)
        propagator(leg)
        assert len(leg.cache) > cached, propagator.__name__
