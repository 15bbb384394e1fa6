"""The written-out Dormand-Prince march against its comprehension form.

``march_oracle.comprehension_march`` is the step with each stage as one list
comprehension.  ``geodesic._march`` must reproduce it bit for bit: every
node (``ys.tobytes()``), the (steps, rejected, RHS) counts, and for a march
that raises, the exception's type, counts and last state.  The marches come
from the shooting stress set (trials and full-grid re-integrations), from
hand-made starts that leave the chart or underflow their step, from the
legs of the demo scenarios and from one whole r = 10 circular orbit.
``_march`` takes the node array; the oracle takes its ``tolist()``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from march_oracle import comprehension_march
from eprgeo import Event, geodesic, integrate_orbit, make_spacetime, parse_scenario, run_scenario
from eprgeo.errors import DomainExitError, IntegrationError
from eprgeo.geodesic import DEFAULT_TOL, _march, solve_bvp

HERE = Path(__file__).resolve().parent
STRESS_SET = HERE / "golden" / "shooting_stress_set.json"
SCENARIOS = sorted((HERE.parent / "demos" / "scenarios").glob("*.cfg"))


def outcome(march, st, start, grid, tol):
    """(ys bytes, counts, None) of a march that returns, (ys bytes, counts, exc) of one that raises.

    grid is what ``march`` takes: the node array or, for the oracle, its list.
    """
    ys = np.zeros((len(grid), 8))
    ys[0] = start
    try:
        counts = march(st, ys, grid, tol)
    except IntegrationError as exc:
        return ys.tobytes(), exc.counts, exc
    return ys.tobytes(), counts, None


def assert_same_march(st, start, grid, tol):
    """Run both marches from one start over the node array grid; returns the
    exception both raised, or None."""
    assert isinstance(grid, np.ndarray)
    nodes, counts, exc = outcome(_march, st, start, grid, tol)
    want_nodes, want_counts, want_exc = outcome(comprehension_march, st, start, grid.tolist(), tol)
    assert counts == want_counts
    assert nodes == want_nodes
    assert type(exc) is type(want_exc)
    if isinstance(exc, DomainExitError):
        assert exc.tau == want_exc.tau
        assert exc.coords.tobytes() == want_exc.coords.tobytes()
        assert exc.velocity.tobytes() == want_exc.velocity.tobytes()
    return exc


@pytest.fixture
def checked_marches(monkeypatch):
    """Patch geodesic._march so that every march is first checked against the
    oracle; returns the list of the checked marches' exceptions (None for
    one that returned)."""
    checked = []

    def checking_march(st, ys, grid, tol):
        checked.append(assert_same_march(st, ys[0].copy(), grid, tol))
        return _march(st, ys, grid, tol)

    monkeypatch.setattr(geodesic, "_march", checking_march)
    return checked


def test_stress_set_marches_match_the_oracle(checked_marches):
    """Every eighth stress-set shot: all its trials, raising ones included,
    and its full-grid re-integration."""
    shots = json.loads(STRESS_SET.read_text())[::8]
    assert {shot["spacetime"] for shot in shots} == {"schwarzschild", "weak_field", "minkowski"}
    for shot in shots:
        st = make_spacetime(shot["spacetime"], shot["params"])
        origin, target = Event(np.array(shot["origin"])), Event(np.array(shot["target"]))
        _, rep = solve_bvp(st, origin, target, tau_hint=shot["tau_hint"])
        assert rep.converged, (shot["draw"], rep.message)
    assert len(shots) >= 30
    assert any(isinstance(exc, DomainExitError) for exc in checked_marches)
    assert checked_marches.count(None) > len(shots)


SCHWARZSCHILD = ("schwarzschild", {"M": 1.0})
WEAK_FIELD = ("weak_field", {"epsilon": 0.1, "softening": 0.5})


@pytest.mark.parametrize(
    "spacetime, start, expected",
    [
        # aimed straight at the hole (the march needs no normalized start)
        pytest.param(SCHWARZSCHILD, [0.0, 4.0, np.pi / 2, 0.0, 2.0, -3.0, 0.0, 0.0], DomainExitError,
                     id="into-the-hole"),
        # far beyond any physical velocity the error estimate never falls
        # below one: step underflow
        pytest.param(SCHWARZSCHILD, [0.0, 10.0, 1.2, 0.0, 1e12, 0.0, 1e11, 1e11], IntegrationError,
                     id="schwarzschild-underflow"),
        pytest.param(WEAK_FIELD, [0.0, 0.01, 0.0, 0.0, 1e12, -1e12, 1e3, 0.0], IntegrationError,
                     id="weak-field-underflow"),
        # stage states overflow or raise in the closed form: step underflow
        pytest.param(SCHWARZSCHILD, [0.0, 10.0, 1.2, 0.0, 1e150, 0.0, 1e150, 1e150], IntegrationError,
                     id="non-finite-stages"),
    ],
)
@pytest.mark.parametrize("n_samples", [2, 51])
def test_raising_marches_match_the_oracle(spacetime, start, expected, n_samples):
    st = make_spacetime(*spacetime)
    exc = assert_same_march(st, np.array(start), np.linspace(0.0, 1.0, n_samples), DEFAULT_TOL)
    assert type(exc) is expected


@pytest.mark.parametrize("cfg", SCENARIOS, ids=lambda p: p.stem)
def test_demo_scenario_legs_match_the_oracle(cfg, checked_marches):
    report = run_scenario(parse_scenario(cfg.read_text()))
    assert not report.has_failures
    assert None in checked_marches


def test_long_orbit_march_matches_the_oracle(checked_marches):
    """The r = 10 circular orbit: 8,313 nodes filled from 7 long steps."""
    seg = integrate_orbit(make_spacetime(*SCHWARZSCHILD), 10.0)
    assert checked_marches == [None]
    assert seg.n_samples == 8313
    assert seg.meta["n_steps"] == 7
