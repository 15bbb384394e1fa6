"""Geodesic integration and two-point shooting.

Flat-space straight lines and the conserved quantities of Schwarzschild
orbits serve as oracles.  The unrolled float step is checked against an
array-based Dormand-Prince loop kept here as a reference integrator, whose
fixed-step mode checks the convergence order by step doubling and gives a
fine-grid reference for the dense output.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import reverse
from eprgeo import (
    DomainExitError,
    Event,
    geodesic,
    integrate_geodesic,
    make_spacetime,
    parse_scenario,
    run_scenario,
)
from eprgeo.errors import IntegrationError, UsageError
from eprgeo.geodesic import (
    DEFAULT_SAMPLE_STEP,
    DEFAULT_TOL,
    DENSE_TOL,
    MAX_LEG_SAMPLES,
    GeodesicSegment,
    _DENSE_P,
    _march,
    point_segment,
    samples_for,
    solve_bvp,
)

GOLDEN = Path(__file__).parent / "golden"


def stress_shots():
    """The committed shooting stress set; see TestStressSet for its recipe."""
    return json.loads((GOLDEN / "shooting_stress_set.json").read_text())


def stress_shot(draw):
    """(spacetime, origin, target, tau_hint) of one stress-set draw."""
    shot = next(shot for shot in stress_shots() if shot["draw"] == draw)
    st = make_spacetime(shot["spacetime"], shot["params"])
    return st, Event(np.array(shot["origin"])), Event(np.array(shot["target"])), shot["tau_hint"]


def tangent_norms(st, seg):
    g = st.metric(seg.events)
    return np.einsum("ki,ki,ki->k", seg.tangents, g, seg.tangents)


def record_marches(monkeypatch, st, target):
    """Patch _march to record [grid length, tol, endpoint miss] per call.

    The miss is the wrapped chart distance from the march's last node to the
    target, or None for a march that raised.
    """
    march = geodesic._march
    calls = []

    def recording_march(st_, ys, grid, tol):
        calls.append([len(grid), tol, None])
        counts = march(st_, ys, grid, tol)
        calls[-1][2] = float(np.linalg.norm(geodesic._wrap_residual(st, ys[-1, :4] - target.coords)))
        return counts

    monkeypatch.setattr(geodesic, "_march", recording_march)
    return calls


def replay_trial_tolerances(calls, integration_tol):
    """Walk solve_bvp's trials in order and check the tolerance of each.

    The first shot is marched at max(integration_tol, 1e-6) and a full-step
    trial from an iterate with residual r at max(integration_tol, min(1e-6,
    1e-4 |r|)).  A full step that does not lower |r| is followed, all at
    integration_tol, by a re-march of r when r was marched looser, the four
    finite-difference columns and the line search up to its first try that
    lowers |r|.  Full-grid marches use integration_tol.  Holds while every
    full step marches (one to tau < 1e-8 starts none) and no full-grid miss
    offsets the residuals.  Returns the number of re-marches.
    """
    trials = [(tol, miss) for n, tol, miss in calls if n == 2]
    tol, r = trials[0]
    assert tol == max(integration_tol, 1.0e-6)
    r_tol, k, remarches = tol, 1, 0
    while k < len(trials):
        tol, miss = trials[k]
        k += 1
        assert tol == max(integration_tol, min(1.0e-6, 1.0e-4 * r)), k - 1
        if miss is not None and miss < r:
            r, r_tol = miss, tol
            continue
        if r_tol > integration_tol:
            tol, r = trials[k]
            k += 1
            remarches += 1
            assert tol == integration_tol
        assert [tol for tol, _ in trials[k : k + 4]] == [integration_tol] * 4
        k += 4
        while k < len(trials):
            tol, miss = trials[k]
            k += 1
            assert tol == integration_tol
            if miss is not None and miss < r:
                r, r_tol = miss, tol
                break
    assert [tol for n, tol, _ in calls if n > 2] == [integration_tol] * sum(n > 2 for n, _, _ in calls)
    return remarches


# The reference integrator: the same Dormand-Prince 5(4) pair, step control
# and dense output as integrate_geodesic, written on NumPy arrays with the
# Butcher table as matrices.  Last row of A equals the 5th-order weights
# (FSAL); the equation is autonomous, so the nodes c_i never enter.
_DP_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4
# continuous extension: b_i(theta) = sum_j _DP_P[i, j] theta^(j+1)
_DP_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


def _dense_weights(theta):
    """Continuous-extension weights b(theta), shape (len(theta), 7)."""
    return np.power.outer(theta, np.arange(1, 5)) @ _DP_P.T


def reference_integration(st, event0, u0, tau_end, *, tol=DEFAULT_TOL, n_samples=None, adaptive=True):
    """Samples (n_samples, 8) and step counts from the array-based step loop.

    u0 is normalized as integrate_geodesic does, and a grid with interior
    nodes is marched at min(tol, DENSE_TOL) as _march does; there is no
    norm-drift check.
    """
    u0 = np.asarray(u0, dtype=float)
    u0 = u0 / np.sqrt(-(u0 @ np.diag(st.metric(event0.coords)) @ u0))
    n_samples = samples_for(tau_end) if n_samples is None else n_samples
    nodes = np.linspace(0.0, tau_end, n_samples)
    if n_samples > 2:
        tol = min(tol, DENSE_TOL)
    rtol, atol = tol, tol * 1.0e-2
    h_min = 1.0e-12 * max(1.0, tau_end)
    at_node = 1.0e-14 * tau_end
    ys = np.empty((n_samples, 8))
    ys[0] = np.concatenate([event0.coords, u0])

    def rhs(y):
        return np.array(st.geodesic_rhs(y.tolist()))

    y = ys[0].copy()
    k1 = rhs(y)
    h, t, i = nodes[1], 0.0, 1
    n_steps = n_rejected = 0
    n_rhs = 1
    stages = np.empty((7, 8))
    while i < n_samples:
        if adaptive:
            h_limit = tau_end - t
            if h < h_min and h < h_limit:
                raise IntegrationError(f"step size underflow at tau={t:.6g}")
            h = min(h, h_limit)
        else:
            h = nodes[i] - t
        stages[0] = k1
        ok = True
        with np.errstate(all="ignore"):
            for j in range(1, 7):
                n_rhs += 1
                try:
                    stages[j] = rhs(y + h * (_DP_A[j] @ stages[:j]))
                except (ArithmeticError, ValueError):
                    stages[j:] = np.nan
                    break
            y_new = y + h * (_DP_B5 @ stages)
            err = h * (_DP_E @ stages)
        if not np.all(np.isfinite(y_new)):
            ok = False
        elif not bool(st.in_chart(y_new[:4])):
            if adaptive and h > 4.0 * h_min:
                h *= 0.5
                n_rejected += 1
                continue
            raise DomainExitError("chart exit", tau=t, coords=y[:4].copy(), velocity=y[4:].copy())
        if adaptive:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            with np.errstate(all="ignore"):
                enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
            if not ok or not np.isfinite(enorm) or enorm > 1.0:
                h *= max(0.2, 0.9 * (enorm + 1.0e-16) ** -0.2) if np.isfinite(enorm) else 0.5
                n_rejected += 1
                continue
            grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm**-0.2))
        else:
            if not ok:
                raise IntegrationError(f"non-finite state at tau={t:.6g}")
            grow = 1.0
        t_new = t + h
        inner = i
        while inner < n_samples and nodes[inner] < t_new - at_node:
            inner += 1
        if inner > i:
            ys[i:inner] = y + h * (_dense_weights((nodes[i:inner] - t) / h) @ stages)
            i = inner
        if i < n_samples and nodes[i] - t_new <= at_node:
            ys[i] = y_new
            t_new = nodes[i]
            i += 1
        t = t_new
        y = y_new
        k1 = stages[6].copy()  # a view would be overwritten by a rejected retry
        h *= grow
        n_steps += 1
    return ys, {"n_steps": n_steps, "n_rejected": n_rejected, "n_rhs": n_rhs}


class TestSamples:
    def test_samples_for_counts(self):
        assert samples_for(1.0, 0.02) == 51
        assert samples_for(0.0) == 2  # a segment needs both ends even when short
        assert samples_for(0.001, 0.02) == 2

    def test_grid_is_exactly_uniform(self, minkowski):
        seg = integrate_geodesic(
            minkowski,
            Event(np.zeros(4)),
            np.array([1.0, 0.0, 0.0, 0.0]),
            1.7,
            n_samples=18,
        )
        assert seg.tau[0] == 0.0
        assert seg.tau[-1] == 1.7
        dtau = np.diff(seg.tau)
        assert np.max(np.abs(dtau - dtau[0])) < 1e-15


class TestMinkowski:
    def test_straight_line(self, minkowski):
        w = np.array([0.3, -0.1, 0.2])
        u = np.concatenate(([np.sqrt(1 + w @ w)], w))
        seg = integrate_geodesic(minkowski, Event(np.zeros(4)), u, 2.0)
        expected = seg.tau[:, None] * u[None, :]
        assert np.max(np.abs(seg.events - expected)) < 1e-12
        assert np.max(np.abs(seg.tangents - u[None, :])) < 1e-12

    def test_norm_is_minus_one(self, minkowski):
        u = np.array([np.sqrt(2.0), 1.0, 0.0, 0.0])
        seg = integrate_geodesic(minkowski, Event(np.zeros(4)), u, 3.0)
        assert np.max(np.abs(tangent_norms(minkowski, seg) + 1.0)) < 1e-12

    def test_tangent_renormalized_by_default(self, minkowski):
        # slightly off-shell input is projected back to unit norm
        u = np.array([1.0, 0.1, 0.0, 0.0]) * 1.01
        seg = integrate_geodesic(minkowski, Event(np.zeros(4)), u, 1.0)
        assert tangent_norms(minkowski, seg)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_tiny_leg_is_not_an_underflow(self, minkowski):
        # the step may be shorter than h_min when the grid interval itself is
        u = np.array([1.25, 0.75, 0.0, 0.0])
        seg = integrate_geodesic(minkowski, Event(np.zeros(4)), u, 1e-30)
        assert seg.n_samples == 2
        assert seg.proper_time == 1e-30
        assert np.allclose(seg.events[-1], 1e-30 * u, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "u, tau",
        [
            ([0.1, 1.0, 0.0, 0.0], 1.0),
            ([-1.25, 0.75, 0.0, 0.0], 1.0),
            ([1.25, 0.75, 0.0, 0.0], -1.0),
            ([1.25, 0.75, 0.0, 0.0], np.inf),
            ([1.25, 0.75, 0.0, 0.0], np.nan),
        ],
        ids=["spacelike", "past-directed", "negative-tau", "inf-tau", "nan-tau"],
    )
    def test_invalid_start_rejected(self, minkowski, u, tau):
        with pytest.raises(UsageError):
            integrate_geodesic(minkowski, Event(np.zeros(4)), np.array(u), tau)


class TestSchwarzschild:
    def test_circular_orbit_stays_circular(self, schwarzschild):
        from eprgeo import circular_orbit_tangent, orbit_period

        e0, u0 = circular_orbit_tangent(schwarzschild, 10.0)
        tau = orbit_period(schwarzschild, 10.0)
        seg = integrate_geodesic(
            schwarzschild, e0, u0, tau, n_samples=samples_for(tau)
        )
        assert np.max(np.abs(seg.events[:, 1] - 10.0)) < 1e-6
        # full revolution advances the (unwrapped) azimuth by exactly 2 pi
        assert seg.events[-1, 3] == pytest.approx(2 * np.pi, abs=1e-6)
        # steps are set by the error estimate, not one per sample
        assert seg.meta["n_steps"] < seg.n_samples / 3

    def test_conserved_energy_and_angular_momentum(self, schwarzschild, static_tangent):
        coords = np.array([0.0, 9.0, np.pi / 2, 0.3])
        u0 = static_tangent(schwarzschild, coords, [0.25, 0.0, 0.35])
        seg = integrate_geodesic(schwarzschild, Event(coords), u0, 4.0)
        g = schwarzschild.metric(seg.events)
        energy = -(g[:, 0] * seg.tangents[:, 0])
        angmom = g[:, 3] * seg.tangents[:, 3]
        assert np.max(np.abs(energy - energy[0])) < 1e-9
        assert np.max(np.abs(angmom - angmom[0])) < 1e-9

    def test_norm_drift_small(self, battery, schwarzschild):
        worst = max(
            float(np.max(np.abs(tangent_norms(schwarzschild, seg) + 1.0)))
            for seg in battery[:20]
        )
        assert worst < 1e-9

    def test_fixed_step_convergence_order(self, schwarzschild, static_tangent):
        """Halving the step shrinks the endpoint error by about 2^5.

        Needs a strongly curved, fast trajectory; milder ones are already
        at the rounding floor for any reasonable step.
        """
        coords = np.array([0.0, 4.5, np.pi / 2, 0.0])
        u0 = static_tangent(schwarzschild, coords, [0.9, 0.0, 1.2])
        tau = 3.0

        def endpoint(n):
            ys, _ = reference_integration(
                schwarzschild, Event(coords), u0, tau, n_samples=n, adaptive=False
            )
            return ys[-1, :4]

        ref = endpoint(3001)
        e1 = np.linalg.norm(endpoint(13) - ref)
        e2 = np.linalg.norm(endpoint(25) - ref)
        assert e1 / e2 > 16.0

    def test_domain_exit_reports_last_state(self, schwarzschild, static_tangent):
        # aimed straight at the hole
        coords = np.array([0.0, 4.0, np.pi / 2, 0.0])
        u0 = static_tangent(schwarzschild, coords, [-3.0, 0.0, 0.0])
        with pytest.raises(DomainExitError) as err:
            integrate_geodesic(schwarzschild, Event(coords), u0, 10.0)
        exc = err.value
        assert 0.0 < exc.tau < 10.0
        assert schwarzschild.in_chart(exc.coords)
        assert exc.velocity.shape == (4,)

    def test_backward_integration(self, schwarzschild, static_tangent):
        # the static metric is invariant under t -> -t, so the time-reversed
        # geodesic (u^t, -u^i) from the end retraces the spatial path
        coords = np.array([0.0, 11.0, 1.4, 0.2])
        u0 = static_tangent(schwarzschild, coords, [0.2, -0.1, 0.3])
        fwd = integrate_geodesic(schwarzschild, Event(coords), u0, 1.5)
        u_back = fwd.tangents[-1] * np.array([1.0, -1.0, -1.0, -1.0])
        back = integrate_geodesic(schwarzschild, fwd.end, u_back, 1.5)
        assert np.max(np.abs(back.events[-1, 1:] - coords[1:])) < 1e-8
        assert back.events[-1, 0] == pytest.approx(2.0 * fwd.events[-1, 0], abs=1e-8)


@pytest.fixture
def eccentric(schwarzschild):
    # a circular orbit's state is linear in t and phi, so any step is
    # accepted; this perturbed one makes the error control work
    from eprgeo import circular_orbit_tangent

    e0, u0 = circular_orbit_tangent(schwarzschild, 10.0)
    return e0, np.array([1.05 * u0[0], 0.08, 0.0, 0.95 * u0[3]])


class TestDenseOutput:
    def test_weights_at_step_end_are_fifth_order_weights(self):
        # the weights of the stages k1, k3, ..., k7 at theta
        def b(theta):
            return _DENSE_P @ theta ** np.arange(1, 5)

        assert np.max(np.abs(b(1.0) - _DP_B5[[0, 2, 3, 4, 5, 6]])) < 1e-14
        assert _DP_B5[1] == 0.0
        assert np.array_equal(b(0.0), np.zeros(6))
        # the same polynomials as the reference integrator's table
        for theta in (0.25, 0.5, 0.9):
            ref = _dense_weights(np.array([theta]))[0, [0, 2, 3, 4, 5, 6]]
            assert np.max(np.abs(b(theta) - ref)) < 1e-14

    def test_two_sample_leg_marches_at_tol_like_a_trial(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0, n_samples=2)
        ys = np.empty((2, 8))
        ys[0] = np.concatenate([seg.events[0], seg.tangents[0]])
        counts = _march(schwarzschild, ys, np.array([0.0, 20.0]), DEFAULT_TOL)
        assert counts == (seg.meta["n_steps"], seg.meta["n_rejected"], seg.meta["n_rhs"])
        assert np.array_equal(ys[1, :4], seg.events[-1])
        assert np.array_equal(ys[1, 4:], seg.tangents[-1])
        # not tightened to DENSE_TOL, which takes more steps
        assert _march(schwarzschild, ys.copy(), np.array([0.0, 20.0]), DENSE_TOL)[0] > counts[0]

    def test_sampled_leg_marches_at_dense_tol(self, schwarzschild, eccentric):
        loose = integrate_geodesic(schwarzschild, *eccentric, 20.0, tol=1e-10)
        tight = integrate_geodesic(schwarzschild, *eccentric, 20.0, tol=DENSE_TOL)
        assert loose.n_samples > 2
        assert np.array_equal(loose.events, tight.events)
        assert np.array_equal(loose.tangents, tight.tangents)
        for key in ("n_steps", "n_rejected", "n_rhs"):
            assert loose.meta[key] == tight.meta[key], key

    def test_circular_orbit_takes_few_steps_and_both_routes_hold(self, schwarzschild):
        from eprgeo import (
            geodetic_angle_exact,
            integrate_orbit,
            rest_frame_holonomy_angle,
            spinor_holonomy_angle,
        )

        # a circular orbit is linear in t and phi, so the error estimate
        # accepts long steps; nothing else limits them
        seg = integrate_orbit(schwarzschild, 10.0)
        assert seg.meta["n_steps"] <= 10
        exact = geodetic_angle_exact(schwarzschild, 10.0)
        assert abs(rest_frame_holonomy_angle(seg)[0] - exact) < 1e-12
        assert abs(spinor_holonomy_angle(seg) - exact) < 1e-12

    def test_steps_are_not_locked_to_samples(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        assert seg.n_samples == 1001
        assert seg.meta["n_steps"] <= 260

    def test_samples_match_fine_fixed_step_reference(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        n_fine = 10 * (seg.n_samples - 1) + 1
        ref, _ = reference_integration(schwarzschild, *eccentric, 20.0, n_samples=n_fine, adaptive=False)
        assert np.max(np.abs(seg.events - ref[::10, :4])) < 1e-12
        assert np.max(np.abs(seg.tangents - ref[::10, 4:])) < 1e-12


def christoffel_rhs(self, y):
    """The oracle right-hand side: the full Christoffel array contracted with u."""
    y = np.asarray(y, dtype=float)
    out = np.empty(8)
    out[:4] = y[4:]
    out[4:] = -np.einsum("lmn,m,n->l", self.christoffel(y[:4]), y[4:], y[4:])
    return tuple(out.tolist())


class TestReferenceIntegrator:
    def test_orbit_matches_the_array_step(self, schwarzschild):
        from eprgeo import circular_orbit_tangent, integrate_orbit, orbit_period

        seg = integrate_orbit(schwarzschild, 10.0)
        e0, u0 = circular_orbit_tangent(schwarzschild, 10.0)
        tau = orbit_period(schwarzschild, 10.0)
        ys, meta = reference_integration(schwarzschild, e0, u0, tau, n_samples=seg.n_samples)
        for key in ("n_steps", "n_rejected", "n_rhs"):
            assert seg.meta[key] == meta[key], key
        assert np.max(np.abs(seg.events - ys[:, :4])) < 1e-12
        assert np.max(np.abs(seg.tangents - ys[:, 4:])) < 1e-12

    def test_eccentric_leg_matches_the_array_step(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        ys, meta = reference_integration(schwarzschild, *eccentric, 20.0)
        for key in ("n_steps", "n_rejected", "n_rhs"):
            assert seg.meta[key] == meta[key], key
        assert np.max(np.abs(seg.events - ys[:, :4])) < 1e-12
        assert np.max(np.abs(seg.tangents - ys[:, 4:])) < 1e-12

    def test_rejected_steps_restart_from_the_accepted_state(self):
        # a weak-field leg at tol 1e-12 (a perfbench pairs text) that rejects
        # steps after accepted ones; the retry must start from f(y) at the
        # last accepted state, not from the rejected attempt's last stage.
        # Two samples keep tol 1e-12: sampled at DENSE_TOL it rejects none
        st = make_spacetime("weak_field", {"epsilon": 0.041302900715759386})
        event = Event(np.array([0.0, -2.472388764610322, 2.176695677852085, 0.3370811967435828]))
        u = np.array([1.1792197536205513, 0.4439610994241759, -0.26748467595612124, -0.2834883146644227])
        tau = 4.761677710978574
        seg = integrate_geodesic(st, event, u, tau, tol=1e-12, n_samples=2)
        ys, meta = reference_integration(st, event, u, tau, tol=1e-12, n_samples=2)
        assert (seg.meta["n_steps"], seg.meta["n_rejected"]) == (59, 4)
        for key in ("n_steps", "n_rejected", "n_rhs"):
            assert seg.meta[key] == meta[key], key
        assert np.max(np.abs(seg.events - ys[:, :4])) < 1e-12
        assert np.max(np.abs(seg.tangents - ys[:, 4:])) < 1e-12

    def test_eccentric_leg_step_counts(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        assert seg.meta["n_steps"] == 67
        assert seg.meta["n_rhs"] == 403


class TestRightHandSide:
    def test_no_christoffel_call_and_every_rhs_call_counted(self, schwarzschild, eccentric, monkeypatch):
        cls = type(schwarzschild)
        calls = {"christoffel": 0, "geodesic_rhs": 0}
        christoffel, rhs = cls.christoffel, cls.geodesic_rhs

        def counting_christoffel(self, x):
            calls["christoffel"] += 1
            return christoffel(self, x)

        def counting_rhs(self, y):
            calls["geodesic_rhs"] += 1
            return rhs(self, y)

        monkeypatch.setattr(cls, "christoffel", counting_christoffel)
        monkeypatch.setattr(cls, "geodesic_rhs", counting_rhs)
        # two samples let the first steps overshoot, so some are rejected
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0, n_samples=2)
        assert calls["christoffel"] == 0
        assert seg.meta["n_rejected"] > 0
        assert seg.meta["n_rhs"] == calls["geodesic_rhs"]
        assert seg.meta["n_rhs"] == 1 + 6 * (seg.meta["n_steps"] + seg.meta["n_rejected"])

    def test_orbit_is_bitwise_the_christoffel_oracle_run(self, schwarzschild, monkeypatch):
        from eprgeo import integrate_orbit

        seg = integrate_orbit(schwarzschild, 10.0)
        monkeypatch.setattr(type(schwarzschild), "geodesic_rhs", christoffel_rhs)
        ref = integrate_orbit(schwarzschild, 10.0)
        assert seg.meta["n_steps"] == ref.meta["n_steps"]
        assert np.array_equal(seg.events, ref.events)
        assert np.array_equal(seg.tangents, ref.tangents)

    def test_eccentric_leg_matches_the_christoffel_oracle_run(self, schwarzschild, eccentric, monkeypatch):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        monkeypatch.setattr(type(schwarzschild), "geodesic_rhs", christoffel_rhs)
        ref = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        assert np.max(np.abs(seg.events - ref.events)) < 1e-12
        assert np.max(np.abs(seg.tangents - ref.tangents)) < 1e-12

    def test_stage_the_closed_form_cannot_evaluate_is_a_non_finite_step(
        self, schwarzschild, eccentric, monkeypatch
    ):
        cls = type(schwarzschild)
        rhs = cls.geodesic_rhs
        calls = []

        def singular_once(self, y):
            calls.append(None)
            if len(calls) == 2:  # the first step's second stage
                raise ZeroDivisionError("float division by zero")
            return rhs(self, y)

        monkeypatch.setattr(cls, "geodesic_rhs", singular_once)
        seg = integrate_geodesic(schwarzschild, *eccentric, 1.0)
        assert seg.meta["n_rejected"] == 1
        # the raising call counts; the step's later stages are never evaluated
        assert seg.meta["n_rhs"] == len(calls) == 1 + 6 * (seg.meta["n_steps"] + 1) - 5


class TestReverse:
    def test_reverse_swaps_ends_and_negates_tangents(self, schwarzschild, battery):
        seg = battery[0]
        rev = reverse(seg)
        assert np.allclose(rev.events[0], seg.events[-1])
        assert np.allclose(rev.events[-1], seg.events[0])
        assert np.allclose(rev.tangents, -seg.tangents[::-1])
        assert rev.proper_time == pytest.approx(seg.proper_time)
        assert np.allclose(reverse(rev).events, seg.events)

    def test_point_segment(self, minkowski):
        seg = point_segment(minkowski, Event(np.zeros(4)))
        assert seg.zero_length
        assert seg.n_samples == 1


class TestShooting:
    def test_minkowski_straight_line_recovered(self, minkowski):
        origin = Event(np.zeros(4))
        w = np.array([0.4, -0.2, 0.1])
        u = np.concatenate(([np.sqrt(1 + w @ w)], w))
        tau = 1.8
        target = Event(tau * u)
        seg, rep = solve_bvp(minkowski, origin, target)
        assert rep.converged
        assert rep.residual < 1e-9
        assert seg is not None
        assert np.max(np.abs(seg.end.coords - target.coords)) < 1e-8
        assert np.max(np.abs(seg.tangents[0] - u)) < 1e-6
        assert rep.proper_time == pytest.approx(tau, abs=1e-6)

    def test_schwarzschild_round_trip(self, schwarzschild, static_tangent):
        coords = np.array([0.0, 12.0, np.pi / 2, 0.0])
        u0 = static_tangent(schwarzschild, coords, [0.3, 0.0, 0.25])
        fwd = integrate_geodesic(schwarzschild, Event(coords), u0, 2.5)
        seg, rep = solve_bvp(schwarzschild, Event(coords), fwd.end)
        assert rep.converged, rep.message
        assert rep.residual < 1e-9
        assert np.max(np.abs(seg.tangents[0] - u0)) < 1e-6
        assert rep.proper_time == pytest.approx(2.5, abs=1e-6)
        # the returned segment is integrated on the full sample grid
        assert seg.n_samples == samples_for(rep.proper_time, DEFAULT_SAMPLE_STEP)

    def test_round_trip_builds_no_finite_difference_jacobian(self, schwarzschild, static_tangent):
        # the chord Jacobian and its Broyden updates earn every full step
        coords = np.array([0.0, 12.0, np.pi / 2, 0.0])
        u0 = static_tangent(schwarzschild, coords, [0.3, 0.0, 0.25])
        fwd = integrate_geodesic(schwarzschild, Event(coords), u0, 2.5)
        seg, rep = solve_bvp(schwarzschild, Event(coords), fwd.end)
        assert rep.converged, rep.message
        assert rep.jacobian_rebuilds == 0
        assert rep.halvings == 0
        assert rep.trials == 1 + rep.iterations

    @pytest.mark.parametrize(
        "origin, target, tau_hint",
        [
            (
                (0.0, 6.301504247246516, 1.9351962441549615, -1.308465488113783),
                (15.237364861764693, 7.019458700807751, 2.6627882165850383, 1.3846281217910192),
                6.708740993736618,
            ),
            (
                (0.0, 7.127377649948547, 1.3761476193170707, 0.0809636479686402),
                (20.13589788689964, 7.69034677797379, 2.8871446791246402, -2.3325365112271372),
                11.70272760184875,
            ),
        ],
        ids=["stall", "creep"],
    )
    def test_strong_field_shot_converges(self, schwarzschild, origin, target, tau_hint):
        # strong-field shots near r = 6M whose Broyden iterates go astray:
        # rebuilding J only once a damped search on an updated J stalls ends
        # the first in a stalled search and leaves the second creeping at
        # |r| ~ 1.7e-6 until the iteration cap; rebuilding whenever the full
        # step fails converges both
        origin, target = Event(np.array(origin)), Event(np.array(target))
        seg, rep = solve_bvp(schwarzschild, origin, target, tau_hint=tau_hint)
        assert rep.converged, rep.message
        assert rep.residual < 1e-9
        assert rep.jacobian_rebuilds > 0
        assert np.linalg.norm(seg.end.coords - target.coords) < 1e-9

    def test_coincident_target_gives_point_segment(self, schwarzschild):
        origin = Event(np.array([0.0, 10.0, 1.2, 0.4]))
        seg, rep = solve_bvp(schwarzschild, origin, origin)
        assert rep.converged
        assert seg.zero_length
        assert rep.proper_time == 0.0

    def test_spacelike_target_fails_honestly(self, schwarzschild):
        origin = Event(np.array([0.0, 12.0, np.pi / 2, 0.0]))
        target = Event(np.array([0.05, 25.0, np.pi / 2, 0.0]))
        seg, rep = solve_bvp(schwarzschild, origin, target)
        assert not rep.converged
        assert seg is None
        assert rep.message

    def test_stalled_shot_reports_accepted_updates(self, minkowski):
        # a spacelike target stalls the line search long before the cap
        target = Event(np.array([0.5, 3.0, 0.0, 0.0]))
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target)
        assert seg is None
        assert rep.message == "line search stalled"
        assert rep.iterations == 4
        # 22 halvings before the four accepted updates, 8 in the stalled search
        assert rep.halvings == 30
        # no full step lowers |r|, so every search runs on a rebuilt J
        assert rep.jacobian_rebuilds == 5

    def test_leg_over_sample_cap_is_not_converged(self, minkowski, monkeypatch):
        # the cap is checked before the converged shot is re-integrated
        u = np.array([1.25, 0.75, 0.0, 0.0])
        target = Event(2.0 * MAX_LEG_SAMPLES * DEFAULT_SAMPLE_STEP * u)
        calls = []
        monkeypatch.setattr(geodesic, "integrate_geodesic", lambda *args, **kwargs: calls.append(args))
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target)
        assert seg is None
        assert not rep.converged
        assert f"over {MAX_LEG_SAMPLES} samples" in rep.message
        assert rep.proper_time == pytest.approx(2.0 * MAX_LEG_SAMPLES * DEFAULT_SAMPLE_STEP)
        assert rep.trials > 0
        assert calls == [], "re-integrated a leg over the sample cap"

    def test_failed_reintegration_is_not_converged(self, minkowski, monkeypatch):
        def failing_dense_grid(*args, **kwargs):
            raise IntegrationError("step size underflow at tau=0.5")

        monkeypatch.setattr(geodesic, "integrate_geodesic", failing_dense_grid)
        u = np.array([1.25, 0.75, 0.0, 0.0])
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), Event(1.5 * u))
        assert seg is None
        assert not rep.converged
        assert "re-integration" in rep.message
        assert "step size underflow" in rep.message
        assert rep.proper_time == pytest.approx(1.5, abs=1e-9)

    def test_trials_march_the_core_and_only_the_result_is_integrated(self, schwarzschild, monkeypatch):
        march, integrate = geodesic._march, geodesic.integrate_geodesic
        core_grids, integrated = [], []

        def counting_march(st, ys, grid, tol):
            core_grids.append(len(grid))
            return march(st, ys, grid, tol)

        def counting_integrate(*args, **kwargs):
            integrated.append(kwargs["n_samples"])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(geodesic, "_march", counting_march)
        monkeypatch.setattr(geodesic, "integrate_geodesic", counting_integrate)
        coords = np.array([0.0, 12.0, np.pi / 2, 0.0])
        target = Event(np.array([2.5, 12.4, np.pi / 2, 0.15]))
        seg, rep = solve_bvp(schwarzschild, Event(coords), target)
        assert rep.converged, rep.message
        # one re-integration on the full grid; every other march is a trial
        assert integrated == [seg.n_samples]
        assert rep.trials == len(core_grids) - 1
        assert core_grids.count(2) == rep.trials
        # every update was a Broyden full step: one trial each, no FD column
        assert rep.jacobian_rebuilds == 0
        assert rep.trials == 1 + rep.iterations

    def test_trials_are_marched_at_a_tolerance_tied_to_the_residual(
        self, schwarzschild, static_tangent, monkeypatch
    ):
        coords = np.array([0.0, 12.0, np.pi / 2, 0.0])
        u0 = static_tangent(schwarzschild, coords, [0.3, 0.0, 0.25])
        target = integrate_geodesic(schwarzschild, Event(coords), u0, 2.5).end
        calls = record_marches(monkeypatch, schwarzschild, target)
        seg, rep = solve_bvp(schwarzschild, Event(coords), target)
        assert rep.converged, rep.message
        # every update a full step, each marched tighter as |r| falls
        assert replay_trial_tolerances(calls, DEFAULT_TOL) == 0
        tols = [tol for _, tol, _ in calls]
        assert tols[0] == tols[1] == 1.0e-6 > tols[2] > tols[3] > tols[4] > tols[5] == DEFAULT_TOL

    def test_failed_full_step_is_rebuilt_and_searched_at_integration_tol(self, monkeypatch):
        # a strong-field stress shot whose full steps fail three times, two of
        # them from an iterate marched at 1e-6: r is re-marched first
        st, origin, target, tau_hint = stress_shot(30)
        calls = record_marches(monkeypatch, st, target)
        seg, rep = solve_bvp(st, origin, target, tau_hint=tau_hint)
        assert rep.converged, rep.message
        assert (rep.jacobian_rebuilds, rep.halvings) == (3, 2)
        assert replay_trial_tolerances(calls, DEFAULT_TOL) == 2
        assert rep.trials == len(calls) - 1

    @pytest.mark.parametrize("draw", [None, 30], ids=["round-trip", "stress-30"])
    def test_no_trial_is_marched_tighter_than_a_loose_integration_tol(
        self, schwarzschild, static_tangent, monkeypatch, draw
    ):
        # above the 1e-6 cap integration_tol is the floor of every march
        if draw is None:
            st, origin, tau_hint = schwarzschild, Event(np.array([0.0, 12.0, np.pi / 2, 0.0])), None
            u0 = static_tangent(st, origin.coords, [0.3, 0.0, 0.25])
            target = integrate_geodesic(st, origin, u0, 2.5).end
        else:
            st, origin, target, tau_hint = stress_shot(draw)
        calls = record_marches(monkeypatch, st, target)
        seg, rep = solve_bvp(st, origin, target, tau_hint=tau_hint, integration_tol=1.0e-5)
        assert rep.converged, rep.message
        assert [tol for _, tol, _ in calls] == [1.0e-5] * len(calls)

    def test_nonpositive_integration_tol_is_refused_before_any_trial(self, minkowski, monkeypatch):
        monkeypatch.setattr(geodesic, "_march", None)  # a trial would fail on the call
        target = Event(1.5 * np.array([1.25, 0.75, 0.0, 0.0]))
        for tol in (0.0, -1e-10, np.nan):
            with pytest.raises(UsageError, match="integration_tol must be positive"):
                solve_bvp(minkowski, Event(np.zeros(4)), target, integration_tol=tol)

    @pytest.mark.parametrize(
        "step", [[np.nan] * 4, [0.0, 0.0, 0.0, np.inf], [np.inf, 0.0, 0.0, 0.0]], ids=["nan", "inf-tau", "inf-w"]
    )
    def test_non_finite_newton_step_is_a_failed_trial(self, minkowski, monkeypatch, step):
        # with tau = inf or nan the integrator's step never shrinks, and an
        # infinite w gives a launch of inf - inf: neither may reach the core
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array(step))
        target = Event(1.5 * np.array([1.25, 0.75, 0.0, 0.0]))
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target, tau_hint=2.0)
        assert seg is None
        assert rep.message == "line search stalled"
        assert (rep.iterations, rep.halvings) == (0, 8)
        # the first shot, its re-march at integration_tol (it was marched
        # at 1e-6, too loose for the finite differences) and the four
        # Jacobian columns; neither the chord Jacobian's full step nor the
        # search starts a trial
        assert rep.trials == 6
        assert rep.jacobian_rebuilds == 1
        # a first shot already marched at integration_tol is not re-marched
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target, tau_hint=2.0, integration_tol=1.0e-5)
        assert (rep.trials, rep.jacobian_rebuilds) == (5, 1)

    def test_failed_re_march_ends_the_shot(self, minkowski, monkeypatch):
        # the first shot passes at 1e-6, and its re-march at integration_tol
        # for the finite differences fails
        march = geodesic._march

        def loose_only(st, ys, grid, tol):
            if tol < 1.0e-6:
                raise IntegrationError("step size underflow at tau=0", (0, 0, 1))
            return march(st, ys, grid, tol)

        monkeypatch.setattr(geodesic, "_march", loose_only)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([np.nan] * 4))
        target = Event(1.5 * np.array([1.25, 0.75, 0.0, 0.0]))
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target, tau_hint=2.0)
        assert seg is None
        assert rep.message == "Jacobian evaluation left the chart"
        assert (rep.iterations, rep.trials, rep.jacobian_rebuilds) == (0, 2, 0)

    def test_full_grid_miss_is_shot_again(self, minkowski, monkeypatch):
        def biased_dense_grid(*args, **kwargs):
            seg = integrate_geodesic(*args, **kwargs)
            seg.events[-1, 1] += 1e-7
            return seg

        # the full-grid endpoint misses where the trial endpoint hits
        monkeypatch.setattr(geodesic, "integrate_geodesic", biased_dense_grid)
        target = Event(1.5 * np.array([1.25, 0.75, 0.0, 0.0]))
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target)
        assert rep.converged
        assert rep.residual < 1e-9
        assert np.linalg.norm(seg.events[-1] - target.coords) < 1e-9

    def test_drifting_trial_shots_are_judged_by_their_endpoint(self):
        # a weak-field shot whose endpoint-only trials drift past 1e-9 at the
        # default tol; they used to count as chart exits and stall the search
        text = """\
[spacetime]
kind = weak-field
epsilon = 0.03879305804351027
[decay]
event = 0.0, 3.6350800574033886, 1.7670133094009963, -0.6632276478289406
velocity = 1.038869454494549, 0.04261950623953841, 0.2283193139867537, 0.06610626015497796
[detector1]
tangent = 1.0356096783449693, 0.21095711808540632, 0.08534422797023826, -0.003416646869144258
tau = 3.8862895084766826
[detector2]
target = 5.785943441101714, 3.4790113494235118, -0.14433311751689543, 0.4473446789100271
tau_hint = 5.443491198575939
[measurements]
directions1 = -0.970029337767522, 0.12592502538998637, -0.2078123476861614 ; -0.6434479103212443, -0.6836527134554533, -0.34437443878461665
directions2 = -0.765823663723098, 0.11586263958964439, -0.632526651477273
[numerics]
gauge = boosted-static
tol = 1e-10
"""
        sc = parse_scenario(text)
        report = run_scenario(sc)
        assert not report.has_failures, [r.value for r in report.rows if r.quantity == "failure"]
        assert report.diagnostics_ok
        ref = run_scenario(parse_scenario(text.replace("tol = 1e-10", "tol = 1e-12")))
        assert not ref.has_failures
        values = {r.quantity: r.value for r in report.rows}
        ref_values = {r.quantity: r.value for r in ref.rows}
        assert values["geodesic2_proper_time"] == pytest.approx(
            ref_values["geodesic2_proper_time"], abs=sc.bvp_tol
        )
        # the returned segment ends on the target, not just the trial shot
        assert values["geodesic2_endpoint_residual"] < sc.bvp_tol

    def test_azimuth_wraps_through_branch_cut(self, schwarzschild, static_tangent):
        # target azimuth recorded on the other side of the +-pi seam
        coords = np.array([0.0, 12.0, np.pi / 2, 3.0])
        u0 = static_tangent(schwarzschild, coords, [0.0, 0.0, 0.45])
        fwd = integrate_geodesic(schwarzschild, Event(coords), u0, 2.0)
        end = fwd.end.coords.copy()
        end[3] = (end[3] + np.pi) % (2 * np.pi) - np.pi
        seg, rep = solve_bvp(schwarzschild, Event(coords), Event(end))
        assert rep.converged, rep.message
        assert rep.residual < 1e-9


# The work bound of the stress set: RHS evaluations over every march of its
# 285 solves that returns, trials and full-grid re-integrations alike.  A change that moves
# it records the old and the new value.  895,083 with every trial marched at
# integration_tol; 684,535 with trial tolerances tied to the residual.
STRESS_RHS_BOUND = 684_535
# The RHS evaluations of the stress set's marches that raise (a trial that
# leaves the chart or underflows its step), outside STRESS_RHS_BOUND.
STRESS_FAILED_RHS_BOUND = 18_740


class TestStressSet:
    def test_every_stress_shot_converges_within_the_rhs_budget(self, monkeypatch):
        """285 committed shots, the only data that tells shooting rules apart.

        ``golden/shooting_stress_set.json`` was generated once, so its inputs
        do not move with the integrator's last digits.  The recipe:
        ``rng = np.random.default_rng(7)``, 300 draws; draw i is Schwarzschild
        M = 1 for i % 3 == 0, the weak field for 1 and Minkowski for 2.  In
        this order it draws: Schwarzschild r ~ U[4, 8], theta = pi/2 +
        U[-0.6, 0.6], phi ~ U[-3, 3]; weak field epsilon ~ U[0.05, 0.1], then
        a direction ``rng.normal(size=3)``, normalized and scaled by |x| ~
        U[1, 4]; Minkowski x ~ U[-5, 5]^3; then for every kind t = 0, a
        static-frame w = normalized ``rng.normal(size=3)`` * U[0.1, 1.5],
        tau ~ U[1, 15] and tau_hint = tau * U[0.7, 1.3].  The target is the
        endpoint of ``integrate_geodesic(..., tol=1e-12, n_samples=2)`` from
        the static-frame launch; the 15 draws whose leg fails are skipped.
        Every shot is solved at solve_bvp's defaults with its tau_hint.
        """
        shots = stress_shots()
        assert len(shots) == 285
        march = geodesic._march
        rhs, failed_rhs = [], []

        def counting_march(st, ys, grid, tol):
            try:
                counts = march(st, ys, grid, tol)
            except IntegrationError as exc:
                failed_rhs.append(exc.counts[2])
                raise
            rhs.append(counts[2])
            return counts

        monkeypatch.setattr(geodesic, "_march", counting_march)
        failed, trials, rebuilds, worst = [], 0, 0, (0, -1)
        for shot in shots:
            st = make_spacetime(shot["spacetime"], shot["params"])
            origin, target = Event(np.array(shot["origin"])), Event(np.array(shot["target"]))
            seg, rep = solve_bvp(st, origin, target, tau_hint=shot["tau_hint"])
            if not rep.converged:
                failed.append((shot["draw"], rep.message))
            trials += rep.trials
            rebuilds += rep.jacobian_rebuilds
            worst = max(worst, (rep.trials, shot["draw"]))
        print(
            f"\nstress set: {len(shots) - len(failed)}/{len(shots)} converged, {trials} trials, "
            f"{rebuilds} FD rebuilds, {sum(rhs)} RHS evaluations (bound {STRESS_RHS_BOUND}), "
            f"{sum(failed_rhs)} more in {len(failed_rhs)} marches that raised "
            f"(bound {STRESS_FAILED_RHS_BOUND}); worst shot: draw {worst[1]}, {worst[0]} trials"
        )
        assert failed == []
        assert sum(rhs) <= STRESS_RHS_BOUND
        assert sum(failed_rhs) <= STRESS_FAILED_RHS_BOUND


def test_segment_accessors(minkowski):
    seg = integrate_geodesic(
        minkowski, Event(np.zeros(4)), np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    )
    assert isinstance(seg, GeodesicSegment)
    assert seg.start.coords[0] == 0.0
    assert seg.end.coords[0] == pytest.approx(1.0)
    assert seg.tangents[seg.n_samples - 1][0] == pytest.approx(1.0)
    assert np.array_equal(seg.tangents[0], [1.0, 0.0, 0.0, 0.0])
