"""Geodesic integration and two-point shooting.

Flat-space straight lines and the conserved quantities of Schwarzschild
orbits serve as oracles; convergence order is checked by step doubling in
fixed-step mode.
"""

import numpy as np
import pytest

from eprgeo import DomainExitError, Event, geodesic, integrate_geodesic, parse_scenario, run_scenario
from eprgeo.errors import IntegrationError, UsageError
from eprgeo.geodesic import (
    _DP_B5,
    DEFAULT_SAMPLE_STEP,
    MAX_LEG_SAMPLES,
    GeodesicSegment,
    _dense_weights,
    point_segment,
    reverse,
    samples_for,
    solve_bvp,
)


def tangent_norms(st, seg):
    g = st.metric(seg.events)
    return np.einsum("ki,kij,kj->k", seg.tangents, g, seg.tangents)


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
        # steps are set by tolerance and the step cap, not one per sample
        assert seg.meta["n_steps"] < seg.n_samples / 3

    def test_conserved_energy_and_angular_momentum(self, schwarzschild, static_tangent):
        coords = np.array([0.0, 9.0, np.pi / 2, 0.3])
        u0 = static_tangent(schwarzschild, coords, [0.25, 0.0, 0.35])
        seg = integrate_geodesic(schwarzschild, Event(coords), u0, 4.0)
        g = schwarzschild.metric(seg.events)
        energy = -np.einsum("kj,kj->k", g[:, 0, :], seg.tangents)
        angmom = np.einsum("kj,kj->k", g[:, 3, :], seg.tangents)
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
            seg = integrate_geodesic(
                schwarzschild,
                Event(coords),
                u0,
                tau,
                n_samples=n,
                adaptive=False,
            )
            return seg.events[-1]

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
        assert np.max(np.abs(_dense_weights(np.array([1.0]))[0] - _DP_B5)) < 1e-14
        assert np.array_equal(_dense_weights(np.array([0.0]))[0], np.zeros(7))

    def test_steps_are_not_locked_to_samples(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        assert seg.n_samples == 1001
        assert seg.meta["n_steps"] <= 260

    def test_samples_match_fine_fixed_step_reference(self, schwarzschild, eccentric):
        seg = integrate_geodesic(schwarzschild, *eccentric, 20.0)
        n_fine = 10 * (seg.n_samples - 1) + 1
        ref = integrate_geodesic(schwarzschild, *eccentric, 20.0, n_samples=n_fine, adaptive=False)
        assert np.max(np.abs(seg.events - ref.events[::10])) < 1e-12
        assert np.max(np.abs(seg.tangents - ref.tangents[::10])) < 1e-12


def christoffel_rhs(self, y):
    """The oracle right-hand side: the full Christoffel array contracted with u."""
    out = np.empty(8)
    out[:4] = y[4:]
    out[4:] = -np.einsum("lmn,m,n->l", self.christoffel(y[:4]), y[4:], y[4:])
    return out


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
        calls.clear()
        with pytest.raises(IntegrationError, match="non-finite state"):
            integrate_geodesic(schwarzschild, *eccentric, 1.0, adaptive=False)


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

    def test_leg_over_sample_cap_is_not_converged(self, minkowski, monkeypatch):
        # the cap is checked before the converged shot is re-integrated
        u = np.array([1.25, 0.75, 0.0, 0.0])
        target = Event(2.0 * MAX_LEG_SAMPLES * DEFAULT_SAMPLE_STEP * u)
        calls = []

        def no_dense_grid(*args, n_samples=None, **kwargs):
            calls.append(n_samples)
            assert n_samples == 2, "re-integrated a leg over the sample cap"
            return integrate_geodesic(*args, n_samples=n_samples, **kwargs)

        monkeypatch.setattr(geodesic, "integrate_geodesic", no_dense_grid)
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), target)
        assert seg is None
        assert not rep.converged
        assert f"over {MAX_LEG_SAMPLES} samples" in rep.message
        assert rep.proper_time == pytest.approx(2.0 * MAX_LEG_SAMPLES * DEFAULT_SAMPLE_STEP)
        assert calls

    def test_failed_reintegration_is_not_converged(self, minkowski, monkeypatch):
        def failing_dense_grid(*args, n_samples=None, **kwargs):
            if n_samples != 2:
                raise IntegrationError("step size underflow at tau=0.5")
            return integrate_geodesic(*args, n_samples=n_samples, **kwargs)

        monkeypatch.setattr(geodesic, "integrate_geodesic", failing_dense_grid)
        u = np.array([1.25, 0.75, 0.0, 0.0])
        seg, rep = solve_bvp(minkowski, Event(np.zeros(4)), Event(1.5 * u))
        assert seg is None
        assert not rep.converged
        assert "re-integration" in rep.message
        assert "step size underflow" in rep.message
        assert rep.proper_time == pytest.approx(1.5, abs=1e-9)

    def test_full_grid_miss_is_shot_again(self, minkowski, monkeypatch):
        def biased_dense_grid(*args, n_samples=None, **kwargs):
            seg = integrate_geodesic(*args, n_samples=n_samples, **kwargs)
            if n_samples != 2:
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


def test_segment_accessors(minkowski):
    seg = integrate_geodesic(
        minkowski, Event(np.zeros(4)), np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    )
    assert isinstance(seg, GeodesicSegment)
    assert seg.start.coords[0] == 0.0
    assert seg.end.coords[0] == pytest.approx(1.0)
    assert seg.tangents[seg.n_samples - 1][0] == pytest.approx(1.0)
    assert np.array_equal(seg.tangents[0], [1.0, 0.0, 0.0, 0.0])
