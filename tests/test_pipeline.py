"""End-to-end pair transport: decay, two legs, rest-frame matching.

The flat-space limit is the exact oracle (perfect anticorrelation along
equal axes); curved cases are checked for internal consistency between
the spin-half and vector routes.  The closing reads no gauge: a constant
frame change cancels, which test_acceptance's criterion 4 and
test_scenario's boosted-static report check.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import eprgeo.scenario
import eprgeo.transport
from conftest import gauge_frame, pure_boost, vector_action
from eprgeo import (
    Event,
    correlation,
    integrate_geodesic,
    make_spacetime,
    matched_axis,
    run_scenario,
)
from eprgeo.errors import UsageError
from eprgeo.frames import frame_field, inverse_frame
from eprgeo.geodesic import GeodesicSegment, point_segment
from eprgeo.lorentz import PAULI, expm2, pure_boost_inverse, rotation_axis_angle
from eprgeo.pipeline import (
    PairResult,
    boosted_tetrad,
    integrate_pair,
    pair_transport,
    rest_conjugation_factors,
    rest_frame_rotation,
    spin_relative_rotation,
)
from eprgeo.scenario import load_scenario
from eprgeo.spin import TwoQubitState, pair_state
from eprgeo.transport import Tetrad, spinor_propagator, transport_tetrad, world_propagator

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
rng = np.random.default_rng(17)


def _flat_pair(minkowski, w1, w2, tau=2.0, **kwargs):
    origin = Event(np.zeros(4))
    u1 = np.concatenate(([np.sqrt(1 + w1 @ w1)], w1))
    u2 = np.concatenate(([np.sqrt(1 + w2 @ w2)], w2))
    return integrate_pair(minkowski, origin, u1, u2, tau, tau, **kwargs)


def _curved_legs(schwarzschild, seed=0):
    r = np.random.default_rng(seed)
    coords = np.array([0.0, 11.0, 1.3, 0.4])
    n0 = frame_field(schwarzschild, coords)
    segs = []
    for _ in range(2):
        w = r.normal(scale=0.35, size=3)
        u = n0 @ np.concatenate(([np.sqrt(1 + w @ w)], w))
        segs.append(integrate_geodesic(schwarzschild, Event(coords), u, 1.8))
    return segs


def _curved_pair(schwarzschild, seed=0, **kwargs):
    return pair_transport(*_curved_legs(schwarzschild, seed), **kwargs)


class TestFlatSpace:
    def test_relative_rotation_is_identity(self, minkowski):
        res = _flat_pair(minkowski, np.array([0.3, 0.1, -0.2]), np.array([-0.4, 0.2, 0.1]))
        assert np.max(np.abs(res.relative_rotation - np.eye(3))) < 1e-10

    def test_perfect_anticorrelation(self, minkowski):
        res = _flat_pair(minkowski, np.array([0.5, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0]))
        for _ in range(10):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = matched_axis(res, a)
            assert correlation(res.state, a, b) == pytest.approx(-1.0, abs=1e-12)
            assert np.allclose(b, a, atol=1e-10)

    def test_moving_decay_frame(self, minkowski):
        # the source moving relative to the detectors must not spoil matching
        v = np.array([np.sqrt(1.09), 0.2, -0.1, 0.2])
        res = _flat_pair(
            minkowski,
            np.array([0.4, 0.2, 0.0]),
            np.array([-0.3, 0.0, 0.2]),
            decay_velocity=v,
        )
        a = np.array([0.0, 0.0, 1.0])
        b = matched_axis(res, a)
        assert correlation(res.state, a, b) == pytest.approx(-1.0, abs=1e-10)


class TestCurved:
    def test_result_fields(self, schwarzschild):
        res = _curved_pair(schwarzschild, seed=1)
        assert isinstance(res, PairResult)
        assert res.segment1.start.coords is not None
        assert res.state.kind == "pure"
        assert res.rotation1.shape == (3, 3)
        assert res.relative_rotation.shape == (3, 3)

    def test_matched_flags_catch_a_broken_spinor_route(self, monkeypatch):
        """A fixed 1-rad turn on leg 2's spin map, which the vector route
        does not see: the matched rows cross the routes, so they fail."""
        kick = expm2(-0.5j * np.einsum("k,kij->ij", np.ones(3) / np.sqrt(3.0), PAULI))

        def broken(*args, **kwargs):
            res = pair_transport(*args, **kwargs)
            spin2 = kick @ res.spin2
            state = TwoQubitState("pure", pair_state(res.spin1, spin2))
            return dataclasses.replace(res, spin2=spin2, state=state)

        monkeypatch.setattr(eprgeo.scenario, "pair_transport", broken)
        report = run_scenario(load_scenario(SCENARIO_DIR / "schwarzschild_pair.cfg"))
        flags = {}
        for row in report.rows:
            flags.setdefault(row.quantity, []).append(row.flag)
        # no direction of the scenario is parallel to the turn's axis (1, 1, 1)
        assert flags["E_matched"] == ["fail"] * 3
        assert flags["chsh_matched"] == ["fail"]
        assert flags["diag_route_agreement"] == ["fail"]

    def test_matched_anticorrelation_cross_route(self, schwarzschild):
        res = _curved_pair(schwarzschild, seed=3)
        for _ in range(5):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = res.relative_rotation @ a
            assert correlation(res.state, a, b) == pytest.approx(-1.0, abs=1e-9)

    def test_both_gauges_share_each_legs_chord_product(self, schwarzschild, monkeypatch):
        """The spinor transport is cached in static frames and every gauge
        closes it with the same spin map, so pairing the same legs twice
        multiplies the chord exponentials once: one ordered_exp_product
        call on both legs stacked, the shorter one padded, and none on the
        second pairing."""
        calls = []
        original = eprgeo.transport.ordered_exp_product

        def counting(*args):
            calls.append(args[0].shape)
            return original(*args)

        monkeypatch.setattr(eprgeo.transport, "ordered_exp_product", counting)
        segs = _curved_legs(schwarzschild, seed=4)
        first = pair_transport(*segs)
        again = pair_transport(*segs)
        assert calls == [(2, max(s.n_samples for s in segs) - 1)]
        assert first.spin1.tobytes() == again.spin1.tobytes()
        assert first.spin2.tobytes() == again.spin2.tobytes()

    def test_spin_and_vector_rotations_agree(self, schwarzschild):
        res = _curved_pair(schwarzschild, seed=5)
        r_spin = spin_relative_rotation(res)
        assert np.max(np.abs(r_spin - res.relative_rotation)) < 1e-6
        _, ang_spin = rotation_axis_angle(r_spin)
        _, ang_vec = rotation_axis_angle(res.relative_rotation)
        assert ang_spin == pytest.approx(ang_vec, abs=1e-6)

    def test_double_cover_defect_small(self, schwarzschild, double_cover_defect):
        res = _curved_pair(schwarzschild, seed=6)
        assert double_cover_defect(res.segment1) < 1e-6
        assert double_cover_defect(res.segment2) < 1e-6

    def test_boosted_decay_reference(self, schwarzschild, static_tangent):
        coords = np.array([0.0, 11.0, 1.3, 0.4])
        v = static_tangent(schwarzschild, coords, [0.15, -0.1, 0.05])
        res = _curved_pair(schwarzschild, seed=7, decay_velocity=v)
        a = np.array([1.0, 0.0, 0.0])
        b = matched_axis(res, a)
        assert correlation(res.state, a, b) == pytest.approx(-1.0, abs=1e-9)


class TestRestConjugationFactors:
    """The closed-form spinor factors against their 4x4 products, via the double cover."""

    @pytest.mark.parametrize("moving", [False, True])
    def test_factors_cover_the_frame_boosts(self, schwarzschild, static_tangent, moving):
        st = schwarzschild
        coords = np.array([0.0, 11.0, 1.3, 0.4])
        u = static_tangent(st, coords, [0.3, -0.2, 0.25])
        seg = integrate_geodesic(st, Event(coords), u, 1.8)
        velocity = static_tangent(st, coords, [0.15, -0.1, 0.05]) if moving else None
        reference = boosted_tetrad(st, seg.start, velocity)
        pre, post = rest_conjugation_factors(seg, reference)

        def static_components(x, vector):
            g = st.metric(x)
            return inverse_frame(frame_field(st, x), g) @ vector

        v = static_components(seg.events[0], reference.matrix[:, 0])
        g0 = st.metric(seg.events[0])
        u0 = inverse_frame(reference.matrix, g0) @ seg.tangents[0]
        u1 = static_components(seg.events[-1], seg.tangents[-1])
        expected_pre = pure_boost(v) @ pure_boost(u0)
        expected_post = pure_boost_inverse(u1)
        assert np.max(np.abs(vector_action(pre) - expected_pre)) < 1e-12
        assert np.max(np.abs(vector_action(post) - expected_post)) < 1e-12


class TestSharedFrames:
    """pair_transport builds each event's frames once for both routes and
    for the orthonormality diagnostic; its results must be those of the
    per-leg functions, bit for bit.  The gauge picks only the tetrad whose
    drift ortho_drift reports."""

    LEGS = {
        "schwarzschild": ({"M": 1.0}, [0.0, 11.0, 1.3, 0.4]),
        "weak_field": ({"epsilon": 0.05}, [0.0, 1.5, -0.5, 0.8]),
    }

    @pytest.mark.parametrize("kind", sorted(LEGS))
    @pytest.mark.parametrize("gauge", ["static", "boosted-static"])
    @pytest.mark.parametrize("moving", [False, True])
    def test_pair_transport_matches_the_per_leg_functions(self, static_tangent, kind, gauge, moving):
        params, coords = self.LEGS[kind]
        st = make_spacetime(kind, params)
        coords = np.array(coords)
        segs = [
            integrate_geodesic(st, Event(coords), static_tangent(st, coords, w), 1.8)
            for w in ([0.3, -0.2, 0.25], [-0.35, 0.1, -0.2])
        ]
        velocity = static_tangent(st, coords, [0.15, -0.1, 0.05]) if moving else None
        pair = pair_transport(*segs, decay_velocity=velocity)

        # the same legs with empty caches, closed one function at a time
        legs = [GeodesicSegment(st, seg.tau, seg.events, seg.tangents) for seg in segs]
        reference = boosted_tetrad(st, legs[0].start, velocity)
        factors = tuple(rest_conjugation_factors(leg, reference) for leg in legs)
        rotations = [rest_frame_rotation(leg, reference, boosted_tetrad(st, leg.end)) for leg in legs]
        expected = PairResult(*legs, *rotations, factors)
        spins = [expected.spin_map(k, spinor_propagator(leg)) for k, leg in enumerate(legs, start=1)]

        assert pair.rotation1.tobytes() == rotations[0].tobytes()
        assert pair.rotation2.tobytes() == rotations[1].tobytes()
        for got, want in zip(pair.conjugation_factors, factors):
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        assert pair.spin1.tobytes() == spins[0].tobytes()
        assert pair.spin2.tobytes() == spins[1].tobytes()

        # the report's diag_ortho_drift: the gauge frame at each leg's start,
        # transported by transport_tetrad, its defect at the leg's end
        gauged = [Tetrad(leg.start, gauge_frame(st, leg.start.coords, gauge)) for leg in legs]
        drifts = [transport_tetrad(leg, t).defect(st) for leg, t in zip(legs, gauged)]
        assert pair.ortho_drift(gauge) == max(0.0, *drifts)


class TestStackedLegs:
    """pair_transport transports both legs in one stack per route, the
    shorter leg padded; each leg's propagators and spin map must be those
    of its one-leg call, bit for bit."""

    SPACETIMES = {
        "minkowski": ({}, [0.0, 0.3, -0.2, 0.1]),
        **TestSharedFrames.LEGS,
    }
    # sample counts: even and odd interval counts, a lone interval, and 0 for
    # a zero-length leg
    COUNTS = [(9, 14), (21, 14), (14, 6), (2, 9), (14, 3), (0, 14), (9, 0), (33, 33)]

    @pytest.mark.parametrize("kind", sorted(SPACETIMES))
    @pytest.mark.parametrize("counts", COUNTS, ids=[f"{a}-{b}" for a, b in COUNTS])
    def test_stacked_propagators_match_one_leg_calls(self, static_tangent, kind, counts):
        params, coords = self.SPACETIMES[kind]
        st = make_spacetime(kind, params)
        coords = np.array(coords)
        legs = []
        for n, w in zip(counts, ([0.3, -0.2, 0.25], [-0.35, 0.1, -0.2])):
            u = static_tangent(st, coords, w)
            if n == 0:
                legs.append(point_segment(st, Event(coords), u))
            else:
                legs.append(integrate_geodesic(st, Event(coords), u, 0.06 * n, n_samples=n))
        pair = pair_transport(*legs)
        for k, seg in enumerate(legs, start=1):
            one = dataclasses.replace(seg, cache={})
            for route in (world_propagator, spinor_propagator):
                assert route(one).tobytes() == seg.cache[route.__name__].tobytes()
            spin = pair.spin_map(k, spinor_propagator(one))
            assert spin.tobytes() == getattr(pair, f"spin{k}").tobytes()

    def test_a_cached_leg_is_not_transported_again(self, schwarzschild, monkeypatch):
        calls = []
        original = eprgeo.transport.ordered_exp_product

        def counting(*args):
            calls.append(args[0].shape)
            return original(*args)

        monkeypatch.setattr(eprgeo.transport, "ordered_exp_product", counting)
        seg1, seg2 = _curved_legs(schwarzschild, seed=8)
        u1 = spinor_propagator(seg1)
        p1 = world_propagator(seg1)
        pair = pair_transport(seg1, seg2)
        assert calls == [(1, seg1.n_samples - 1), (1, seg2.n_samples - 1)]
        assert seg1.cache["spinor_propagator"] is u1 and seg1.cache["world_propagator"] is p1
        assert pair.spin1.tobytes() == pair.spin_map(1, u1).tobytes()


class TestValidation:
    def test_rejects_different_spacetimes(self, minkowski, schwarzschild, static_tangent):
        seg_flat = integrate_geodesic(
            minkowski, Event(np.zeros(4)), np.array([1.0, 0, 0, 0]), 1.0
        )
        coords = np.array([0.0, 11.0, 1.3, 0.4])
        u = static_tangent(schwarzschild, coords, [0.1, 0, 0])
        seg_curved = integrate_geodesic(schwarzschild, Event(coords), u, 1.0)
        with pytest.raises(UsageError):
            pair_transport(seg_flat, seg_curved)

    def test_rejects_different_origins(self, minkowski):
        seg1 = integrate_geodesic(
            minkowski, Event(np.zeros(4)), np.array([1.0, 0, 0, 0]), 1.0
        )
        seg2 = integrate_geodesic(
            minkowski, Event(np.array([0.0, 1.0, 0, 0])), np.array([1.0, 0, 0, 0]), 1.0
        )
        with pytest.raises(UsageError):
            pair_transport(seg1, seg2)

    def test_ortho_drift_rejects_an_unknown_gauge(self, schwarzschild):
        with pytest.raises(UsageError):
            _curved_pair(schwarzschild, seed=1).ortho_drift("comoving")


def test_boosted_tetrad_first_leg_is_velocity(schwarzschild, static_tangent):
    e = Event(np.array([0.0, 10.0, 1.2, 0.0]))
    v = static_tangent(schwarzschild, e.coords, [0.3, 0.2, -0.1])
    tet = boosted_tetrad(schwarzschild, e, v)
    assert np.max(np.abs(tet.matrix[:, 0] - v)) < 1e-12
    assert tet.defect(schwarzschild) < 1e-12
