"""End-to-end pair transport: decay, two legs, rest-frame matching.

The flat-space limit is the exact oracle (perfect anticorrelation along
equal axes); curved cases are checked for internal consistency between
the spin-half and vector routes and for gauge independence.
"""

import numpy as np
import pytest

from eprgeo import (
    Event,
    correlation,
    integrate_geodesic,
    make_spacetime,
    matched_axis,
)
from eprgeo.errors import UsageError
from eprgeo.frames import frame_field, gauge_boost, inverse_frame
from eprgeo.lorentz import pure_boost, pure_boost_inverse, rotation_axis_angle, vector_action
from eprgeo.pipeline import (
    PairResult,
    boosted_tetrad,
    double_cover_defect,
    integrate_pair,
    pair_transport,
    rest_conjugation_factors,
    spin_relative_rotation,
)

rng = np.random.default_rng(17)


def _flat_pair(minkowski, w1, w2, tau=2.0, **kwargs):
    origin = Event(np.zeros(4))
    u1 = np.concatenate(([np.sqrt(1 + w1 @ w1)], w1))
    u2 = np.concatenate(([np.sqrt(1 + w2 @ w2)], w2))
    return integrate_pair(minkowski, origin, u1, u2, tau, tau, **kwargs)


def _curved_pair(schwarzschild, seed=0, gauge="static", **kwargs):
    r = np.random.default_rng(seed)
    coords = np.array([0.0, 11.0, 1.3, 0.4])
    n0 = frame_field(schwarzschild, coords, "static")
    segs = []
    for _ in range(2):
        w = r.normal(scale=0.35, size=3)
        u = n0 @ np.concatenate(([np.sqrt(1 + w @ w)], w))
        segs.append(integrate_geodesic(schwarzschild, Event(coords), u, 1.8))
    return pair_transport(segs[0], segs[1], gauge=gauge, **kwargs)


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

    def test_matched_axis_routes_agree(self, schwarzschild):
        res = _curved_pair(schwarzschild, seed=2)
        for _ in range(5):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b_state = matched_axis(res, a)
            b_vector = res.relative_rotation @ a
            assert np.max(np.abs(b_state - b_vector)) < 1e-6

    def test_matched_anticorrelation_cross_route(self, schwarzschild):
        res = _curved_pair(schwarzschild, seed=3)
        for _ in range(5):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = res.relative_rotation @ a
            assert correlation(res.state, a, b) == pytest.approx(-1.0, abs=1e-9)

    def test_gauge_independence(self, schwarzschild):
        res_s = _curved_pair(schwarzschild, seed=4, gauge="static")
        res_b = _curved_pair(schwarzschild, seed=4, gauge="boosted-static")
        a = np.array([0.2, -0.9, 0.4])
        a /= np.linalg.norm(a)
        b = matched_axis(res_s, a)
        e_s = correlation(res_s.state, a, b)
        e_b = correlation(res_b.state, a, b)
        assert e_b == pytest.approx(e_s, abs=1e-10)
        # the relative rotation itself is gauge independent
        assert np.max(np.abs(res_s.relative_rotation - res_b.relative_rotation)) < 1e-8

    def test_spin_and_vector_rotations_agree(self, schwarzschild):
        res = _curved_pair(schwarzschild, seed=5)
        r_spin = spin_relative_rotation(res)
        assert np.max(np.abs(r_spin - res.relative_rotation)) < 1e-6
        _, ang_spin = rotation_axis_angle(r_spin)
        _, ang_vec = rotation_axis_angle(res.relative_rotation)
        assert ang_spin == pytest.approx(ang_vec, abs=1e-6)

    def test_double_cover_defect_small(self, schwarzschild):
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

    @pytest.mark.parametrize("gauge", ["static", "boosted-static"])
    @pytest.mark.parametrize("moving", [False, True])
    def test_factors_cover_the_frame_boosts(self, schwarzschild, static_tangent, gauge, moving):
        st = schwarzschild
        coords = np.array([0.0, 11.0, 1.3, 0.4])
        u = static_tangent(st, coords, [0.3, -0.2, 0.25])
        seg = integrate_geodesic(st, Event(coords), u, 1.8)
        velocity = static_tangent(st, coords, [0.15, -0.1, 0.05]) if moving else None
        reference = boosted_tetrad(st, seg.start, velocity)
        pre, post = rest_conjugation_factors(seg, reference, gauge)

        def static_components(x, vector):
            g = st.metric(x)
            return inverse_frame(frame_field(st, x, "static"), g) @ vector

        v = static_components(seg.events[0], reference.matrix[:, 0])
        g0 = st.metric(seg.events[0])
        u0 = inverse_frame(reference.matrix, g0) @ seg.tangents[0]
        u1 = static_components(seg.events[-1], seg.tangents[-1])
        big_g = gauge_boost() if gauge == "boosted-static" else np.eye(4)
        expected_pre = np.linalg.inv(big_g) @ pure_boost(v) @ pure_boost(u0)
        expected_post = pure_boost_inverse(u1) @ big_g
        assert np.max(np.abs(vector_action(pre) - expected_pre)) < 1e-12
        assert np.max(np.abs(vector_action(post) - expected_post)) < 1e-12


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


def test_boosted_tetrad_first_leg_is_velocity(schwarzschild, static_tangent):
    e = Event(np.array([0.0, 10.0, 1.2, 0.0]))
    v = static_tangent(schwarzschild, e.coords, [0.3, 0.2, -0.1])
    tet = boosted_tetrad(schwarzschild, e, v)
    assert np.max(np.abs(tet.matrix[:, 0] - v)) < 1e-12
    assert tet.defect(schwarzschild) < 1e-12
