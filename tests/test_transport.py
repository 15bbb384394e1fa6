"""Parallel transport of vectors, tetrads, and spin-half amplitudes.

Key oracles: the segment's own tangent is self-parallel, transport
preserves the metric pairing, retraced paths compose to the identity, and
the spin-half route projects onto the vector route through the double
cover.
"""

import numpy as np
import pytest

from eprgeo import Event, integrate_geodesic, pair_transport
from eprgeo.errors import UsageError
from eprgeo.frames import spin_connection
from eprgeo.geodesic import point_segment
from eprgeo.lorentz import ID2, lift_so13, vector_action
from eprgeo.pipeline import rest_frame_rotation
from eprgeo.spacetime import Tangent
from eprgeo.transport import (
    frame_propagator,
    gauge_tetrad,
    reversed_segment,
    spinor_propagator,
    transport_tetrad,
    transport_vector,
    world_propagator,
)


class TestVectorTransport:
    def test_tangent_is_self_parallel(self, battery):
        """Transporting the start tangent reproduces the tangent field."""
        for seg in battery[:10]:
            moved = transport_vector(seg, Tangent(seg.tangents[0], seg.start))
            assert np.max(np.abs(moved.components - seg.tangents[-1])) < 1e-9

    def test_inner_products_preserved(self, schwarzschild, battery):
        rng = np.random.default_rng(5)
        seg = battery[3]
        g0 = schwarzschild.metric(seg.start.coords)
        g1 = schwarzschild.metric(seg.end.coords)
        p = world_propagator(seg)
        for _ in range(5):
            v = rng.normal(size=4)
            w = rng.normal(size=4)
            before = v @ g0 @ w
            after = (p @ v) @ g1 @ (p @ w)
            assert after == pytest.approx(before, abs=1e-10)

    def test_retraced_path_is_identity(self, battery):
        for seg in battery[:10]:
            rev = reversed_segment(seg)
            round_trip = world_propagator(rev) @ world_propagator(seg)
            assert np.max(np.abs(round_trip - np.eye(4))) < 1e-8

    def test_flat_space_transport_is_trivial(self, minkowski):
        seg = integrate_geodesic(
            minkowski, Event(np.zeros(4)), np.array([np.sqrt(1.25), 0.5, 0, 0]), 2.0
        )
        assert np.max(np.abs(world_propagator(seg) - np.eye(4))) < 1e-13

    def test_step_halving_improves_transport(self, schwarzschild, static_tangent):
        """The per-interval transport rule converges at 4th order or better."""
        coords = np.array([0.0, 4.5, np.pi / 2, 0.0])
        u0 = static_tangent(schwarzschild, coords, [0.9, 0.0, 1.2])

        def propagator(n):
            seg = integrate_geodesic(
                schwarzschild, Event(coords), u0, 3.0, n_samples=n
            )
            return world_propagator(seg)

        ref = propagator(3001)
        e1 = np.max(np.abs(propagator(51) - ref))
        e2 = np.max(np.abs(propagator(101) - ref))
        assert e1 / e2 > 8.0


class TestTetradTransport:
    def test_orthonormality_preserved(self, schwarzschild, battery):
        for seg in battery[:5]:
            n0 = gauge_tetrad(schwarzschild, seg.start, "static")
            moved = transport_tetrad(seg, n0)
            assert moved.defect(schwarzschild) < 1e-10
            assert np.allclose(moved.event.coords, seg.end.coords)

    def test_rejects_detached_tetrad(self, schwarzschild, battery):
        seg = battery[0]
        wrong = gauge_tetrad(schwarzschild, seg.end, "static")
        with pytest.raises(UsageError):
            transport_tetrad(seg, wrong)

    def test_gauge_tetrad_matches_frame_field(self, schwarzschild):
        e = Event(np.array([0.0, 9.0, 1.1, 0.3]))
        from eprgeo.frames import frame_field

        n = gauge_tetrad(schwarzschild, e, "boosted-static")
        assert np.allclose(n.matrix, frame_field(schwarzschild, e.coords, "boosted-static"))


class TestSpinorTransport:
    def test_retraced_path_is_identity(self, battery):
        for seg in battery[:10]:
            rev = reversed_segment(seg)
            u = spinor_propagator(rev, "static") @ spinor_propagator(seg, "static")
            assert np.max(np.abs(u - ID2)) < 1e-6

    def test_double_cover_projection(self, battery):
        """U sigma_k U^dag realizes the vector-route frame rotation."""
        for seg in battery[:10]:
            u = spinor_propagator(seg, "static")
            lam = frame_propagator(seg, "static")
            assert np.max(np.abs(vector_action(u) - lam)) < 1e-6

    def test_unit_determinant(self, battery):
        for seg in battery[:10]:
            u = spinor_propagator(seg, "static")
            assert abs(np.linalg.det(u) - 1.0) < 1e-10

    def test_flat_space_spinor_trivial(self, minkowski):
        seg = integrate_geodesic(
            minkowski, Event(np.zeros(4)), np.array([np.sqrt(2.0), 0, 1.0, 0]), 1.5
        )
        assert np.max(np.abs(spinor_propagator(seg, "static") - ID2)) < 1e-13

    def test_zero_length_segment_transports_trivially(self, schwarzschild):
        seg = point_segment(schwarzschild, Event(np.array([0.0, 8.0, 1.2, 0.1])))
        assert np.allclose(spinor_propagator(seg, "static"), ID2)

    def test_lifted_spin_connection_shape(self, schwarzschild):
        x = np.array([0.0, 8.0, 1.2, 0.1])
        m = lift_so13(spin_connection(schwarzschild, x, "static"))
        assert m.shape == (4, 2, 2)
        # each component is traceless (sl(2,C))
        assert np.max(np.abs(np.einsum("lii->l", m))) < 1e-14


class TestCorrespondence:
    """Carrying a tetrad back along leg 1 and out along leg 2."""

    def test_flat_correspondence_is_identity(self, minkowski):
        origin = Event(np.zeros(4))
        seg1 = integrate_geodesic(
            minkowski, origin, np.array([np.sqrt(1.25), 0.5, 0, 0]), 2.0
        )
        seg2 = integrate_geodesic(
            minkowski, origin, np.array([np.sqrt(1.25), -0.5, 0, 0]), 2.0
        )
        back = reversed_segment(seg1)
        lam = frame_propagator(seg2, "static") @ frame_propagator(back, "static")
        assert np.max(np.abs(lam - np.eye(4))) < 1e-12
        # spinor factor is +-identity
        u = spinor_propagator(seg2, "static") @ spinor_propagator(back, "static")
        assert min(np.max(np.abs(u - ID2)), np.max(np.abs(u + ID2))) < 1e-12

    def test_correspondence_fields_attached(self, schwarzschild):
        rng = np.random.default_rng(11)
        from eprgeo.frames import frame_field

        coords = np.array([0.0, 10.0, 1.3, 0.2])
        n0 = frame_field(schwarzschild, coords, "static")
        segs = []
        for _ in range(2):
            w = rng.normal(scale=0.3, size=3)
            u = n0 @ np.concatenate(([np.sqrt(1 + w @ w)], w))
            segs.append(integrate_geodesic(schwarzschild, Event(coords), u, 1.5))
        back = reversed_segment(segs[0])
        n1 = gauge_tetrad(schwarzschild, segs[0].end, "static")
        n2 = transport_tetrad(segs[1], transport_tetrad(back, n1))
        assert np.allclose(n2.event.coords, segs[1].end.coords)
        assert n2.defect(schwarzschild) < 1e-9
        lam = frame_propagator(segs[1], "static") @ frame_propagator(back, "static")
        from eprgeo.lorentz import ETA

        assert np.max(np.abs(lam.T @ ETA @ lam - ETA)) < 1e-9

    def test_rejects_mismatched_origins(self, battery):
        seg1, seg2 = battery[0], battery[1]  # different random origins
        with pytest.raises(UsageError):
            pair_transport(seg1, seg2)


def static_rest_frame_rotation(seg):
    st = seg.spacetime
    return rest_frame_rotation(
        seg, gauge_tetrad(st, seg.start, "static"), gauge_tetrad(st, seg.end, "static")
    )


class TestWigner:
    """The Wigner rotation of one leg is pipeline.rest_frame_rotation."""

    def test_wigner_is_a_rotation(self, schwarzschild, static_tangent):
        coords = np.array([0.0, 10.0, 1.3, 0.2])
        u0 = static_tangent(schwarzschild, coords, [0.2, 0.1, 0.3])
        seg = integrate_geodesic(schwarzschild, Event(coords), u0, 1.5)
        r = static_rest_frame_rotation(seg)
        assert r.shape == (3, 3)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_flat_wigner_identity_for_parallel_tangents(self, minkowski):
        u = np.array([np.sqrt(1.25), 0.5, 0.0, 0.0])
        seg = integrate_geodesic(minkowski, Event(np.zeros(4)), u, 2.0)
        r = static_rest_frame_rotation(seg)
        assert np.max(np.abs(r - np.eye(3))) < 1e-12


def test_tetrad_vectors_property(schwarzschild):
    e = Event(np.array([0.0, 9.0, 1.0, 0.0]))
    tet = gauge_tetrad(schwarzschild, e, "static")
    vs = tet.vectors
    assert len(vs) == 4
    assert all(isinstance(v, Tangent) for v in vs)
    assert np.allclose(vs[0].components, tet.matrix[:, 0])
