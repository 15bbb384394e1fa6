"""Parallel transport of vectors, tetrads, and spin-half amplitudes.

Key oracles: the segment's own tangent is self-parallel, transport
preserves the metric pairing, retraced paths compose to the identity, and
the spin-half route projects onto the vector route through the double
cover, and the spinor route transforms covariantly under a
position-dependent local Lorentz gauge.
"""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import eprgeo.transport as transport
from eprgeo import (
    Event,
    integrate_geodesic,
    integrate_orbit,
    make_spacetime,
    pair_transport,
    rest_frame_holonomy_angle,
    sample_bundle,
    spinor_holonomy_angle,
)
from eprgeo.errors import UsageError
from eprgeo.frames import frame_field, spin_connection
from eprgeo.geodesic import DEFAULT_SAMPLE_STEP, GeodesicSegment, point_segment, samples_for
from eprgeo.lorentz import ETA, ID2, expm2, lift_so13, ordered_product, sl2_inverse
from eprgeo.pipeline import boosted_tetrad, rest_frame_rotation
from eprgeo.transport import (
    Tetrad,
    frame_propagator,
    polygon_spinor_transport,
    spinor_propagator,
    transport_tetrad,
    world_propagator,
)


class TestVectorTransport:
    def test_tangent_is_self_parallel(self, battery):
        """Transporting the start tangent reproduces the tangent field."""
        for seg in battery[:10]:
            moved = world_propagator(seg) @ seg.tangents[0]
            assert np.max(np.abs(moved - seg.tangents[-1])) < 1e-9

    def test_inner_products_preserved(self, schwarzschild, battery):
        rng = np.random.default_rng(5)
        seg = battery[3]
        g0 = schwarzschild.metric(seg.start.coords)
        g1 = schwarzschild.metric(seg.end.coords)
        p = world_propagator(seg)
        for _ in range(5):
            v = rng.normal(size=4)
            w = rng.normal(size=4)
            before = (g0 * v) @ w
            after = (g1 * (p @ v)) @ (p @ w)
            assert after == pytest.approx(before, abs=1e-10)

    def test_retraced_path_is_identity(self, battery, reversed_segment):
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


def einsum_world_propagator(seg):
    """The vector route with W and the Hermite accelerations as separate
    contractions of Gamma over its middle index: an independent reference.

    One RK4 step covers each pair of sample intervals and is staged at the
    stored middle node; a lone last interval is staged at its Hermite midpoint.
    """
    st, x, u = seg.spacetime, seg.events, seg.tangents
    h = float(seg.tau[1] - seg.tau[0])
    gam = st.christoffel(x)
    w = -np.einsum("...lms,...m->...ls", gam, u)
    end = 2 * ((len(x) - 1) // 2)
    w0, wm, w1 = w[0:end:2], w[1:end:2], w[2 : end + 1 : 2]
    steps = np.full(len(w0), 2.0 * h)
    if end < len(x) - 1:
        acc = -np.einsum("klmn,km,kn->kl", gam[-2:], u[-2:], u[-2:])
        x_mid = 0.5 * x[-2] + 0.5 * x[-1] + (h / 8.0) * (u[-2] - u[-1])
        u_mid = 0.5 * (u[-2] + u[-1]) + (h / 8.0) * (acc[0] - acc[1])
        w_mid = -np.einsum("lms,m->ls", st.christoffel(x_mid), u_mid)
        w0, wm, w1 = np.concatenate([w0, w[-2:-1]]), np.concatenate([wm, [w_mid]]), np.concatenate([w1, w[-1:]])
        steps = np.append(steps, h)
    hs = steps[:, None, None]
    k2 = wm + (0.5 * hs) * (wm @ w0)
    k3 = wm + (0.5 * hs) * (wm @ k2)
    k4 = w1 + hs * (w1 @ k3)
    return ordered_product(np.eye(4) + (hs / 6.0) * (w0 + 2.0 * k2 + 2.0 * k3 + k4))


@pytest.mark.parametrize(
    "kind, params, coords, w",
    [
        ("minkowski", {}, [0.0, 1.0, -2.0, 0.5], [0.3, 0.4, -0.1]),
        ("schwarzschild", {"M": 1.0}, [0.0, 7.0, 1.1, 0.3], [0.2, 0.35, -0.1]),
        ("weak_field", {"epsilon": 0.05}, [0.0, 1.0, -2.0, 0.5], [-0.3, 0.5, 0.2]),
    ],
)
def test_world_propagator_matches_the_einsum_contraction(static_tangent, kind, params, coords, w):
    """On an even leg (300 intervals), an odd one (25) and a two-sample one."""
    st = make_spacetime(kind, params)
    coords = np.array(coords)
    u0 = static_tangent(st, coords, w)
    for n_samples in (None, 26, 2):
        seg = integrate_geodesic(st, Event(coords), u0, 6.0, n_samples=n_samples)
        ref = einsum_world_propagator(seg)
        assert np.max(np.abs(world_propagator(seg) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_world_propagator_memory_peak_on_a_long_orbit(schwarzschild):
    """The vector route holds one (n, 4, 4) array, the node W, and works
    through the intervals in blocks: on the 11,311-sample r = 12 orbit it
    peaks at about 3.3 MiB, where a dense (n, 4, 4, 4) Gamma at the nodes
    alone would take 5.5 MiB."""
    seg = integrate_orbit(schwarzschild, 12.0)
    assert seg.n_samples == 11311
    tracemalloc.start()
    try:
        world_propagator(seg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * 2**20


@pytest.mark.parametrize("block", [8, 1024])
def test_world_propagator_blocks_multiply_into_one_product(schwarzschild, static_tangent, monkeypatch, block):
    """Power-of-two blocks of RK4 steps give bitwise the product of one block,
    with a partial last block (the r = 10 orbit's 4,156 steps), with whole
    blocks only (32 steps), with whole blocks and a lone last interval (16
    steps and one) and with the lone interval of a two-sample leg."""
    coords = np.array([0.0, 9.0, 1.2, 0.3])
    u0 = static_tangent(schwarzschild, coords, [0.3, 0.1, -0.2])
    segs = [integrate_orbit(schwarzschild, 10.0)] + [
        integrate_geodesic(schwarzschild, Event(coords), u0, 1.5, n_samples=n) for n in (65, 34, 2)
    ]
    monkeypatch.setattr(transport, "_BLOCK", block)
    blocked = [world_propagator(seg) for seg in segs]
    monkeypatch.setattr(transport, "_BLOCK", 1 << 20)
    for seg, p in zip(segs, blocked):
        seg.cache.clear()
        assert np.array_equal(world_propagator(seg), p)


class TestKeptSegmentArrays:
    """The segment stacks form their samples, W and chord chain in the kept
    per-thread work arrays, like the bundle transport
    (test_decoherence.py::TestAveragedState)."""

    @pytest.fixture
    def work(self, monkeypatch):
        work = transport._Workspace()
        monkeypatch.setattr(transport, "_WORK", work)
        return work

    @staticmethod
    def legs(st, static_tangent, n_samples=None):
        coords = np.array([0.0, 9.0, 1.2, 0.3])
        return [
            integrate_geodesic(st, Event(coords), static_tangent(st, coords, w), tau, n_samples=n_samples)
            for w, tau in (([0.3, 0.1, -0.2], 4.0), ([-0.2, 0.25, 0.1], 2.5))
        ]

    @staticmethod
    def propagators(segs):
        fresh = [dataclasses.replace(seg, cache={}) for seg in segs]
        return [*transport.world_propagators(*fresh), *transport.spinor_propagators(*fresh)]

    def test_segment_propagators_do_not_alias_the_kept_arrays(self, schwarzschild, static_tangent, work):
        """An orbit, then a pair of unequal legs and each leg alone, back to
        back: the later stacks overwrite the orbit's kept arrays, and no
        propagator may change with them or share their memory."""
        orbit = integrate_orbit(schwarzschild, 10.0)
        legs = self.legs(schwarzschild, static_tangent)
        first = self.propagators([orbit])
        saved = [p.copy() for p in first]
        kept = list(work.arrays.values())
        later = self.propagators(legs) + self.propagators(legs[:1]) + self.propagators(legs[1:])
        kept += work.arrays.values()
        assert {"samples", "connection", "dx", "mid", "generators", "exp", "exp_work"} <= set(work.arrays)
        assert all(np.array_equal(p, q) for p, q in zip(first, saved))
        assert not any(np.shares_memory(p, k) for p in first + later for k in kept)

    def test_concurrent_segment_transports_keep_their_own_arrays(self, schwarzschild, static_tangent):
        """Six threads transport six stacks at once, with a short switch
        interval on two cores: each thread keeps its own work arrays, so
        every propagator is the one a lone call gives."""
        legs = self.legs(schwarzschild, static_tangent) + [integrate_orbit(schwarzschild, 8.0, n_orbits=0.1)]
        stacks = [legs[:2], legs[:1], legs[1:2], legs[2:], legs[1:], legs[::2]]
        want = [self.propagators(segs) for segs in stacks]
        got = [[] for _ in stacks]

        def run(k):
            for _ in range(20):
                got[k].append(self.propagators(stacks[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(stacks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert len(g) == 20 and all(np.array_equal(p, q) for ps in g for p, q in zip(ps, w))

    def test_stack_above_the_kept_bound_allocates_per_call(self, schwarzschild, static_tangent, work):
        """Two legs of _KEPT_CHORDS // 2 + 1 chords each: each leg alone is
        transported in the kept arrays, the two stacked allocate theirs per
        call and keep none, and both give the same propagators."""
        legs = self.legs(schwarzschild, static_tangent, n_samples=transport._KEPT_CHORDS // 2 + 2)
        stacked = self.propagators(legs)
        assert work.arrays == {}
        alone = [p for ps in zip(*(self.propagators([seg]) for seg in legs)) for p in ps]
        assert work.arrays["connection"].shape == ((legs[0].n_samples + 1) * 16,)
        assert all(np.array_equal(p, q) for p, q in zip(stacked, alone))

    def test_orbit_holonomy_reuses_its_kept_arrays(self, schwarzschild, work):
        """After the first orbit has grown the kept work arrays, both routes'
        holonomy on a second orbit of the same size allocates none of them
        again: its traced peak stays below half of the first's (0.8 against
        3.7 MB)."""
        seg = integrate_orbit(schwarzschild, 10.0)

        def peak():
            fresh = dataclasses.replace(seg, cache={})
            tracemalloc.start()
            try:
                rest_frame_holonomy_angle(fresh)
                spinor_holonomy_angle(fresh)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first, second = peak(), peak()
        assert second < 0.5 * first, (first, second)


class TestTetradTransport:
    def test_orthonormality_preserved(self, schwarzschild, battery):
        for seg in battery[:5]:
            n0 = boosted_tetrad(schwarzschild, seg.start)
            moved = transport_tetrad(seg, n0)
            assert moved.defect(schwarzschild) < 1e-10
            assert np.allclose(moved.event.coords, seg.end.coords)

    def test_rejects_detached_tetrad(self, schwarzschild, battery):
        seg = battery[0]
        wrong = boosted_tetrad(schwarzschild, seg.end)
        with pytest.raises(UsageError):
            transport_tetrad(seg, wrong)

    @pytest.mark.parametrize("entry", [(0, 0), (2, 3), ...], ids=["time-leg", "spatial-leg", "all"])
    def test_rejects_nan_tetrad(self, schwarzschild, battery, entry):
        seg = battery[0]
        m = boosted_tetrad(schwarzschild, seg.start).matrix.copy()
        m[entry] = np.nan
        with pytest.raises(UsageError, match="not orthonormal"):
            transport_tetrad(seg, Tetrad(seg.start, m))

    def test_static_boosted_tetrad_is_the_frame_field(self, schwarzschild):
        """With no velocity, boosted_tetrad is the static frame field, byte for byte."""
        for coords in ([0.0, 9.0, 1.1, 0.3], [2.0, 2.5, 0.2, -3.0], [0.0, 40.0, 2.9, 1.0]):
            e = Event(np.array(coords))
            n = boosted_tetrad(schwarzschild, e)
            assert n.event is e
            assert n.matrix.tobytes() == frame_field(schwarzschild, e.coords).tobytes()


class TestSpinorTransport:
    def test_retraced_path_is_identity(self, battery, reversed_segment):
        for seg in battery[:10]:
            rev = reversed_segment(seg)
            u = spinor_propagator(rev) @ spinor_propagator(seg)
            assert np.max(np.abs(u - ID2)) < 1e-6

    @pytest.mark.parametrize("gauge", ["static", "boosted-static"])
    def test_double_cover_projection(self, battery, double_cover_defect, gauge):
        """U sigma_k U^dag realizes the vector-route frame rotation."""
        for seg in battery[:10]:
            assert double_cover_defect(seg, gauge) < 1e-6

    def test_unit_determinant(self, battery):
        for seg in battery[:10]:
            u = spinor_propagator(seg)
            assert abs(np.linalg.det(u) - 1.0) < 1e-10

    def test_flat_space_spinor_trivial(self, minkowski):
        seg = integrate_geodesic(
            minkowski, Event(np.zeros(4)), np.array([np.sqrt(2.0), 0, 1.0, 0]), 1.5
        )
        assert np.max(np.abs(spinor_propagator(seg) - ID2)) < 1e-13

    def test_zero_length_segment_transports_trivially(self, schwarzschild):
        seg = point_segment(schwarzschild, Event(np.array([0.0, 8.0, 1.2, 0.1])))
        assert np.allclose(spinor_propagator(seg), ID2)

    def test_one_knot_polygon_transports_trivially(self, schwarzschild):
        knots = np.tile([0.0, 8.0, 1.2, 0.1], (3, 1, 1))  # 3 paths of one knot
        u = polygon_spinor_transport(schwarzschild, knots)
        assert u.shape == (3, 2, 2)
        assert np.allclose(u, ID2, rtol=0.0, atol=1e-15)

    def test_spinor_route_reads_no_christoffel_symbols(self, static_tangent, monkeypatch):
        """The runtime cross-check between the routes is independent down to
        the connection: the spinor route reads neither Gamma nor W."""
        st = make_spacetime("schwarzschild", {"M": 1.0})

        def no_christoffel(x):
            raise AssertionError("the spinor route evaluated Christoffel symbols")

        def no_connection_matrix(x, u, out=None):
            raise AssertionError("the spinor route evaluated the connection matrix")

        monkeypatch.setattr(st, "christoffel", no_christoffel)
        monkeypatch.setattr(st, "connection_matrix", no_connection_matrix)
        coords = np.array([0.0, 9.0, 1.2, 0.3])
        u0 = static_tangent(st, coords, [0.3, 0.1, -0.2])
        seg = integrate_geodesic(st, Event(coords), u0, 1.5)
        assert abs(np.linalg.det(spinor_propagator(seg)) - 1.0) < 1e-10
        paths = np.stack([seg.events, seg.events[::-1]])
        assert polygon_spinor_transport(st, paths).shape == (2, 2, 2)
        orbit = integrate_orbit(st, 10.0, n_orbits=0.1)
        assert 0.0 < spinor_holonomy_angle(orbit) < np.pi
        with pytest.raises(AssertionError, match="connection matrix"):
            world_propagator(seg)

    def test_vector_route_reads_no_christoffel_symbols(self, static_tangent, monkeypatch):
        """Gamma is the test oracle only: the vector route reads the closed-form W."""
        st = make_spacetime("schwarzschild", {"M": 1.0})

        def no_christoffel(x):
            raise AssertionError("the vector route evaluated Christoffel symbols")

        monkeypatch.setattr(st, "christoffel", no_christoffel)
        coords = np.array([0.0, 9.0, 1.2, 0.3])
        seg1 = integrate_geodesic(st, Event(coords), static_tangent(st, coords, [0.3, 0.1, -0.2]), 1.5)
        seg2 = integrate_geodesic(st, Event(coords), static_tangent(st, coords, [-0.3, 0.0, 0.2]), 1.5)
        assert world_propagator(seg1).shape == (4, 4)
        orbit = integrate_orbit(st, 10.0, n_orbits=0.1)
        assert 0.0 < rest_frame_holonomy_angle(orbit)[0] < np.pi
        assert pair_transport(seg1, seg2).relative_rotation.shape == (3, 3)

    def test_lifted_spin_connection_shape(self, schwarzschild):
        x = np.array([[0.0, 8.0, 1.2, 0.1], [0.5, 9.0, 1.4, -0.3]])
        dx = np.array([[0.1, 0.02, -0.01, 0.03], [0.2, -0.05, 0.01, 0.0]])
        m = spin_connection(schwarzschild, x, dx)
        assert m.shape == (2, 2, 2)
        # each generator is traceless (sl(2,C))
        assert np.max(np.abs(np.einsum("kii->k", m))) < 1e-14


def generator_chain_expm2(a):
    """The closed form cosh(s) I + sinhc(s) a, s = sqrt(-det a), with the
    sinhc series 1 - det/6 below |s| = 1e-6: the exponential the chord
    factors were built with before they moved onto components."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    s = np.sqrt(-det + 0.0j)
    small = np.abs(s) < 1.0e-6
    s_safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 - det / 6.0, np.sinh(s_safe) / s_safe)
    return np.cosh(s)[..., None, None] * ID2 + sinhc[..., None, None] * a


CHUNKS = {
    # spacetime, parameters, start event, static-frame velocity, proper time
    "schwarzschild": ({"M": 1.0}, [0.0, 12.0, np.pi / 2.0, 0.0], [0.4, 0.0, 0.0], 2.0),
    "weak_field": ({"epsilon": 0.05}, [0.0, 3.0, 1.0, 0.5], [0.2, -0.1, 0.3], 2.0),
    "minkowski": ({}, [0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 2.0),
}


def bundle_chunk(kind, n_paths=256, sigma=0.3):
    """A bundle chunk of n_paths polygons of 160 knots (159 chords) around one leg."""
    params, x0, w, tau = CHUNKS[kind]
    st = make_spacetime(kind, params)
    x0 = np.asarray(x0, dtype=float)
    u0 = frame_field(st, x0) @ np.concatenate(([np.sqrt(1.0 + np.dot(w, w))], w))
    seg = integrate_geodesic(st, Event(x0), u0, tau, n_samples=400)
    paths = sample_bundle(seg, sigma, n_paths, 5).paths
    assert paths.shape == (n_paths, 160, 4)
    return st, paths


class TestChordFactors:
    @pytest.mark.parametrize("kind", sorted(CHUNKS))
    def test_chord_product_matches_the_generator_chain(self, kind):
        """polygon_spinor_transport against ordered_product(exp(spin_connection))
        with the pre-component exponential, within 1e-14 of the result's scale."""
        st, xs = bundle_chunk(kind)
        dx = xs[:, 1:] - xs[:, :-1]
        mid = 0.5 * xs[:, 1:] + 0.5 * xs[:, :-1]
        expected = ordered_product(generator_chain_expm2(spin_connection(st, mid, dx)))
        out = polygon_spinor_transport(st, xs)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))
        if kind == "minkowski":
            assert np.array_equal(out, np.broadcast_to(ID2, out.shape))

    @pytest.mark.parametrize("kind", sorted(CHUNKS))
    def test_reversed_chord_factor_is_the_exact_adjugate(self, kind):
        """Same midpoint, -dx: the factor is bitwise sl2_inverse of the forward
        one, for chords on both sides of the series bound |s^2| = 1e-3."""
        params, x0, _, _ = CHUNKS[kind]
        st = make_spacetime(kind, params)
        rng = np.random.default_rng(12)
        # the weak field's connection is weaker: its chords reach further
        lengths = np.geomspace(1e-4, 0.5 if kind == "schwarzschild" else 40.0, 40)
        dirs = rng.normal(size=(40, 4))
        dx = lengths[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        knots = np.stack([x0 - 0.5 * dx, x0 + 0.5 * dx], axis=1)  # 40 one-chord polygons
        forward = polygon_spinor_transport(st, knots)
        backward = polygon_spinor_transport(st, knots[:, ::-1])
        assert np.array_equal(backward, sl2_inverse(forward))
        m = spin_connection(st, 0.5 * knots[:, 1] + 0.5 * knots[:, 0], knots[:, 1] - knots[:, 0])
        z = np.abs(np.linalg.det(m))
        if kind == "minkowski":
            assert np.array_equal(forward, np.broadcast_to(ID2, forward.shape))
        else:
            assert z.min() < 1e-3 <= z.max()

    def test_spinor_route_runs_neither_expm2_nor_spin_connection(self, monkeypatch):
        """The chord factors come from the connection components alone: no
        (..., 2, 2) generator or exponential is built beside them."""
        import eprgeo.frames
        import eprgeo.lorentz

        calls = []
        for original in (eprgeo.lorentz.expm2, eprgeo.frames.spin_connection):

            def spy(*args, _name=original.__name__, _original=original):
                calls.append(_name)
                return _original(*args)

            for name, module in list(sys.modules.items()):
                if name == "eprgeo" or name.startswith("eprgeo."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, spy)
        st, xs = bundle_chunk("schwarzschild", n_paths=4)
        coords = np.array([0.0, 9.0, 1.2, 0.3])
        u0 = frame_field(st, coords) @ np.array([np.sqrt(1.14), 0.3, 0.1, -0.2])
        seg = integrate_geodesic(st, Event(coords), u0, 1.5)
        assert polygon_spinor_transport(st, xs).shape == (4, 2, 2)
        assert abs(np.linalg.det(spinor_propagator(seg)) - 1.0) < 1e-10
        assert calls == []


class TestCorrespondence:
    """Carrying a tetrad back along leg 1 and out along leg 2."""

    def test_flat_correspondence_is_identity(self, minkowski, reversed_segment):
        origin = Event(np.zeros(4))
        seg1 = integrate_geodesic(
            minkowski, origin, np.array([np.sqrt(1.25), 0.5, 0, 0]), 2.0
        )
        seg2 = integrate_geodesic(
            minkowski, origin, np.array([np.sqrt(1.25), -0.5, 0, 0]), 2.0
        )
        back = reversed_segment(seg1)
        lam = frame_propagator(seg2) @ frame_propagator(back)
        assert np.max(np.abs(lam - np.eye(4))) < 1e-12
        # spinor factor is +-identity
        u = spinor_propagator(seg2) @ spinor_propagator(back)
        assert min(np.max(np.abs(u - ID2)), np.max(np.abs(u + ID2))) < 1e-12

    def test_correspondence_fields_attached(self, schwarzschild, reversed_segment):
        rng = np.random.default_rng(11)
        from eprgeo.frames import frame_field

        coords = np.array([0.0, 10.0, 1.3, 0.2])
        n0 = frame_field(schwarzschild, coords)
        segs = []
        for _ in range(2):
            w = rng.normal(scale=0.3, size=3)
            u = n0 @ np.concatenate(([np.sqrt(1 + w @ w)], w))
            segs.append(integrate_geodesic(schwarzschild, Event(coords), u, 1.5))
        back = reversed_segment(segs[0])
        n1 = boosted_tetrad(schwarzschild, segs[0].end)
        n2 = transport_tetrad(segs[1], transport_tetrad(back, n1))
        assert np.allclose(n2.event.coords, segs[1].end.coords)
        assert n2.defect(schwarzschild) < 1e-9
        lam = frame_propagator(segs[1]) @ frame_propagator(back)
        from eprgeo.lorentz import ETA

        assert np.max(np.abs(lam.T @ ETA @ lam - ETA)) < 1e-9

    def test_rejects_mismatched_origins(self, battery):
        seg1, seg2 = battery[0], battery[1]  # different random origins
        with pytest.raises(UsageError):
            pair_transport(seg1, seg2)


def static_rest_frame_rotation(seg):
    st = seg.spacetime
    return rest_frame_rotation(
        seg, boosted_tetrad(st, seg.start), boosted_tetrad(st, seg.end)
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


# The local gauge of the covariance oracle: frames N' = N Lambda(x) with
# Lambda = R12(alpha) B1(beta), alpha = 0.7 x^3 + 0.3 x^1, beta = 0.2 (x^1 - 6),
# so it rotates and boosts, and both vary along the leg.
_G_ROT = np.zeros((4, 4))
_G_ROT[2, 1], _G_ROT[1, 2] = 1.0, -1.0
_G_BOOST = np.zeros((4, 4))
_G_BOOST[0, 1] = _G_BOOST[1, 0] = 1.0
_LOWER = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


def _gauge_angles(x):
    return 0.7 * x[..., 3] + 0.3 * x[..., 1], 0.2 * (x[..., 1] - 6.0)


def _gauge_map(x):
    """Lambda(x) = R12(alpha) B1(beta) and its factor B1(beta), batched."""
    alpha, beta = _gauge_angles(x)
    rot = np.broadcast_to(np.eye(4), alpha.shape + (4, 4)).copy()
    rot[..., 1, 1] = rot[..., 2, 2] = np.cos(alpha)
    rot[..., 2, 1] = np.sin(alpha)
    rot[..., 1, 2] = -np.sin(alpha)
    boost = np.broadcast_to(np.eye(4), beta.shape + (4, 4)).copy()
    boost[..., 0, 0] = boost[..., 1, 1] = np.cosh(beta)
    boost[..., 0, 1] = boost[..., 1, 0] = np.sinh(beta)
    return rot @ boost, boost


def _gauge_lift(x):
    """S(Lambda(x)), the SL(2,C) lift: exp of the lifted rotation times exp of the lifted boost."""
    alpha, beta = _gauge_angles(np.asarray(x))
    return expm2(lift_so13(alpha * _G_ROT)) @ expm2(lift_so13(beta * _G_BOOST))


class LocallyGaugedSpacetime:
    """A spacetime whose static frames are turned by Lambda(x).

    Everything but static_connection is the base spacetime's.  Under N' =
    N Lambda the frame connection along a chord becomes Lambda^-1 (M dx)
    Lambda + Lambda^-1 dLambda, with M dx = eta A from the base's six
    coefficients and Lambda^-1 dLambda = B^-1 G_R B dalpha + G_B dbeta.
    ``sign`` = -1 flips the gauge term, a wrong law for the control.
    """

    def __init__(self, base, sign=1.0):
        self.base, self.sign = base, sign

    def __getattr__(self, name):
        return getattr(self.base, name)

    def static_connection(self, x, dx):
        ks = self.base.static_connection(x, dx)
        a = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(dx))[:-1] + (4, 4))
        for (i, j), k in zip(_LOWER, ks):
            a[..., i, j], a[..., j, i] = k, -k
        lam, boost = _gauge_map(x)
        dalpha = 0.7 * dx[..., 3] + 0.3 * dx[..., 1]
        dbeta = 0.2 * dx[..., 1]
        lam_inv = ETA @ np.swapaxes(lam, -1, -2) @ ETA
        boost_inv = ETA @ np.swapaxes(boost, -1, -2) @ ETA
        gauge_term = dalpha[..., None, None] * (boost_inv @ _G_ROT @ boost) + dbeta[..., None, None] * _G_BOOST
        a_new = ETA @ (lam_inv @ (ETA @ a) @ lam + self.sign * gauge_term)
        assert np.max(np.abs(a_new + np.swapaxes(a_new, -1, -2))) < 1e-12
        return tuple(a_new[..., i, j] for i, j in _LOWER)


def local_gauge_error(st, sample_step, sign=1.0):
    """max |U' - S(x1)^-1 U S(x0)| on one leg, U' the spinor route in the gauge frames."""
    coords = np.array([0.0, 6.0, 1.3, 0.2])
    w = np.array([0.4, 0.5, 0.9])
    u0 = frame_field(st, coords) @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))
    seg = integrate_geodesic(st, Event(coords), u0, 3.0, n_samples=samples_for(3.0, sample_step))
    gauged = GeodesicSegment(LocallyGaugedSpacetime(st, sign), seg.tau, seg.events, seg.tangents)
    u = spinor_propagator(seg)
    expected = sl2_inverse(_gauge_lift(seg.events[-1])) @ u @ _gauge_lift(seg.events[0])
    return float(np.max(np.abs(spinor_propagator(gauged) - expected)))


@pytest.mark.parametrize(
    "kind, params, bound",
    [("schwarzschild", {"M": 1.0}, 5.0e-7), ("weak_field", {"epsilon": 0.05}, 2.0e-6), ("minkowski", None, 2.0e-6)],
    ids=["schwarzschild", "weak-field", "minkowski"],
)
def test_spinor_route_is_covariant_under_a_local_gauge(kind, params, bound):
    """U' = S(Lambda(x1))^-1 U S(Lambda(x0)) under a position-dependent gauge.

    A constant gauge cancels by conjugation; a local one tests the spin
    connection itself, up to the chord law's second-order error.  In
    Minkowski the whole connection is pure gauge.  At the default sample
    step the error is 4.44e-7 (Schwarzschild), 1.78e-6 (weak field) and
    1.80e-6 (Minkowski), where the leg's Cartesian x^3 turns the gauge
    faster; each halving divides it by 4.00.
    """
    st = make_spacetime(kind, params)
    coarse = local_gauge_error(st, DEFAULT_SAMPLE_STEP)
    ratio = coarse / local_gauge_error(st, DEFAULT_SAMPLE_STEP / 2.0)
    # the wrong sign of the gauge term is no discretization error
    flipped = local_gauge_error(st, DEFAULT_SAMPLE_STEP, sign=-1.0)
    ok = coarse < bound and 3.5 <= ratio <= 4.5 and flipped > 0.1
    print(
        f"local gauge oracle ({kind}) {'PASS' if ok else 'FAIL'}: error {coarse:.3e} (bound {bound:.0e}), "
        f"halving ratio {ratio:.3f} (needs [3.5, 4.5]), flipped-sign error {flipped:.3f} (needs > 0.1)"
    )
    assert coarse < bound
    assert 3.5 <= ratio <= 4.5
    assert flipped > 0.1
