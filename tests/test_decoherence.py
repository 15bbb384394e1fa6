"""Path-bundle sampling and the averaged spin state it produces.

The frozen fidelity values in TestRegression were produced by this same
configuration and are pinned so refactors cannot silently change the
channel.  Everything else is checked against construction invariants
(pinned endpoints, envelope width, exact sigma=0 limit) or against the
flat-spacetime case where the channel must do nothing.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import gauge_closed_pair
from eprgeo import (
    Event,
    averaged_state,
    averaged_states,
    correlation_matrix,
    degraded_correlation,
    fidelity_with_error,
    integrate_geodesic,
    make_spacetime,
    pair_transport,
    sample_bundle,
)
from eprgeo import decoherence as deco
from eprgeo import transport
from eprgeo.decoherence import MAX_BUNDLE_KNOTS, ChannelAverage, _combine, _decimate
from eprgeo.errors import DomainError, UsageError
from eprgeo.frames import frame_field
from eprgeo.geodesic import point_segment, samples_for
from eprgeo.lorentz import ID2, rotation_matrix_from_su2, su2_polar
from eprgeo.spin import SINGLET, pair_state
from eprgeo.transport import polygon_spinor_transport

DECAY = np.array([0.0, 12.0, np.pi / 2.0, 0.0])
TAU = 2.0


@pytest.fixture(scope="module")
def legs(schwarzschild, static_tangent):
    e0 = Event(DECAY)
    u1 = static_tangent(schwarzschild, DECAY, [0.4, 0.0, 0.0])
    u2 = static_tangent(schwarzschild, DECAY, [-0.3, 0.0, 0.3])
    s1 = integrate_geodesic(schwarzschild, e0, u1, TAU, n_samples=samples_for(TAU))
    s2 = integrate_geodesic(schwarzschild, e0, u2, TAU, n_samples=samples_for(TAU))
    return s1, s2


@pytest.fixture(scope="module")
def pair(legs):
    return pair_transport(*legs)


def einsum_bundle_paths(seg, sigma, n_paths, seed):
    """The bundle's first draw, with the full static spatial legs (K+1, 4, 3)
    contracted against the displacements by einsum."""
    idx = _decimate(seg.n_samples)
    taus = seg.tau[idx] - seg.tau[0]
    knots = seg.events[idx]
    length = taus[-1]
    t_int = taus[1:-1]
    legs = frame_field(seg.spacetime, knots)[..., 1:]
    dtau = np.diff(taus)
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal((n_paths, len(dtau), 3)) * np.sqrt(dtau)[:, None]
    w = np.cumsum(dw, axis=1)
    bridge = w[:, :-1, :] - (t_int / length)[None, :, None] * w[:, -1:, :]
    unit = bridge / np.sqrt(t_int * (length - t_int) / length)[None, :, None]
    delta = sigma * np.sin(np.pi * t_int / length)[None, :, None] * unit
    out = np.broadcast_to(knots, (n_paths,) + knots.shape).copy()
    out[:, 1:-1, :] += np.einsum("kaj,nkj->nka", legs[1:-1], delta)
    return out


class TestSampling:
    @pytest.mark.parametrize(
        "kind, params, coords, w",
        [
            ("schwarzschild", {"M": 1.0}, [0.0, 12.0, 1.3, 0.2], [0.3, 0.1, 0.05]),
            ("weak_field", {"epsilon": 0.05}, [0.0, 3.0, 1.0, 0.5], [0.2, -0.1, 0.3]),
        ],
    )
    def test_paths_match_the_einsum_over_the_static_legs(
        self, static_tangent, kind, params, coords, w
    ):
        """The static frame is diagonal, so scaling by its diagonal draws
        bitwise the paths the full leg contraction draws."""
        st = make_spacetime(kind, params)
        u = static_tangent(st, coords, w)
        seg = integrate_geodesic(st, Event(np.array(coords)), u, 3.0, n_samples=400)
        for seed in (1, 2, 3):
            b = sample_bundle(seg, 0.05, 300, seed)
            assert b.meta["resample_rounds"] == 0
            assert np.array_equal(b.paths, einsum_bundle_paths(seg, 0.05, 300, seed))

    def test_zero_width_reproduces_base(self, legs):
        b = sample_bundle(legs[0], 0.0, 5, 3)
        assert np.array_equal(b.paths, np.broadcast_to(b.base_knots, b.paths.shape))

    def test_endpoints_pinned_exactly(self, legs):
        b = sample_bundle(legs[0], 0.7, 50, 3)
        assert np.array_equal(b.paths[:, 0], np.broadcast_to(b.base_knots[0], (50, 4)))
        assert np.array_equal(b.paths[:, -1], np.broadcast_to(b.base_knots[-1], (50, 4)))

    def test_envelope_width_at_midpoint(self, schwarzschild, legs):
        # per-knot displacement is drawn with sd sigma*sin(pi tau/L) along
        # each static spatial leg, so the proper spread at the knot nearest
        # the middle must match that envelope up to Monte-Carlo error
        sigma = 0.5
        b = sample_bundle(legs[0], sigma, 10_000, 9)
        k = np.argmin(np.abs(b.taus - b.taus[-1] / 2.0))
        d = b.paths[:, k] - b.base_knots[k]
        g = schwarzschild.metric(b.base_knots[k])
        sq = np.einsum("na,a,na->n", d, g, d)
        per_axis = np.sqrt(np.mean(sq) / 3.0)
        expected = sigma * np.sin(np.pi * b.taus[k] / b.taus[-1])
        assert per_axis == pytest.approx(expected, rel=0.1)

    def test_same_seed_is_bit_identical(self, legs):
        b1 = sample_bundle(legs[0], 0.4, 30, 17)
        b2 = sample_bundle(legs[0], 0.4, 30, 17)
        assert np.array_equal(b1.paths, b2.paths)

    def test_different_seeds_differ(self, legs):
        b1 = sample_bundle(legs[0], 0.4, 30, 17)
        b2 = sample_bundle(legs[0], 0.4, 30, 18)
        assert not np.allclose(b1.paths, b2.paths)

    def test_long_segments_are_decimated(self, schwarzschild, static_tangent):
        u = static_tangent(schwarzschild, DECAY, [0.2, 0.0, 0.1])
        seg = integrate_geodesic(schwarzschild, Event(DECAY), u, 3.0, n_samples=501)
        b = sample_bundle(seg, 0.1, 3, 0)
        k = b.base_knots.shape[0]
        assert k <= MAX_BUNDLE_KNOTS
        idx = _decimate(seg.n_samples)
        assert idx[0] == 0 and idx[-1] == 500
        assert np.array_equal(b.base_knots, seg.events[idx])
        assert np.array_equal(b.taus, seg.tau[idx])

    def test_hopeless_width_raises(self, legs):
        with pytest.raises(DomainError, match="reduce sigma"):
            sample_bundle(legs[0], 50.0, 8, 1)

    def test_argument_validation(self, legs):
        with pytest.raises(UsageError):
            sample_bundle(legs[0], -0.1, 5, 0)
        with pytest.raises(UsageError):
            sample_bundle(legs[0], 0.1, 0, 0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(UsageError, match="finite"):
                sample_bundle(legs[0], sigma, 5, 0)

    def test_resample_rounds_count_redraws(self, legs, monkeypatch):
        assert sample_bundle(legs[0], 0.4, 30, 17).meta["resample_rounds"] == 0
        # push one path of the first draw out of the chart: one redraw round
        cls = type(legs[0].spacetime)
        in_chart = cls.in_chart
        calls = []

        def first_draw_loses_a_path(self, x):
            ok = in_chart(self, x)
            calls.append(ok.shape)
            if len(calls) == 1:
                ok = ok.copy()
                ok[0, 1] = False
            return ok

        monkeypatch.setattr(cls, "in_chart", first_draw_loses_a_path)
        assert sample_bundle(legs[0], 0.4, 30, 17).meta["resample_rounds"] == 1
        assert calls[1][0] == 1

    def test_knot_cache_serves_every_sigma_of_one_leg(self, schwarzschild, static_tangent, monkeypatch):
        u = static_tangent(schwarzschild, DECAY, [0.2, 0.0, 0.1])
        seg = integrate_geodesic(schwarzschild, Event(DECAY), u, 3.0, n_samples=501)
        calls = []

        def counting(st, x, *rest, _original=deco.frame_field):
            calls.append(np.shape(x))
            return _original(st, x, *rest)

        monkeypatch.setattr(deco, "frame_field", counting)
        bundles = [sample_bundle(seg, sigma, 20, 3 + k) for k, sigma in enumerate((0.0, 0.1, 0.3, 0.1))]
        # one static-frame evaluation over the decimated knots serves all four
        assert calls == [(len(_decimate(seg.n_samples)), 4)]
        leg = seg.cache["bundle_knots"]
        assert all(b.base_knots is leg.knots and b.taus is leg.taus for b in bundles)
        assert np.array_equal(bundles[1].paths, sample_bundle(seg, 0.1, 20, 4).paths)
        assert not np.array_equal(bundles[1].paths, bundles[3].paths)
        # the cached arrays are read-only: a draw cannot write into them
        with pytest.raises(ValueError):
            leg.knots[1, 1] = 0.0

    def test_knot_cache_is_never_shared_between_legs(self, legs):
        b1 = sample_bundle(legs[0], 0.1, 5, 0)
        b2 = sample_bundle(legs[1], 0.1, 5, 0)
        k1, k2 = legs[0].cache["bundle_knots"], legs[1].cache["bundle_knots"]
        assert k1 is not k2 and b1.base_knots is k1.knots and b2.base_knots is k2.knots
        for seg, knots in zip(legs, (k1, k2)):
            idx = _decimate(seg.n_samples)
            assert np.array_equal(knots.knots, seg.events[idx])
            assert np.array_equal(knots.taus, seg.tau[idx] - seg.tau[0])
        assert not np.array_equal(k1.knots, k2.knots)

    def test_zero_length_segment_rejected(self, schwarzschild, static_tangent):
        u = static_tangent(schwarzschild, DECAY, [0.0, 0.0, 0.0])
        seg = point_segment(schwarzschild, Event(DECAY), u)
        with pytest.raises(UsageError):
            sample_bundle(seg, 0.1, 5, 0)


class TestAveragedState:
    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_density_is_valid(self, legs, pair, mode):
        b1 = sample_bundle(legs[0], 0.6, 60, 5)
        b2 = sample_bundle(legs[1], 0.6, 60, 6)
        avg = averaged_state(pair, b1, b2, mode)
        rho = avg.rho
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
        purity = np.trace(rho @ rho).real
        if mode == "coherent":
            assert purity == pytest.approx(1.0, abs=1e-12)
        else:
            assert purity <= 1.0 + 1e-12

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_zero_width_fidelity_is_one(self, legs, pair, mode):
        b1 = sample_bundle(legs[0], 0.0, 4, 5)
        b2 = sample_bundle(legs[1], 0.0, 4, 6)
        assert averaged_state(pair, b1, b2, mode).fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_zero_width_bundle_reuses_the_base_map(self, legs, pair, mode, monkeypatch):
        b1 = sample_bundle(legs[0], 0.0, 20, 5)
        b2 = sample_bundle(legs[1], 0.0, 20, 6)
        assert b1.meta["resample_rounds"] == b2.meta["resample_rounds"] == 0
        cls = type(legs[0].spacetime)
        shapes = {"metric": [], "static_connection": []}
        for name, calls in shapes.items():
            original = getattr(cls, name)

            def recording(self, x, *rest, _original=original, _calls=calls):
                _calls.append(np.shape(x))
                return _original(self, x, *rest)

            monkeypatch.setattr(cls, name, recording)
        avg = averaged_state(pair, b1, b2, mode)
        monkeypatch.undo()
        # each leg's base polygon is transported once, as the lone row of its
        # stack, and no metric or connection evaluation spans more points than
        # one polygon has chords: none spans the (n_paths, knots, 4) path batch
        assert len(shapes["static_connection"]) == 2
        chords = max(len(b.base_knots) for b in (b1, b2)) - 1
        assert all(np.prod(s[:-1]) <= chords for calls in shapes.values() for s in calls)
        # every path carries the base term: the base map with phase 1, or
        # its rotation
        t1, t2 = avg.terms
        shape = (20, 2, 2) if mode == "coherent" else (20, 3, 3)
        assert t1.shape == t2.shape == shape
        assert np.array_equal(t1, np.broadcast_to(t1[0], t1.shape))
        assert np.array_equal(t2, np.broadcast_to(t2[0], t2.shape))

        def base_map(leg, b):
            return pair.spin_map(leg, polygon_spinor_transport(b.base.spacetime, b.base_knots))

        base1, base2 = base_map(1, b1), base_map(2, b2)
        term = (lambda m: m) if mode == "coherent" else rotation_matrix_from_su2
        assert np.array_equal(t1[0], term(base1)) and np.array_equal(t2[0], term(base2))
        assert np.array_equal(pair_state(base1, base2), avg.reference_state)
        fid, se = fidelity_with_error(avg)
        assert se == 0.0
        assert fid == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_sweep_matches_separate_calls(self, legs, pair, mode):
        """Stacking three bundles per leg, 601 rows in chunks of 256 that
        straddle the bundles, changes no bit of any bundle's average."""
        sigmas = (0.0, 0.1, 0.3)
        b1s = [sample_bundle(legs[0], s, 300, 5 + 2 * k) for k, s in enumerate(sigmas)]
        b2s = [sample_bundle(legs[1], s, 300, 6 + 2 * k) for k, s in enumerate(sigmas)]
        swept = averaged_states(pair, b1s, b2s, mode)
        assert len(swept) == len(sigmas)
        for avg, b1, b2 in zip(swept, b1s, b2s):
            alone = averaged_state(pair, b1, b2, mode)
            assert all(np.array_equal(t, u) for t, u in zip(avg.terms, alone.terms))
            assert np.array_equal(avg.rho, alone.rho)
            assert np.array_equal(avg.reference_state, alone.reference_state)
            assert avg.zero_width == alone.zero_width == (b1.sigma == 0.0)
        assert averaged_states(pair, [], [], mode) == []

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_bundle_results_do_not_alias_the_kept_arrays(self, legs, pair, mode, monkeypatch):
        """Two transports, then two channel averages, on different stacks back
        to back: the second call of each pair overwrites the kept work arrays,
        and no result of the first may change with them or share their memory."""
        work = transport._Workspace()
        monkeypatch.setattr(transport, "_WORK", work)
        st = legs[0].spacetime
        b1s = [sample_bundle(legs[0], s, 150, 5 + 2 * k) for k, s in enumerate((0.2, 0.4))]
        b2s = [sample_bundle(legs[1], s, 150, 6 + 2 * k) for k, s in enumerate((0.2, 0.4))]
        kept, firsts, seconds = [], [], []
        for run in (
            lambda b1, b2: [polygon_spinor_transport(st, b1.paths)],
            lambda b1, b2: [
                a for avg in averaged_states(pair, [b1], [b2], mode) for a in (avg.rho, *avg.terms, avg.reference_state)
            ],
        ):
            first = run(b1s[0], b2s[0])
            saved = [a.copy() for a in first]
            kept += work.arrays.values()
            second = run(b1s[1], b2s[1])
            kept += work.arrays.values()
            assert not np.array_equal(first[0], second[0])
            assert all(np.array_equal(a, b) for a, b in zip(first, saved))
            firsts += first
            seconds += second
        assert len(firsts) == len(seconds) == 5 and kept
        assert not any(np.shares_memory(r, k) for r in firsts + seconds for k in kept)

    def test_concurrent_bundle_transports_keep_their_own_arrays(self, legs):
        """Six threads transport six stacks at once, with a short switch
        interval on two cores: each thread keeps its own work arrays, so
        every result is the one a lone call gives."""
        st = legs[0].spacetime
        stacks = [sample_bundle(legs[k % 2], 0.1 * (k + 1), 60, k).paths for k in range(6)]
        want = [polygon_spinor_transport(st, xs) for xs in stacks]
        got = [[] for _ in stacks]

        def run(k):
            for _ in range(20):
                got[k].append(polygon_spinor_transport(st, stacks[k]))

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
        assert all(len(g) == 20 and all(np.array_equal(u, w) for u in g) for g, w in zip(got, want))

    def test_bundle_channel_reuses_its_kept_arrays(self, legs, pair, monkeypatch):
        """After the first call has grown the kept work arrays, a second call
        on a stack of the same shape allocates none of its chord-shaped
        arrays: its traced peak stays below half of the first call's."""
        monkeypatch.setattr(transport, "_WORK", transport._Workspace())
        b1 = sample_bundle(legs[0], 0.3, 200, 5)
        b2 = sample_bundle(legs[1], 0.3, 200, 6)

        def peak():
            tracemalloc.start()
            try:
                averaged_states(pair, [b1], [b2], "coherent")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first, second = peak(), peak()
        assert second < 0.5 * first, (first, second)
        # what stays kept is bounded by one chunk of the longest decimated legs
        assert transport._KEPT_CHORDS == deco._CHUNK * (MAX_BUNDLE_KNOTS - 1)

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    @pytest.mark.parametrize("n_paths", [7, 20, 25])
    def test_zero_width_error_bar_is_zero_for_any_path_count(self, legs, pair, mode, n_paths):
        # 7 and 25 paths do not split into ten equal blocks, and unequal
        # blocks of identical paths differ by round-off alone
        b1 = sample_bundle(legs[0], 0.0, n_paths, 5)
        b2 = sample_bundle(legs[1], 0.0, n_paths, 6)
        assert fidelity_with_error(averaged_state(pair, b1, b2, mode))[1] == 0.0
        # a pair with one wide bundle keeps its block estimate
        wide = sample_bundle(legs[1], 0.3, n_paths, 6)
        assert fidelity_with_error(averaged_state(pair, b1, wide, mode))[1] > 0.0

    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_boosted_gauge_pair_degrades_like_the_static_pair(
        self, schwarzschild, static_tangent, legs, mode, sigma
    ):
        """The same bundles around a boosted-static and a static pair give one channel.

        The boosted pair (``conftest.gauge_closed_pair``) conjugates every
        path transport by the gauge lift and its gauge-frame factors undo
        it, so the gauges agree to round-off (3e-16 in rho); the pipeline's
        own closing reads no gauge.  Path maps closed without the lift
        would leave a gap of 4e-4 in rho at sigma = 0 and 0.3.
        """
        v = static_tangent(schwarzschild, DECAY, [0.2, -0.1, 0.15])
        static = pair_transport(*legs, decay_velocity=v)
        boosted = gauge_closed_pair(static, "boosted-static")
        b1 = sample_bundle(legs[0], sigma, 40, 11)
        b2 = sample_bundle(legs[1], sigma, 40, 12)
        avg_s = averaged_state(static, b1, b2, mode)
        avg_b = averaged_state(boosted, b1, b2, mode)
        assert np.max(np.abs(avg_b.rho - avg_s.rho)) < 1e-12
        fid_err = np.subtract(fidelity_with_error(avg_b), fidelity_with_error(avg_s))
        assert np.max(np.abs(fid_err)) < 1e-12
        axes = np.random.default_rng(3).normal(size=(4, 2, 3))
        for a, b in axes / np.linalg.norm(axes, axis=-1, keepdims=True):
            e_s = degraded_correlation(avg_s, a, b)
            assert abs(degraded_correlation(avg_b, a, b) - e_s) < 1e-12

    def test_small_width_continuity(self, legs, pair):
        sigma = 1.0e-6 * TAU
        b1 = sample_bundle(legs[0], sigma, 100, 5)
        b2 = sample_bundle(legs[1], sigma, 100, 6)
        assert averaged_state(pair, b1, b2, "incoherent").fidelity >= 1.0 - 1e-6

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_flat_spacetime_channel_is_trivial(self, minkowski, sigma):
        # flat polygon transports are all exactly the identity, so no
        # amount of path spread can degrade the incoherent average
        e0 = Event(np.zeros(4))
        u1 = np.array([np.sqrt(1.16), 0.4, 0.0, 0.0])
        u2 = np.array([np.sqrt(1.25), -0.5, 0.0, 0.0])
        s1 = integrate_geodesic(minkowski, e0, u1, TAU, n_samples=samples_for(TAU))
        s2 = integrate_geodesic(minkowski, e0, u2, TAU, n_samples=samples_for(TAU))
        b1 = sample_bundle(s1, sigma, 80, 5)
        b2 = sample_bundle(s2, sigma, 80, 6)
        avg = averaged_state(pair_transport(s1, s2), b1, b2, "incoherent")
        assert avg.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_unknown_mode_rejected(self, legs, pair):
        b1 = sample_bundle(legs[0], 0.1, 4, 5)
        b2 = sample_bundle(legs[1], 0.1, 4, 6)
        with pytest.raises(UsageError, match="unknown averaging mode"):
            averaged_state(pair, b1, b2, "fancy")

    def test_bundles_off_the_pair_legs_rejected(self, schwarzschild, static_tangent, legs, pair):
        other = np.array([0.0, 14.0, np.pi / 2.0, 0.2])
        u = static_tangent(schwarzschild, other, [0.1, 0.0, 0.0])
        seg = integrate_geodesic(
            schwarzschild, Event(other), u, TAU, n_samples=samples_for(TAU)
        )
        b1 = sample_bundle(legs[0], 0.1, 4, 5)
        b2 = sample_bundle(legs[1], 0.1, 4, 6)
        other_event = sample_bundle(seg, 0.1, 4, 6)
        for wrong in ((b2, b1), (b1, b1), (b1, other_event), (other_event, b2)):
            with pytest.raises(UsageError, match="pair's legs"):
                averaged_state(pair, *wrong)
        with pytest.raises(UsageError, match="one bundle around each leg"):
            averaged_states(pair, [b1, b1], [b2])


def _kron_left(w):
    """kron(W, I2) for a batch of 2x2 matrices."""
    return np.einsum("...ij,kl->...ikjl", w, ID2).reshape(w.shape[:-2] + (4, 4))


def _kron_right(w):
    """kron(I2, W) for a batch of 2x2 matrices."""
    return np.einsum("ij,...kl->...ikjl", ID2, w).reshape(w.shape[:-2] + (4, 4))


def conjugation_average(maps1, maps2):
    """The uniform mixture of (W1 x W2) P0 (W1 x W2)^dagger over all path
    pairs, conjugated as explicit 4x4 operators one particle at a time."""
    p0 = np.outer(SINGLET, SINGLET.conj())
    w1 = np.full(len(maps1), 1.0 / len(maps1))
    w2 = np.full(len(maps2), 1.0 / len(maps2))
    x = _kron_right(maps2)
    t = np.einsum("p,pij,jk,plk->il", w2, x, p0, x.conj())
    y = _kron_left(maps1)
    rho = np.einsum("p,pij,jk,plk->il", w1, y, t, y.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class TestIncoherentClosedForm:
    @pytest.mark.parametrize("n1, n2", [(1, 1), (3, 17), (40, 9), (250, 401)])
    def test_fano_form_matches_conjugation_average(self, n1, n2):
        rng = np.random.default_rng(n1 * 1000 + n2)

        def random_su2(n):
            m = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            return su2_polar(m / np.sqrt(np.linalg.det(m))[:, None, None])[0]

        maps1, maps2 = random_su2(n1), random_su2(n2)
        r1 = rotation_matrix_from_su2(maps1).mean(axis=0)
        r2 = rotation_matrix_from_su2(maps2).mean(axis=0)
        rho = _combine(r1, r2, "incoherent")
        assert np.max(np.abs(rho - conjugation_average(maps1, maps2))) < 1e-14


class TestCorrelation:
    def test_zero_width_matched_anticorrelation(self, legs, pair):
        b1 = sample_bundle(legs[0], 0.0, 4, 21)
        b2 = sample_bundle(legs[1], 0.0, 4, 22)
        avg = averaged_state(pair, b1, b2, "incoherent")
        m = correlation_matrix(avg.state)
        a = np.array([0.0, 0.0, 1.0])
        b = -(m.T @ a)
        b /= np.linalg.norm(b)
        assert degraded_correlation(avg, a, b) == pytest.approx(-1.0, abs=1e-6)

    def test_maximally_mixed_state_is_uncorrelated(self):
        avg = ChannelAverage(
            np.eye(4, dtype=complex) / 4.0,
            "incoherent",
            (np.eye(3)[None], np.eye(3)[None]),
            SINGLET,
            False,
        )
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])
        assert degraded_correlation(avg, a, b) == pytest.approx(0.0, abs=1e-12)


class TestRegression:
    # frozen from a reference run of this exact configuration: incoherent
    # mode, 400 paths per leg, seeds 21/22
    PINNED = {
        0.3: 0.9999999759434384,
        0.6: 0.999999815877898,
        1.2: 0.9999978325905637,
    }

    def test_pinned_fidelities_and_monotone_decay(self, legs, pair):
        got = {}
        errs = {}
        for sigma, expected in self.PINNED.items():
            b1 = sample_bundle(legs[0], sigma, 400, 21)
            b2 = sample_bundle(legs[1], sigma, 400, 22)
            f, se = fidelity_with_error(averaged_state(pair, b1, b2, "incoherent"))
            got[sigma], errs[sigma] = f, se
            assert f == pytest.approx(expected, abs=1e-9)
            assert f <= 1.0 + 1e-12
            assert se >= 0.0
        assert got[0.3] > got[0.6] > got[1.2]
