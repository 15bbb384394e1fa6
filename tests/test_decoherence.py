"""Path-bundle sampling and the averaged spin state it produces.

The frozen fidelity values in TestRegression were produced by this same
configuration and are pinned so refactors cannot silently change the
channel.  Everything else is checked against construction invariants
(pinned endpoints, envelope width, exact sigma=0 limit) or against the
flat-spacetime case where the channel must do nothing.
"""

import numpy as np
import pytest

from eprgeo import (
    Event,
    averaged_state,
    correlation_matrix,
    degraded_correlation,
    fidelity_with_error,
    integrate_geodesic,
    pair_transport,
    sample_bundle,
)
from eprgeo.decoherence import MAX_BUNDLE_KNOTS, ChannelAverage
from eprgeo.errors import DomainError, UsageError
from eprgeo.geodesic import point_segment, samples_for
from eprgeo.spin import SINGLET, pair_state

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


class TestSampling:
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
        sq = np.einsum("na,ab,nb->n", d, g, d)
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
        idx = b.meta["knot_indices"]
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
        metric = cls.metric
        shapes = []

        def recording_metric(self, x):
            shapes.append(np.shape(x))
            return metric(self, x)

        monkeypatch.setattr(cls, "metric", recording_metric)
        avg = averaged_state(pair, b1, b2, mode)
        monkeypatch.undo()
        # no metric evaluation spans the (n_paths, knots, 4) path batch
        assert shapes and all(len(s) <= 2 for s in shapes)
        for w in avg.weights:
            assert np.array_equal(w, np.full(20, 1.0 / 20))
        maps1, maps2 = avg.transports
        assert maps1.shape == maps2.shape == (20, 2, 2)
        assert np.array_equal(maps1, np.broadcast_to(maps1[0], maps1.shape))
        assert np.array_equal(maps2, np.broadcast_to(maps2[0], maps2.shape))
        assert np.array_equal(pair_state(maps1[0], maps2[0]), avg.reference_state)
        fid, se = fidelity_with_error(avg)
        assert se == 0.0
        assert fid == pytest.approx(1.0, abs=1e-12)

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
            (np.eye(2, dtype=complex)[None], np.eye(2, dtype=complex)[None]),
            (np.ones(1), np.ones(1)),
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
