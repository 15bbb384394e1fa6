"""Shared fixtures: spacetimes, the random Schwarzschild segment battery, and
the test-side helpers that reverse a segment and compare the two transport
routes through the double cover.

``vector_action``, ``pure_boost``, ``pure_boost_sl2``, ``reverse``,
``gauge_frame``, ``gauge_lift`` and ``gauge_closed_pair`` are plain
functions, imported by the test modules with ``from conftest import ...``;
the package itself never needs them.  The two boosts are the closed forms
the package builds its frames from, taken from any timelike velocity.
"""

import dataclasses

import numpy as np
import pytest

from eprgeo import Event, integrate_geodesic, make_spacetime
from eprgeo.frames import check_gauge, frame_field, gauge_boost
from eprgeo.geodesic import GeodesicSegment
from eprgeo.lorentz import ETA, ID2, PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, _boost, _boost_sl2, _unit_timelike, sl2_inverse
from eprgeo.pipeline import PairResult
from eprgeo.spin import TwoQubitState, pair_state
from eprgeo.transport import frame_propagator, spinor_propagator


def vector_action(a: np.ndarray) -> np.ndarray:
    """The 4x4 Lorentz matrix induced by A in SL(2,C) (single matrix)."""
    a = np.asarray(a, dtype=complex)
    basis = (ID2, -SIGMA_X, -SIGMA_Y, -SIGMA_Z)
    L = np.empty((4, 4))
    for b, Xb in enumerate(basis):
        y = a @ Xb @ a.conj().T
        L[0, b] = 0.5 * np.trace(y).real
        for j in range(3):
            L[j + 1, b] = -0.5 * np.trace(PAULI[j] @ y).real
    return L


def pure_boost(u_hat: np.ndarray) -> np.ndarray:
    """The symmetric Lorentz boost mapping (1,0,0,0) to the unit timelike u_hat."""
    return _boost(_unit_timelike(u_hat))


def pure_boost_sl2(u_hat: np.ndarray) -> np.ndarray:
    """SL(2,C) lift of pure_boost(u_hat): Hermitian positive, determinant one."""
    return _boost_sl2(_unit_timelike(u_hat))


def gauge_frame(st, coords: np.ndarray, gauge: str) -> np.ndarray:
    """The frame of ``gauge`` at coords (batched): the static frame_field,
    times the constant gauge_boost() in the boosted-static gauge."""
    check_gauge(gauge)
    n = frame_field(st, coords)
    return n if gauge == "static" else n @ gauge_boost()


def gauge_lift(gauge: str) -> np.ndarray:
    """SL(2,C) lift K of the static-to-gauge frame boost: U in static frames is K^-1 U K."""
    check_gauge(gauge)
    return ID2 if gauge == "static" else pure_boost_sl2(gauge_boost()[:, 0])


def gauge_closed_pair(pair: PairResult, gauge: str) -> PairResult:
    """A copy of ``pair`` whose spin maps close every transport in ``gauge``.

    Each static-frame transport U is conjugated into the gauge frames,
    K^-1 U K, and closed by the gauge-frame factors K^-1 pre and post K,
    K = gauge_lift(gauge).  The lift cancels in exact arithmetic, so the
    copy's spins, state and bundle channel agree with the pair's to
    round-off; a wrong lift or a transport left in static frames does not.
    """
    k = gauge_lift(gauge)
    k_inv = sl2_inverse(k)
    factors = tuple((k_inv @ pre, post @ k) for pre, post in pair.conjugation_factors)
    closed = dataclasses.replace(pair, conjugation_factors=factors)
    closed.spin_map = lambda leg, u: PairResult.spin_map(closed, leg, k_inv @ u @ k)
    closed.spin1 = closed.spin_map(1, spinor_propagator(pair.segment1))
    closed.spin2 = closed.spin_map(2, spinor_propagator(pair.segment2))
    closed.state = TwoQubitState("pure", pair_state(closed.spin1, closed.spin2))
    return closed


def reverse(seg: GeodesicSegment) -> GeodesicSegment:
    """The same worldline traversed the other way (tangents negated).

    reverse(reverse(seg)) reproduces the original samples exactly.
    """
    return GeodesicSegment(
        seg.spacetime,
        seg.tau[-1] - seg.tau[::-1],
        seg.events[::-1].copy(),
        -seg.tangents[::-1],
        meta=dict(seg.meta),
    )


@pytest.fixture(scope="session")
def minkowski():
    return make_spacetime("minkowski")


@pytest.fixture(scope="session")
def schwarzschild():
    return make_spacetime("schwarzschild", {"M": 1.0})


@pytest.fixture(scope="session")
def static_tangent():
    """Callable building a unit timelike tangent from static-frame velocity w."""

    def build(st, coords, w):
        w = np.asarray(w, dtype=float)
        n0 = frame_field(st, np.asarray(coords, dtype=float))
        return n0 @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))

    return build


@pytest.fixture(scope="session")
def battery(schwarzschild, static_tangent):
    """100 random timelike segments outside the photon sphere, fixed seed.

    Reused by the transport property tests and by the acceptance criteria
    that quantify worst-case behaviour over a random battery.
    """
    rng = np.random.default_rng(42)
    st = schwarzschild
    segs = []
    for _ in range(100):
        r = rng.uniform(6.0, 20.0)
        th = rng.uniform(0.6, np.pi - 0.6)
        ph = rng.uniform(-np.pi, np.pi)
        coords = np.array([0.0, r, th, ph])
        w = rng.normal(scale=0.4, size=3)
        u = static_tangent(st, coords, w)
        tau = rng.uniform(0.8, 2.5)
        segs.append(integrate_geodesic(st, Event(coords), u, tau))
    return segs


@pytest.fixture(scope="session")
def reversed_segment():
    """Callable reversing a segment once, so the battery's reversals and
    their cached propagators are shared by the tests that retrace it."""

    def reversed_segment(seg: GeodesicSegment) -> GeodesicSegment:
        """reverse(seg), computed once and cached on the segment."""
        if "reversed" not in seg.cache:
            seg.cache["reversed"] = reverse(seg)
        return seg.cache["reversed"]

    return reversed_segment


@pytest.fixture(scope="session")
def double_cover_defect():
    """Callable comparing the spinor and vector routes along one segment."""

    def double_cover_defect(seg: GeodesicSegment, gauge: str = "static") -> float:
        """max |vector_action(U) - frame propagator| along one segment.

        The spin-1/2 transport pushed through the vector action must reproduce
        the 4x4 frame-component transport; this is the routes' shared oracle.
        Both static-frame transports are conjugated into the gauge frames by
        the constant boost, K^-1 U K and L^-1 P L with L = gauge_boost() and
        K = gauge_lift(gauge), which checks gauge_lift against gauge_boost.
        """
        k = gauge_lift(gauge)
        u = sl2_inverse(k) @ spinor_propagator(seg) @ k
        lam = frame_propagator(seg)
        if gauge != "static":
            boost = gauge_boost()
            lam = ETA @ boost.T @ ETA @ lam @ boost
        return float(np.max(np.abs(vector_action(u) - lam)))

    return double_cover_defect
