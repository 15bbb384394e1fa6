"""From a pair of geodesic legs to the correlated two-qubit state.

The chain per particle: start in the particle's rest frame at the decay
event (reached from the shared reference tetrad by a pure boost), express
everything in the computational gauge frame, transport along the leg, then
undo the arrival boost relative to the detector tetrad.  Parallel transport
preserves the 4-velocity, so the composite map fixes the rest space and its
polar unitary part is an honest SU(2) rotation: the rest-frame spin rotation
of that particle.  Both the spin-1/2 route and the 4x4 vector route are
implemented; they must agree through the double cover and are tested against
each other, never merged.  Every frame on the way (decay reference, gauge
frames, detector rest frames) is a static tetrad times a pure boost, so the
spin-1/2 route lifts those boosts in SL(2,C) directly with pure_boost_sl2;
no 4x4 Lorentz matrix is ever lifted back to SL(2,C).

Physical anchors (the reference tetrad at the decay and the detector
tetrads) are fixed in the static gauge regardless of the computational
gauge, which is what makes correlations gauge-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import check_gauge, gauge_boost, gram_schmidt_frame, inverse_frame
from .geodesic import GeodesicSegment, integrate_geodesic
from .lorentz import (
    ID2,
    lorentz_polar,
    pure_boost,
    pure_boost_inverse,
    pure_boost_sl2,
    pure_boost_sl2_inverse,
    rotation_matrix_from_su2,
    sl2_inverse,
    su2_polar,
    vector_action,
)
from .spacetime import Event, Spacetime, metric_at, same_event
from .spin import TwoQubitState, matched_direction, pair_state
from .transport import (
    Tetrad,
    frame_propagator,
    gauge_tetrad,
    spinor_propagator,
    world_propagator,
)


def boosted_tetrad(st: Spacetime, event: Event, velocity: np.ndarray | None = None) -> Tetrad:
    """Static tetrad at the event, pure-boosted so leg 0 is the given velocity.

    velocity is in world components; None means the static observer itself.
    This is the reference ("decay") frame construction.
    """
    base = gauge_tetrad(st, event, "static")
    if velocity is None:
        return base
    g = metric_at(st, event)
    uh = inverse_frame(base.matrix, g) @ np.asarray(velocity, dtype=float)
    return Tetrad(event, base.matrix @ pure_boost(uh))


def _frame_velocity(st: Spacetime, frame: Tetrad, tangent: np.ndarray) -> np.ndarray:
    g = st.metric(frame.event.coords)
    return inverse_frame(frame.matrix, g) @ tangent


def _static_components(st: Spacetime, event: Event, vector: np.ndarray) -> np.ndarray:
    """A world vector at the event in static-tetrad components."""
    g = st.metric(event.coords)
    return inverse_frame(gram_schmidt_frame(g), g) @ vector


def rest_conjugation_factors(
    seg: GeodesicSegment, reference: Tetrad, gauge: str
) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 factors closing a gauge-frame transport into a rest-frame map.

    For a transport U in gauge-frame components, post @ U @ pre maps
    canonical rest-frame spin components at ``reference`` (the boosted_tetrad
    at seg.start; rest velocity the segment's first tangent) to those at the
    static tetrad at seg.end (rest velocity its last tangent).  When U
    carries the start tangent to the end tangent the composite is unitary
    up to discretization noise.

    Every frame involved is a static tetrad times a pure boost, so the
    factors are products of closed-form SL(2,C) boost lifts:
    pre = K^-1 S(v) S(u0) and post = S(u1)^-1 K, where S is pure_boost_sl2,
    v is the reference's leg 0 in static-tetrad components, u0 and u1 are
    the tangents in the reference and end-static components, and K lifts
    the constant boost from static to gauge frames (I in the static gauge).
    """
    check_gauge(gauge)
    st = seg.spacetime
    k = pure_boost_sl2(gauge_boost()[:, 0]) if gauge == "boosted-static" else ID2
    v = _static_components(st, reference.event, reference.matrix[:, 0])
    uh0 = _frame_velocity(st, reference, seg.tangents[0])
    uh1 = _static_components(st, seg.end, seg.tangents[-1])
    pre = sl2_inverse(k) @ pure_boost_sl2(v) @ pure_boost_sl2(uh0)
    post = pure_boost_sl2_inverse(uh1) @ k
    return pre, post


def rest_frame_rotation(seg: GeodesicSegment, start_frame: Tetrad, end_frame: Tetrad) -> np.ndarray:
    """3x3 rest-frame (Wigner) rotation along one leg (vector route, no spinors)."""
    st = seg.spacetime
    uh0 = _frame_velocity(st, start_frame, seg.tangents[0])
    uh1 = _frame_velocity(st, end_frame, seg.tangents[-1])

    g1 = st.metric(seg.end.coords)
    lam = inverse_frame(end_frame.matrix, g1) @ world_propagator(seg) @ start_frame.matrix
    conj = pure_boost_inverse(uh1) @ lam @ pure_boost(uh0)
    _, rot = lorentz_polar(conj)
    return rot[1:, 1:]


@dataclass
class PairResult:
    """Everything the measurement layer and the bundle channel need about one decay.

    ``conjugation_factors`` holds each leg's (pre, post) from
    rest_conjugation_factors, closing transports computed in ``gauge``.
    """

    segment1: GeodesicSegment
    segment2: GeodesicSegment
    spin1: np.ndarray
    spin2: np.ndarray
    rotation1: np.ndarray
    rotation2: np.ndarray
    state: TwoQubitState
    conjugation_factors: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    gauge: str

    @property
    def relative_rotation(self) -> np.ndarray:
        """R2 R1^T: maps particle-1 axes to the anticorrelated particle-2 axes."""
        return self.rotation2 @ self.rotation1.T


def pair_transport(
    seg1: GeodesicSegment,
    seg2: GeodesicSegment,
    *,
    gauge: str = "static",
    decay_velocity: np.ndarray | None = None,
) -> PairResult:
    """Run the full correlation pipeline for two legs sharing a decay event.

    decay_velocity (world components at O) sets the rest frame in which the
    singlet is prepared; None means the static observer at O.
    """
    if not same_event(seg1.start, seg2.start, tol=1.0e-9):
        raise UsageError("legs do not share their decay event")
    st = seg1.spacetime
    if seg2.spacetime is not st:
        raise UsageError("legs live in different spacetimes")

    reference = boosted_tetrad(st, seg1.start, decay_velocity)
    det1 = gauge_tetrad(st, seg1.end, "static")
    det2 = gauge_tetrad(st, seg2.end, "static")

    pre1, post1 = rest_conjugation_factors(seg1, reference, gauge)
    pre2, post2 = rest_conjugation_factors(seg2, reference, gauge)

    w1 = su2_polar(post1 @ spinor_propagator(seg1, gauge) @ pre1)[0]
    w2 = su2_polar(post2 @ spinor_propagator(seg2, gauge) @ pre2)[0]
    r1 = rest_frame_rotation(seg1, reference, det1)
    r2 = rest_frame_rotation(seg2, reference, det2)

    state = TwoQubitState("pure", pair_state(w1, w2))
    factors = ((pre1, post1), (pre2, post2))
    return PairResult(seg1, seg2, w1, w2, r1, r2, state, factors, gauge)


def matched_axis(result: PairResult, a: np.ndarray) -> np.ndarray:
    """Detector-2 axis anticorrelated with detector-1 axis a (state route)."""
    return matched_direction(result.state, np.asarray(a, dtype=float))


def spin_relative_rotation(result: PairResult) -> np.ndarray:
    """R(W2 W1^-1) from the spin route, for route-against-route checks."""
    return rotation_matrix_from_su2(result.spin2 @ result.spin1.conj().T)


def double_cover_defect(seg: GeodesicSegment, gauge: str = "static") -> float:
    """max |vector_action(U) - frame propagator| along one segment.

    The spin-1/2 transport pushed through the vector action must reproduce
    the 4x4 frame-component transport; this is the routes' shared oracle.
    """
    u = spinor_propagator(seg, gauge)
    lam = frame_propagator(seg, gauge)
    return float(np.max(np.abs(vector_action(u) - lam)))


def integrate_pair(
    st: Spacetime,
    decay: Event,
    u1: np.ndarray,
    u2: np.ndarray,
    tau1: float,
    tau2: float,
    **kwargs,
) -> PairResult:
    """Convenience: integrate both legs from the decay event and pair them."""
    seg1 = integrate_geodesic(st, decay, u1, tau1)
    seg2 = integrate_geodesic(st, decay, u2, tau2)
    return pair_transport(seg1, seg2, **kwargs)
