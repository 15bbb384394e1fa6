"""From a pair of geodesic legs to the correlated two-qubit state.

The chain per particle: start in the particle's rest frame at the decay
event (reached from the shared reference tetrad by a pure boost), express
everything in static-tetrad components, transport along the leg, then
undo the arrival boost relative to the detector tetrad.  Parallel transport
preserves the 4-velocity, so the composite map fixes the rest space and its
polar unitary part is an honest SU(2) rotation: the rest-frame spin rotation
of that particle.  Both the spin-1/2 route and the 4x4 vector route are
implemented; they must agree through the double cover and are tested against
each other, never merged.  Every frame on the way (decay reference, static
frames, detector rest frames) is a static tetrad times a pure boost, so the
spin-1/2 route lifts those boosts in SL(2,C) directly with pure_boost_sl2;
no 4x4 Lorentz matrix is ever lifted back to SL(2,C).

Physical anchors (the reference tetrad at the decay and the detector
tetrads) are built on static tetrads.  A constant change of
computational frame conjugates every transport and is undone by the
rest-frame factors, so it cancels exactly and neither route reads one:
PairResult.spin_map closes the static-frame transports of the legs and
of every bundle path with the leg's rest-frame factors alone.  Only
PairResult.ortho_drift takes the scenario's choice of decay tetrad.

pair_transport closes both legs in one pass, _close_pair, which builds
each frame once: per pair the decay-event metric, the static and reference
tetrads with their inverses, and S(v); per leg the end metric and
end-static inverse (cached on the segment) and the two unit velocities that
both routes' closing boosts come from.  PairResult.ortho_drift reads the
decay frame kept on the pair.  boosted_tetrad, rest_conjugation_factors and
rest_frame_rotation are one-leg forms of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import check_gauge, gauge_boost, gram_schmidt_frame, inverse_frame, orthonormality_defect
from .geodesic import GeodesicSegment, integrate_geodesic
from .lorentz import (
    _boost,
    _boost_sl2,
    _inverse_unit,
    _mul_2x2,
    _polar_rotation,
    _unit_timelike,
    rotation_matrix_from_su2,
    su2_polar,
)
from .spacetime import Event, Spacetime, metric_at, same_event
from .spin import TwoQubitState, direction_vector, pair_state
from .transport import Tetrad, require_orthonormal, spinor_propagator, world_propagator


def _decay_frames(
    st: Spacetime, event: Event, velocity: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(g, static tetrad, its inverse, reference tetrad) at the decay event,
    the reference being the static tetrad pure-boosted to the velocity."""
    g = metric_at(st, event)
    static = gram_schmidt_frame(g)
    static_inverse = inverse_frame(static, g)
    if velocity is None:
        return g, static, static_inverse, static
    uh = static_inverse @ np.asarray(velocity, dtype=float)
    return g, static, static_inverse, static @ _boost(_unit_timelike(uh))


def boosted_tetrad(st: Spacetime, event: Event, velocity: np.ndarray | None = None) -> Tetrad:
    """Static tetrad at the event, pure-boosted so leg 0 is the given velocity.

    velocity is in world components; None means the static observer itself.
    This is the reference ("decay") frame construction.
    """
    return Tetrad(event, _decay_frames(st, event, velocity)[3])


def _end_frames(seg: GeodesicSegment) -> tuple[np.ndarray, np.ndarray]:
    """The metric diagonal at seg.end and the inverse of the static tetrad
    there, cached on the segment: both routes of the closing and the
    orthonormality diagnostic read them."""
    if "end_frames" not in seg.cache:
        g1 = seg.spacetime.metric(seg.end.coords)
        seg.cache["end_frames"] = g1, inverse_frame(gram_schmidt_frame(g1), g1)
    return seg.cache["end_frames"]


def _reference_lift(static_inverse: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """S(v), v the reference's leg 0 in static-tetrad components."""
    return _boost_sl2(_unit_timelike(static_inverse @ reference[:, 0]))


def _leg_velocities(
    seg: GeodesicSegment, start_inverse: np.ndarray, end_inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The unit first tangent in start-frame components, and the unit
    velocity whose boost inverts that of the last tangent in end-frame
    components: the two velocities both routes close a leg with."""
    return (
        _unit_timelike(start_inverse @ seg.tangents[0]),
        _inverse_unit(end_inverse @ seg.tangents[-1]),
    )


def _leg_rotation(
    seg: GeodesicSegment, start: np.ndarray, end_inverse: np.ndarray, w0: np.ndarray, w1: np.ndarray
) -> np.ndarray:
    """The vector route's 3x3 rest-frame rotation of a leg: the rotation
    factor of B(u1)^-1 (N1^-1 P N0) B(u0), w0 and w1 from _leg_velocities."""
    lam = end_inverse @ world_propagator(seg) @ start
    return _polar_rotation(_boost(w1) @ lam @ _boost(w0))[1:, 1:]


def rest_conjugation_factors(seg: GeodesicSegment, reference: Tetrad) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 factors closing a static-frame transport into a rest-frame map.

    For a transport U in static-frame components, post @ U @ pre maps
    canonical rest-frame spin components at ``reference`` (the boosted_tetrad
    at seg.start; rest velocity the segment's first tangent) to those at the
    static tetrad at seg.end (rest velocity its last tangent).  When U
    carries the start tangent to the end tangent the composite is unitary
    up to discretization noise.

    Every frame involved is a static tetrad times a pure boost, so the
    factors are products of closed-form SL(2,C) boost lifts:
    pre = S(v) S(u0) and post = S(u1)^-1, where S is pure_boost_sl2, v is
    the reference's leg 0 in static-tetrad components, and u0 and u1 are
    the tangents in the reference and end-static components.
    pair_transport builds the same factors for both legs at once.
    """
    g0 = seg.spacetime.metric(reference.event.coords)
    static_inverse = inverse_frame(gram_schmidt_frame(g0), g0)
    sv = _reference_lift(static_inverse, reference.matrix)
    w0, w1 = _leg_velocities(seg, inverse_frame(reference.matrix, g0), _end_frames(seg)[1])
    return sv @ _boost_sl2(w0), _boost_sl2(w1)


def rest_frame_rotation(seg: GeodesicSegment, start_frame: Tetrad, end_frame: Tetrad) -> np.ndarray:
    """3x3 rest-frame (Wigner) rotation along one leg (vector route, no spinors)."""
    st = seg.spacetime
    start_inverse = inverse_frame(start_frame.matrix, st.metric(start_frame.event.coords))
    end_inverse = inverse_frame(end_frame.matrix, st.metric(seg.end.coords))
    w0, w1 = _leg_velocities(seg, start_inverse, end_inverse)
    return _leg_rotation(seg, start_frame.matrix, end_inverse, w0, w1)


@dataclass(frozen=True)
class DecayFrame:
    """The static tetrad at the decay event and the metric diagonal it was built from."""

    metric: np.ndarray
    static: np.ndarray


def _close_pair(
    seg1: GeodesicSegment, seg2: GeodesicSegment, decay_velocity: np.ndarray | None
) -> tuple[DecayFrame, tuple[np.ndarray, np.ndarray], tuple]:
    """Both routes' closing of both legs: the decay frame, each leg's
    rest-frame rotation and each leg's (pre, post) rest_conjugation_factors.

    Every frame is built once: per pair the decay metric, the static and
    reference tetrads with their inverses, and S(v); per leg the
    cached end frames and the two unit velocities both routes close it with.
    """
    g0, static, static_inverse, reference = _decay_frames(seg1.spacetime, seg1.start, decay_velocity)
    reference_inverse = inverse_frame(reference, g0)
    sv = _reference_lift(static_inverse, reference)
    rotations, factors = [], []
    for seg in (seg1, seg2):
        end_inverse = _end_frames(seg)[1]
        w0, w1 = _leg_velocities(seg, reference_inverse, end_inverse)
        factors.append((sv @ _boost_sl2(w0), _boost_sl2(w1)))
        rotations.append(_leg_rotation(seg, reference, end_inverse, w0, w1))
    return DecayFrame(g0, static), tuple(rotations), tuple(factors)


@dataclass
class PairResult:
    """Everything the measurement layer and the bundle channel need about one decay.

    ``conjugation_factors`` holds each leg's (pre, post) from
    rest_conjugation_factors, which ``spin_map`` applies; pair_transport
    sets ``spin1``, ``spin2``, ``state`` and ``decay_frame``, which
    ``ortho_drift`` reads.
    """

    segment1: GeodesicSegment
    segment2: GeodesicSegment
    rotation1: np.ndarray
    rotation2: np.ndarray
    conjugation_factors: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    spin1: np.ndarray | None = None
    spin2: np.ndarray | None = None
    state: TwoQubitState | None = None
    decay_frame: DecayFrame | None = None

    def spin_map(self, leg: int, u: np.ndarray) -> np.ndarray:
        """Rest-frame SU(2) maps of static-frame transports u (batched) along
        leg 1 or 2: the polar unitary part of post @ u @ pre, multiplied
        left to right by the broadcast 2x2 product."""
        pre, post = self.conjugation_factors[leg - 1]
        return su2_polar(_mul_2x2(_mul_2x2(post, u), pre))[0]

    def ortho_drift(self, gauge: str = "static") -> float:
        """Largest orthonormality defect, over the legs of nonzero length, of
        the gauge frame at the decay event parallel-transported to the leg's
        end; 0.0 when both legs have zero length.

        Per leg this is transport_tetrad(seg, t).defect(st), bit for bit, t
        the static boosted_tetrad(st, seg.start), times gauge_boost() in the
        boosted-static gauge; it is read from ``decay_frame`` and the leg's
        cached end metric, and the input frame's orthonormality is checked
        once for both legs.
        """
        check_gauge(gauge)
        legs = [seg for seg in (self.segment1, self.segment2) if not seg.zero_length]
        if not legs:
            return 0.0
        n0 = self.decay_frame.static
        if gauge == "boosted-static":
            n0 = n0 @ gauge_boost()
        require_orthonormal(self.decay_frame.metric, n0)
        drift = 0.0
        for seg in legs:
            drift = max(drift, orthonormality_defect(_end_frames(seg)[0], world_propagator(seg) @ n0))
        return drift

    @property
    def relative_rotation(self) -> np.ndarray:
        """R2 R1^T from the vector route: parallel transport's map from
        particle-1 axes to the particle-2 axes they anticorrelate with."""
        return self.rotation2 @ self.rotation1.T


def pair_transport(
    seg1: GeodesicSegment,
    seg2: GeodesicSegment,
    *,
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

    frame, (r1, r2), factors = _close_pair(seg1, seg2, decay_velocity)
    pair = PairResult(seg1, seg2, r1, r2, factors, decay_frame=frame)
    pair.spin1 = pair.spin_map(1, spinor_propagator(seg1))
    pair.spin2 = pair.spin_map(2, spinor_propagator(seg2))
    pair.state = TwoQubitState("pure", pair_state(pair.spin1, pair.spin2))
    return pair


def matched_axis(result: PairResult, a: np.ndarray) -> np.ndarray:
    """Detector-2 axis matched to detector-1 axis a: its parallel-transported image.

    The image comes from the vector route (``relative_rotation``) and the
    correlations from the spinor route's state, so E(a, matched) = -1 only
    as far as the two routes agree.  Normalized, so that a rotation drifting
    off orthogonality within the orthonormality diagnostic's bound still
    gives a unit axis.
    """
    b = result.relative_rotation @ direction_vector(a, "1")
    return b / np.linalg.norm(b)


def spin_relative_rotation(result: PairResult) -> np.ndarray:
    """R(W2 W1^-1) from the spin route, for route-against-route checks."""
    return rotation_matrix_from_su2(result.spin2 @ result.spin1.conj().T)


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
