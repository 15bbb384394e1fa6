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
gauge, which is what makes correlations gauge-independent.  The spin route
applies the gauge in one place, PairResult.spin_map: it conjugates the
static-frame transports of the legs and of every bundle path by the gauge
lift before the leg's rest-frame factors close them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import gauge_lift, gram_schmidt_frame, inverse_frame
from .geodesic import GeodesicSegment, integrate_geodesic
from .lorentz import (
    lorentz_polar,
    pure_boost,
    pure_boost_inverse,
    pure_boost_sl2,
    pure_boost_sl2_inverse,
    rotation_matrix_from_su2,
    sl2_inverse,
    su2_polar,
)
from .spacetime import Event, Spacetime, metric_at, same_event
from .spin import TwoQubitState, direction_vector, pair_state
from .transport import Tetrad, spinor_propagator, world_propagator


def boosted_tetrad(st: Spacetime, event: Event, velocity: np.ndarray | None = None) -> Tetrad:
    """Static tetrad at the event, pure-boosted so leg 0 is the given velocity.

    velocity is in world components; None means the static observer itself.
    This is the reference ("decay") frame construction.
    """
    g = metric_at(st, event)
    base = gram_schmidt_frame(g)
    if velocity is None:
        return Tetrad(event, base)
    uh = inverse_frame(base, g) @ np.asarray(velocity, dtype=float)
    return Tetrad(event, base @ pure_boost(uh))


def _end_static_inverse(seg: GeodesicSegment) -> np.ndarray:
    """Inverse of the static tetrad at seg.end, cached on the segment: both
    routes of pair_transport close the leg there."""
    if "end_static_inverse" not in seg.cache:
        g1 = seg.spacetime.metric(seg.end.coords)
        seg.cache["end_static_inverse"] = inverse_frame(gram_schmidt_frame(g1), g1)
    return seg.cache["end_static_inverse"]


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
    the tangents in the reference and end-static components, and
    K = gauge_lift(gauge) lifts the constant static-to-gauge frame boost.
    """
    k = gauge_lift(gauge)
    g0 = seg.spacetime.metric(reference.event.coords)
    v = inverse_frame(gram_schmidt_frame(g0), g0) @ reference.matrix[:, 0]
    uh0 = inverse_frame(reference.matrix, g0) @ seg.tangents[0]
    uh1 = _end_static_inverse(seg) @ seg.tangents[-1]
    pre = sl2_inverse(k) @ pure_boost_sl2(v) @ pure_boost_sl2(uh0)
    post = pure_boost_sl2_inverse(uh1) @ k
    return pre, post


def rest_frame_rotation(seg: GeodesicSegment, start_frame: Tetrad, end_frame: Tetrad) -> np.ndarray:
    """3x3 rest-frame (Wigner) rotation along one leg (vector route, no spinors)."""
    st = seg.spacetime
    start_inverse = inverse_frame(start_frame.matrix, st.metric(start_frame.event.coords))
    end_inverse = inverse_frame(end_frame.matrix, st.metric(seg.end.coords))
    return _rest_rotation(seg, start_frame.matrix, start_inverse @ seg.tangents[0], end_inverse)


def _rest_rotation(
    seg: GeodesicSegment, start: np.ndarray, uh0: np.ndarray, end_inverse: np.ndarray
) -> np.ndarray:
    """rest_frame_rotation from the start tetrad, the first tangent in its
    components and the inverse of the end tetrad."""
    uh1 = end_inverse @ seg.tangents[-1]
    lam = end_inverse @ world_propagator(seg) @ start
    conj = pure_boost_inverse(uh1) @ lam @ pure_boost(uh0)
    _, rot = lorentz_polar(conj)
    return rot[1:, 1:]


@dataclass
class PairResult:
    """Everything the measurement layer and the bundle channel need about one decay.

    ``conjugation_factors`` holds each leg's (pre, post) from
    rest_conjugation_factors, which ``spin_map`` applies in ``gauge``;
    pair_transport sets ``spin1``, ``spin2`` and ``state``.
    """

    segment1: GeodesicSegment
    segment2: GeodesicSegment
    rotation1: np.ndarray
    rotation2: np.ndarray
    conjugation_factors: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    gauge: str
    spin1: np.ndarray | None = None
    spin2: np.ndarray | None = None
    state: TwoQubitState | None = None

    def spin_map(self, leg: int, u: np.ndarray) -> np.ndarray:
        """Rest-frame SU(2) maps of static-frame transports u (batched) along leg 1 or 2:
        the polar unitary part of post @ K^-1 u K @ pre, K = gauge_lift(gauge)."""
        pre, post = self.conjugation_factors[leg - 1]
        if self.gauge != "static":
            k = gauge_lift(self.gauge)
            u = sl2_inverse(k) @ u @ k
        return su2_polar(post @ u @ pre)[0]

    @property
    def relative_rotation(self) -> np.ndarray:
        """R2 R1^T from the vector route: parallel transport's map from
        particle-1 axes to the particle-2 axes they anticorrelate with."""
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
    factors = tuple(rest_conjugation_factors(seg, reference, gauge) for seg in (seg1, seg2))
    # the vector route closes each leg in the same frames, built once: the
    # reference at the decay and the static tetrads at the leg ends
    start_inverse = inverse_frame(reference.matrix, st.metric(reference.event.coords))
    r1, r2 = (
        _rest_rotation(seg, reference.matrix, start_inverse @ seg.tangents[0],
                       _end_static_inverse(seg))
        for seg in (seg1, seg2)
    )
    pair = PairResult(seg1, seg2, r1, r2, factors, gauge)
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
