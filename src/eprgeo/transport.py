"""Parallel transport along sampled curves, vector and spin-1/2 versions.

Vector transport works in world indices: the endpoint-to-endpoint propagator
P solves dP/dtau = W P with W^l_s = -Gamma^l_ms u^m, integrated with one
classical RK4 step per pair of sample intervals, staged at the stored
middle node.  W comes once per node from the spacetime's closed-form
``connection_matrix``, which fills no Gamma array.  A lone last interval
(an odd interval count, a two-sample segment) takes one RK4 step of its
own, staged at its cubic Hermite midpoint (positions from (x, u),
velocities from (u, a), a from the geodesic equation at its ends), whose W
comes in the same call as the nodes'.  The RK4 stages and their ordered
product are formed block by block of steps, the block products are
multiplied in order, and the lone interval's step goes last.  Each stage is
formed in place in its own matmul result and the step's weighted sum in
the second stage's buffer, so a block makes three stage arrays, not one
array per arithmetic step; the IEEE results are those of the out-of-place
expressions.

Spin-1/2 transport multiplies per-interval exponentials exp(-M_l dx^l) at
the Hermite midpoint positions (which need no Gamma).
spin_connection_components gives each static-frame generator, already
contracted with its chord, as three component arrays from the spacetime's
closed-form connection coefficients, and ordered_exp_product exponentiates
and multiplies them on components, chord axis first; so this route reads
neither Gamma nor W, and the two routes share no connection code: the vector
route reads W and the spinor route the six static-frame coefficients.  Both
spinor transports are in static-frame components, which the pair's
rest-frame map (pipeline.PairResult.spin_map) closes as they are: a
constant frame change would cancel there.  frame_propagator expresses the
vector route between the static frames at the ends.
Each factor has determinant one and the factor for the reversed interval is
its exact adjugate inverse, which is why a retraced path gives the identity
to machine precision rather than to integration accuracy.  The SU(2) sign
of the result is whatever the continuous composition along the path
produces; no branch is re-chosen afterwards.

Endpoint propagators are cached on the segment, one entry each; reversed
segments carry their own cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import frame_field, gram_schmidt_frame, inverse_frame, orthonormality_defect, spin_connection_components
from .geodesic import GeodesicSegment
from .lorentz import ordered_exp_product, ordered_product
from .spacetime import Event, Spacetime, same_event

ORTHO_TOL = 1.0e-8

_EYE4 = np.eye(4)


@dataclass(frozen=True)
class Tetrad:
    """An orthonormal frame at an event; columns of ``matrix`` are the legs.

    Leg 0 is timelike.  Orthonormality (N^T g N = eta within ORTHO_TOL) is
    the caller's responsibility and is rechecked where it matters.
    """

    event: Event
    matrix: np.ndarray

    def defect(self, st: Spacetime) -> float:
        """Orthonormality defect max |N^T g N - eta| at this tetrad's event."""
        return orthonormality_defect(st.metric(self.event.coords), self.matrix)


# ---------------------------------------------------------------------------
# segment-level propagators (internal, cached)


def _hermite_midpoints(y: np.ndarray, dy: np.ndarray, h: float) -> np.ndarray:
    """Cubic Hermite midpoints of the intervals of samples y with derivatives dy."""
    return 0.5 * y[:-1] + 0.5 * y[1:] + (h / 8.0) * (dy[:-1] - dy[1:])


def _sample_step(seg: GeodesicSegment) -> float:
    return float(seg.tau[1] - seg.tau[0])


def _rk4_steps(w0: np.ndarray, wm: np.ndarray, w1: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step matrices of dP/dtau = W P over steps of length h,
    given W at each step's start, middle and end (batched).

    k2 + wm is wm + k2 to the bit, since float + and * commute exactly, so
    the in-place stages and the sum w0 + 2 k2 + 2 k3 + k4, kept in k2's
    buffer in that order, give the out-of-place expressions' results.
    """
    k2 = wm @ w0
    k2 *= 0.5 * h
    k2 += wm
    k3 = wm @ k2
    k3 *= 0.5 * h
    k3 += wm
    k4 = w1 @ k3
    k4 *= h
    k4 += w1
    k2 *= 2.0
    k2 += w0
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += _EYE4
    return k2


#: RK4 steps per block of the vector route.  Blocks keep the stage arrays
#: small (128 KiB each) instead of one (n/2, 4, 4) array per stage; a power
#: of two, so the blocks' ordered products combine into exactly the pairwise
#: tree that ordered_product builds over all steps at once
_BLOCK = 1024


def world_propagator(seg: GeodesicSegment) -> np.ndarray:
    """Endpoint parallel propagator in world indices, P[end <- start]."""
    if "world_propagator" in seg.cache:
        return seg.cache["world_propagator"]
    if seg.zero_length:
        p = _EYE4.copy()
    else:
        st = seg.spacetime
        x, u = seg.events, seg.tangents
        h = _sample_step(seg)
        n = len(x) - 1
        m = n // 2
        if n % 2:
            # a lone last interval is staged at its Hermite midpoint, appended
            # after the nodes; its ends' accelerations come from the geodesic
            # equation
            y = np.concatenate([x[-2:], u[-2:]], axis=1).tolist()
            acc = np.array([st.geodesic_rhs(y[0])[4:], st.geodesic_rhs(y[1])[4:]])
            x = np.concatenate([x, _hermite_midpoints(x[-2:], u[-2:], h)])
            u = np.concatenate([u, _hermite_midpoints(u[-2:], acc, h)])
        w = st.connection_matrix(x, u)
        # step j runs from node 2j to node 2j + 2 and is staged at node 2j + 1
        blocks = []
        for lo in range(0, m, _BLOCK):
            a, b = 2 * lo, 2 * min(lo + _BLOCK, m)
            steps = _rk4_steps(w[a:b:2], w[a + 1 : b : 2], w[a + 2 : b + 1 : 2], 2.0 * h)
            blocks.append(ordered_product(steps))
        # a two-sample segment has no block, and an empty product is the identity
        p = ordered_product(np.reshape(blocks, (-1, 4, 4)))
        if n % 2:
            p = _rk4_steps(w[n - 1], w[n + 1], w[n], h) @ p
    seg.cache["world_propagator"] = p
    return p


def frame_propagator(seg: GeodesicSegment) -> np.ndarray:
    """The same transport expressed between the static frames at the endpoints."""
    if "frame_propagator" in seg.cache:
        return seg.cache["frame_propagator"]
    st = seg.spacetime
    g1 = st.metric(seg.events[-1])
    n0 = frame_field(st, seg.events[0])
    p = inverse_frame(gram_schmidt_frame(g1), g1) @ world_propagator(seg) @ n0
    seg.cache["frame_propagator"] = p
    return p


def _chord_transport(st: Spacetime, mid: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Ordered product of the chord exponentials, in static-frame components.

    mid and dx are (..., chords, 4); the chord axis goes first, so the
    connection components and their exponentials are (chords, ...) arrays.
    """
    g = spin_connection_components(st, np.moveaxis(mid, -2, 0), np.moveaxis(dx, -2, 0))
    return ordered_exp_product(*g)


def spinor_propagator(seg: GeodesicSegment) -> np.ndarray:
    """SL(2,C) transport matrix along the segment, U[end <- start], static frames."""
    if "spinor_propagator" in seg.cache:
        return seg.cache["spinor_propagator"]
    if seg.zero_length:
        u = np.eye(2, dtype=complex)
    else:
        dx = seg.events[1:] - seg.events[:-1]
        mid = _hermite_midpoints(seg.events, seg.tangents, _sample_step(seg))
        u = _chord_transport(seg.spacetime, mid, dx)
    seg.cache["spinor_propagator"] = u
    return u


def polygon_spinor_transport(st: Spacetime, xs: np.ndarray) -> np.ndarray:
    """Spinor transport along polygonal paths given by their knots.

    xs has shape (..., n, 4); the result (..., 2, 2) is the ordered product
    of per-chord midpoint exponentials in static-frame components.  This is
    the discrete path law used for perturbed-path bundles, where the polygon
    itself is the path.
    """
    xs = np.asarray(xs, dtype=float)
    dx = xs[..., 1:, :] - xs[..., :-1, :]
    mid = 0.5 * xs[..., 1:, :] + 0.5 * xs[..., :-1, :]
    return _chord_transport(st, mid, dx)


# ---------------------------------------------------------------------------
# contract-level operations


def require_orthonormal(g: np.ndarray, n: np.ndarray) -> None:
    """Raise UsageError unless the frame n is orthonormal in the metric
    diagonal g within 100 ORTHO_TOL: the input check of a frame transport."""
    defect = orthonormality_defect(g, n)
    if not defect <= 100.0 * ORTHO_TOL:
        raise UsageError(f"input tetrad is not orthonormal (defect {defect:.3e})")


def transport_tetrad(seg: GeodesicSegment, n0: Tetrad) -> Tetrad:
    """Parallel transport of all four tetrad legs along the segment."""
    if not same_event(n0.event, seg.start, tol=1.0e-12):
        raise UsageError("tetrad is not attached to the segment's first event")
    require_orthonormal(seg.spacetime.metric(n0.event.coords), n0.matrix)
    return Tetrad(seg.end, world_propagator(seg) @ n0.matrix)
