"""Parallel transport along sampled curves, vector and spin-1/2 versions.

Vector transport works in world indices: the endpoint-to-endpoint propagator
P solves dP/dtau = W P with W^l_s = -Gamma^l_ms u^m, integrated with one
classical RK4 step per sample interval.  The coefficient at the interval
midpoint comes from cubic Hermite interpolation of the stored samples
(positions from (x, u), velocities from (u, a)), with one W per node and
per midpoint from the spacetime's closed-form ``connection_matrix``, which
fills no Gamma array; the node accelerations are a = W u.  The midpoint W,
the RK4 stages and their ordered product are formed block by block of
sample intervals, and the block products are multiplied in order.

Spin-1/2 transport multiplies per-interval exponentials exp(-M_l dx^l) at
the Hermite midpoint positions (which need no Gamma).
spin_connection_components gives each static-frame generator, already
contracted with its chord, as three component arrays from the spacetime's
closed-form connection coefficients, and ordered_exp_product exponentiates
and multiplies them on components, chord axis first; so this route reads
neither Gamma nor W, and the two routes share no connection code: the vector
route reads W and the spinor route the six static-frame coefficients.  The
boosted-static gauge conjugates the product once by gauge_lift(gauge).
Each factor has determinant one and the factor for the reversed interval is
its exact adjugate inverse, which is why a retraced path gives the identity
to machine precision rather than to integration accuracy.  The SU(2) sign
of the result is whatever the continuous composition along the path
produces; no branch is re-chosen afterwards.

Endpoint propagators are cached on the segment, keyed by gauge where that
matters; reversed segments carry their own cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import (
    frame_field,
    gauge_lift,
    inverse_frame,
    orthonormality_defect,
    spin_connection_components,
)
from .geodesic import GeodesicSegment
from .lorentz import ordered_exp_product, ordered_product, sl2_inverse
from .spacetime import Event, Spacetime, require_event, same_event

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


def gauge_tetrad(st: Spacetime, event: Event, gauge: str = "static") -> Tetrad:
    """The gauge frame field evaluated at one event, packaged as a Tetrad."""
    require_event(st, event)
    return Tetrad(event, frame_field(st, event.coords, gauge))


# ---------------------------------------------------------------------------
# segment-level propagators (internal, cached)


def _midpoints(seg: GeodesicSegment) -> tuple[np.ndarray, float]:
    """Hermite midpoint positions of the sample intervals (no Gamma needed), and h."""
    x, u = seg.events, seg.tangents
    h = float(seg.tau[1] - seg.tau[0])
    return 0.5 * x[:-1] + 0.5 * x[1:] + (h / 8.0) * (u[:-1] - u[1:]), h


#: sample intervals per block of the vector route.  Blocks keep the stage
#: arrays small (128 KiB each) instead of one (n, 4, 4) array per stage; a
#: power of two, so the blocks' ordered products combine into exactly the
#: pairwise tree that ordered_product builds over all intervals at once
_BLOCK = 1024


def world_propagator(seg: GeodesicSegment) -> np.ndarray:
    """Endpoint parallel propagator in world indices, P[end <- start]."""
    if "world_propagator" in seg.cache:
        return seg.cache["world_propagator"]
    if seg.zero_length:
        p = _EYE4.copy()
    else:
        st = seg.spacetime
        u = seg.tangents
        # the Hermite accelerations a = W u come from the node W
        w_nodes = st.connection_matrix(seg.events, u)
        acc = np.einsum("...ls,...s->...l", w_nodes, u)
        x_mid, h = _midpoints(seg)
        u_mid = 0.5 * (u[:-1] + u[1:]) + (h / 8.0) * (acc[:-1] - acc[1:])
        products = []
        for lo in range(0, len(x_mid), _BLOCK):
            hi = min(lo + _BLOCK, len(x_mid))
            wm = st.connection_matrix(x_mid[lo:hi], u_mid[lo:hi])
            k1, w1 = w_nodes[lo:hi], w_nodes[lo + 1 : hi + 1]
            k2 = wm + (0.5 * h) * (wm @ k1)
            k3 = wm + (0.5 * h) * (wm @ k2)
            k4 = w1 + h * (w1 @ k3)
            products.append(ordered_product(_EYE4 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)))
        p = ordered_product(np.stack(products))
    seg.cache["world_propagator"] = p
    return p


def frame_propagator(seg: GeodesicSegment, gauge: str = "static") -> np.ndarray:
    """The same transport expressed between the gauge frames at the endpoints."""
    key = ("frame_propagator", gauge)
    if key in seg.cache:
        return seg.cache[key]
    st = seg.spacetime
    n1 = frame_field(st, seg.events[-1], gauge)
    g1 = st.metric(seg.events[-1])
    n0 = frame_field(st, seg.events[0], gauge)
    p = inverse_frame(n1, g1) @ world_propagator(seg) @ n0
    seg.cache[key] = p
    return p


def _chord_transport(st: Spacetime, mid: np.ndarray, dx: np.ndarray, gauge: str) -> np.ndarray:
    """Ordered product of the chord exponentials, conjugated once into the gauge frames.

    mid and dx are (..., chords, 4); the chord axis goes first, so the
    connection components and their exponentials are (chords, ...) arrays.
    """
    k = gauge_lift(gauge)
    g = spin_connection_components(st, np.moveaxis(mid, -2, 0), np.moveaxis(dx, -2, 0))
    u = ordered_exp_product(*g)
    return u if gauge == "static" else sl2_inverse(k) @ u @ k


def spinor_propagator(seg: GeodesicSegment, gauge: str = "static") -> np.ndarray:
    """SL(2,C) transport matrix along the segment, U[end <- start]."""
    key = ("spinor_propagator", gauge)
    if key in seg.cache:
        return seg.cache[key]
    if seg.zero_length:
        u = np.eye(2, dtype=complex)
    else:
        dx = seg.events[1:] - seg.events[:-1]
        u = _chord_transport(seg.spacetime, _midpoints(seg)[0], dx, gauge)
    seg.cache[key] = u
    return u


def polygon_spinor_transport(st: Spacetime, xs: np.ndarray, gauge: str = "static") -> np.ndarray:
    """Spinor transport along polygonal paths given by their knots.

    xs has shape (..., n, 4); the result (..., 2, 2) is the ordered product
    of per-chord midpoint exponentials.  This is the discrete path law used
    for perturbed-path bundles, where the polygon itself is the path.
    """
    xs = np.asarray(xs, dtype=float)
    dx = xs[..., 1:, :] - xs[..., :-1, :]
    mid = 0.5 * xs[..., 1:, :] + 0.5 * xs[..., :-1, :]
    return _chord_transport(st, mid, dx, gauge)


# ---------------------------------------------------------------------------
# contract-level operations


def transport_tetrad(seg: GeodesicSegment, n0: Tetrad) -> Tetrad:
    """Parallel transport of all four tetrad legs along the segment."""
    if not same_event(n0.event, seg.start, tol=1.0e-12):
        raise UsageError("tetrad is not attached to the segment's first event")
    defect = n0.defect(seg.spacetime)
    if not defect <= 100.0 * ORTHO_TOL:
        raise UsageError(f"input tetrad is not orthonormal (defect {defect:.3e})")
    return Tetrad(seg.end, world_propagator(seg) @ n0.matrix)
