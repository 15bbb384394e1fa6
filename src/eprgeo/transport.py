"""Parallel transport along sampled curves, vector and spin-1/2 versions.

Vector transport works in world indices: the endpoint-to-endpoint propagator
P solves dP/dtau = -Gamma_mu(x) u^mu P, integrated with one classical RK4
step per sample interval.  The coefficient at the interval midpoint comes
from cubic Hermite interpolation of the stored samples (positions from
(x, u), velocities from (u, a)), so no extra geodesic solves are needed.

Spin-1/2 transport multiplies per-interval exponentials of the frame-index
connection, exp(-M_l(midpoint) dx^l) lifted to SL(2,C) with the pinned
generator convention of the lorentz module.  Each factor has determinant one
and the factor for the reversed interval is its exact adjugate inverse,
which is why a retraced path gives the identity to machine precision rather
than to integration accuracy.  The SU(2) sign of the result is whatever the
continuous composition along the path produces; no branch is re-chosen
afterwards.

Endpoint propagators are cached on the segment, keyed by gauge where that
matters; reversed segments carry their own cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import frame_field, inverse_frame, orthonormality_defect, spin_connection
from .geodesic import GeodesicSegment, reverse
from .lorentz import expm2, lift_so13, ordered_product
from .spacetime import Event, Spacetime, Tangent, require_event, same_event

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

    @property
    def vectors(self) -> tuple[Tangent, Tangent, Tangent, Tangent]:
        return tuple(Tangent(self.matrix[:, a].copy(), self.event) for a in range(4))

    def defect(self, st: Spacetime) -> float:
        """Orthonormality defect max |N^T g N - eta| at this tetrad's event."""
        return orthonormality_defect(st.metric(self.event.coords), self.matrix)


def gauge_tetrad(st: Spacetime, event: Event, gauge: str = "static") -> Tetrad:
    """The gauge frame field evaluated at one event, packaged as a Tetrad."""
    require_event(st, event)
    return Tetrad(event, frame_field(st, event.coords, gauge))


# ---------------------------------------------------------------------------
# segment-level propagators (internal, cached)


def _interval_data(seg: GeodesicSegment) -> tuple[np.ndarray, np.ndarray, float]:
    """Hermite midpoint positions/velocities for each sample interval."""
    if "midpoints" in seg.cache:
        return seg.cache["midpoints"]
    x, u = seg.events, seg.tangents
    h = float(seg.tau[1] - seg.tau[0])
    gam = seg.spacetime.christoffel(x)
    acc = -np.einsum("klmn,km,kn->kl", gam, u, u)
    x_mid = 0.5 * x[:-1] + 0.5 * x[1:] + (h / 8.0) * (u[:-1] - u[1:])
    u_mid = 0.5 * (u[:-1] + u[1:]) + (h / 8.0) * (acc[:-1] - acc[1:])
    seg.cache["midpoints"] = (x_mid, u_mid, h)
    return x_mid, u_mid, h


def _coefficient(st: Spacetime, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """W = -Gamma_mu u^mu as a matrix acting on world components.  Batched."""
    gam = st.christoffel(x)
    return -np.einsum("...lms,...m->...ls", gam, u)


def world_propagator(seg: GeodesicSegment) -> np.ndarray:
    """Endpoint parallel propagator in world indices, P[end <- start]."""
    if "world_propagator" in seg.cache:
        return seg.cache["world_propagator"]
    if seg.zero_length:
        p = _EYE4.copy()
    else:
        st = seg.spacetime
        x_mid, u_mid, h = _interval_data(seg)
        w_nodes = _coefficient(st, seg.events, seg.tangents)
        w0, w1 = w_nodes[:-1], w_nodes[1:]
        wm = _coefficient(st, x_mid, u_mid)
        k1 = w0
        k2 = wm + (0.5 * h) * (wm @ k1)
        k3 = wm + (0.5 * h) * (wm @ k2)
        k4 = w1 + h * (w1 @ k3)
        steps = _EYE4 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = ordered_product(steps)
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


def spinor_propagator(seg: GeodesicSegment, gauge: str = "static") -> np.ndarray:
    """SL(2,C) transport matrix along the segment, U[end <- start]."""
    key = ("spinor_propagator", gauge)
    if key in seg.cache:
        return seg.cache[key]
    if seg.zero_length:
        u = np.eye(2, dtype=complex)
    else:
        st = seg.spacetime
        x_mid, _, _ = _interval_data(seg)
        dx = seg.events[1:] - seg.events[:-1]
        m_conn = spin_connection(st, x_mid, gauge)
        m = -np.einsum("klab,kl->kab", m_conn, dx)
        u = ordered_product(expm2(lift_so13(m)))
    seg.cache[key] = u
    return u


def reversed_segment(seg: GeodesicSegment) -> GeodesicSegment:
    """reverse(seg), computed once and cached on the segment."""
    if "reversed" not in seg.cache:
        seg.cache["reversed"] = reverse(seg)
    return seg.cache["reversed"]


def polygon_spinor_transport(st: Spacetime, xs: np.ndarray, gauge: str = "static") -> np.ndarray:
    """Spinor transport along polygonal paths given by their knots.

    xs has shape (..., n, 4); the result (..., 2, 2) is the ordered product
    of per-chord midpoint exponentials.  This is the discrete path law used
    for perturbed-path bundles, where the polygon itself is the path.
    """
    xs = np.asarray(xs, dtype=float)
    dx = xs[..., 1:, :] - xs[..., :-1, :]
    mid = 0.5 * xs[..., 1:, :] + 0.5 * xs[..., :-1, :]
    m_conn = spin_connection(st, mid, gauge)
    m = -np.einsum("...lab,...l->...ab", m_conn, dx)
    return ordered_product(expm2(lift_so13(m)))


# ---------------------------------------------------------------------------
# contract-level operations


def _check_attached(seg: GeodesicSegment, v: Tangent | Tetrad, what: str) -> None:
    if not same_event(v.event, seg.start, tol=1.0e-12):
        raise UsageError(f"{what} is not attached to the segment's first event")


def transport_vector(seg: GeodesicSegment, v0: Tangent) -> Tangent:
    """Parallel transport of a tangent vector along the segment."""
    _check_attached(seg, v0, "vector")
    return Tangent(world_propagator(seg) @ v0.components, seg.end)


def transport_tetrad(seg: GeodesicSegment, n0: Tetrad) -> Tetrad:
    """Parallel transport of all four tetrad legs along the segment."""
    _check_attached(seg, n0, "tetrad")
    defect = n0.defect(seg.spacetime)
    if defect > 100.0 * ORTHO_TOL:
        raise UsageError(f"input tetrad is not orthonormal (defect {defect:.3e})")
    return Tetrad(seg.end, world_propagator(seg) @ n0.matrix)
