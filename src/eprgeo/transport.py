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
and multiplies them on components, chords last; so this route reads
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

world_propagators(*segs) and spinor_propagators(*segs) transport segments
in one stack per route (world_propagator and spinor_propagator are the
one-leg case).  Shorter legs are padded at their end with identity factors
(zero chords, identity steps), which leaves the pairwise tree's pairing of
each leg's own factors as it was; a product with an exact identity
changes at most the sign of a zero entry, so each propagator has the bits
of its one-leg call up to that sign.  Propagators are cached on the segment, and a stack
transports only the segments missing its entry; reversed segments carry
their own cache.

The transports keep their work arrays for the life of the process, one
set per thread.  The batched bundle transport, polygon_spinor_transport,
keeps the chunk's chord geometry (dx and mid, which the bundle channel's
path action reads back through transported_chord_geometry), the connection
components, and the exponentials with their scratch, in which the product
rounds run.  The segment stacks form their chords, midpoints and chord
chain in the same arrays, and the vector route its component-major samples
and W besides.  Freed, a chunk's or an orbit's few MB of such arrays let
glibc trim the heap top, and the next call faulted them in again page by
page: hundreds of minor faults per bundle channel call, and up to 39 per
``orbits`` benchmark item, where the kept arrays take none.  The arrays
only grow, to at most _KEPT_CHORDS = 256 rows x 159 chords, one chunk of
the bundle channel: about 10 MB for the chord chain and 8 MB for the
samples and W of a vector-route stack of as many samples, so at most 18 MB
in each thread; a larger stack makes its arrays once per call.
Every stage keeps its ufunc sequence and operand order, so the results are
the same bits, and each result is a new array that shares no memory with
the kept ones.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .frames import frame_field, gram_schmidt_frame, inverse_frame, orthonormality_defect, spin_connection_components
from .geodesic import GeodesicSegment
from .lorentz import ID2, _fresh, ordered_exp_product, ordered_product
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


def _hermite_midpoints(y: np.ndarray, dy: np.ndarray, h: float, out=None, scratch=None) -> np.ndarray:
    """Cubic Hermite midpoints 0.5 y[:-1] + 0.5 y[1:] + (h / 8) (dy[:-1] - dy[1:])
    of the intervals of samples y with derivatives dy.

    Formed in ``out`` with ``scratch`` (the result's shape) if given, else in
    new arrays, by the IEEE operations of that expression in its order.
    """
    out = np.multiply(0.5, y[:-1], out=out)
    out += np.multiply(0.5, y[1:], out=scratch)
    scratch = np.subtract(dy[:-1], dy[1:], out=scratch)
    scratch *= h / 8.0
    out += scratch
    return out


class _Workspace(threading.local):
    """Work arrays kept from call to call under their names, one set per thread.

    ``work(name, shape, dtype)`` is a C-contiguous view of the first
    prod(shape) elements of the flat array kept under ``name``, which is
    replaced by a larger one when the request outgrows it and is never
    shrunk or freed.  ``chords`` records the knots (by weak reference) and
    the chord arrays of the last bundle transport formed here, until a
    segment stack overwrites those arrays and clears it.  Each thread sees
    its own attributes, so concurrent transports never share an array.
    """

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}
        self.chords: tuple | None = None

    def __call__(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        size = math.prod(shape)
        a = self.arrays.get(name)
        if a is None or a.size < size:
            a = self.arrays[name] = np.empty(size, dtype)
        return a[:size].reshape(shape)


#: the transports' kept work arrays.  A bundle chunk or an orbit frees a few
#: MB of arrays, and glibc then trims the heap top, so without them each
#: call faults its memory in again page by page
_WORK = _Workspace()

#: the largest stack, in rows times chords, transported in _WORK: one chunk
#: of the bundle channel (decoherence._CHUNK = 256 rows of at most
#: MAX_BUNDLE_KNOTS - 1 = 159 chords).  A larger stack allocates its arrays
#: per call, so what stays kept never grows with the number of paths
_KEPT_CHORDS = 256 * 159


def _work(size: int):
    """_WORK for a stack of at most _KEPT_CHORDS chords or samples (rows
    times chords or samples), else lorentz._fresh, which makes a new array
    per request."""
    return _WORK if size <= _KEPT_CHORDS else _fresh


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


def _world_stack(segs: list[GeodesicSegment]) -> np.ndarray:
    """P[end <- start] of segments of nonzero length, one (legs, 4, 4) stack.

    The legs' samples, and a lone last interval's Hermite midpoint in the
    last row, are stacked component-major, so connection_matrix reads each
    component as one contiguous row (on an 8,313-sample orbit 567 against
    652 us, with the same bits); a shorter leg is padded with copies of its
    last sample and its padding steps set to the identity.  The samples and
    W are formed in _work's arrays.
    """
    st = segs[0].spacetime
    ns = [seg.n_samples - 1 for seg in segs]
    hs = [_sample_step(seg) for seg in segs]
    width = max(ns) + 1 + any(n % 2 for n in ns)
    buffer = _work(len(segs) * width)
    xu = buffer("samples", (2, 4, len(segs), width), float)
    x, u = xu.transpose(0, 2, 3, 1)
    for i, (seg, n, h) in enumerate(zip(segs, ns, hs)):
        for k, y in enumerate((seg.events, seg.tangents)):
            xu[k, :, i, : n + 1], xu[k, :, i, n + 1 :] = y.T, y[-1, :, None]
        if n % 2:
            # a lone last interval is staged at its Hermite midpoint; its ends'
            # accelerations come from the geodesic equation
            y = np.concatenate([seg.events[-2:], seg.tangents[-2:]], axis=1).tolist()
            acc = np.array([st.geodesic_rhs(y[0])[4:], st.geodesic_rhs(y[1])[4:]])
            x[i, -1] = _hermite_midpoints(seg.events[-2:], seg.tangents[-2:], h)
            u[i, -1] = _hermite_midpoints(seg.tangents[-2:], acc, h)
    w = st.connection_matrix(x, u, out=buffer("connection", x.shape + (4,), float))
    # step j runs from node 2j to node 2j + 2 and is staged at node 2j + 1
    m, step = max(ns) // 2, 2.0 * np.reshape(hs, (-1, 1, 1, 1))
    blocks = []
    for lo in range(0, m, _BLOCK):
        a, b = 2 * lo, 2 * min(lo + _BLOCK, m)
        steps = _rk4_steps(w[:, a:b:2], w[:, a + 1 : b : 2], w[:, a + 2 : b + 1 : 2], step)
        for leg, n in zip(steps, ns):
            leg[max(n // 2 - lo, 0) :] = _EYE4
        blocks.append(ordered_product(steps))
    # a stack of two-sample segments has no block, and an empty product is the identity
    p = ordered_product(np.reshape(blocks, (-1, len(segs), 4, 4)).swapaxes(0, 1))
    for i, (n, h) in enumerate(zip(ns, hs)):
        if n % 2:
            p[i] = _rk4_steps(w[i, n - 1], w[i, -1], w[i, n], h) @ p[i]
    return p


def _spinor_stack(segs: list[GeodesicSegment]) -> np.ndarray:
    """U[end <- start] of segments of nonzero length, one (legs, 2, 2) stack,
    a shorter leg padded with zero chords at its last midpoint.  The chords,
    midpoints and chord chain are formed in _work's arrays."""
    n = max(seg.n_samples for seg in segs) - 1
    buffer = _work(len(segs) * n)
    # dx and mid may be the kept arrays of the last bundle transport's chords
    _WORK.chords = None
    dx, mid = buffer("dx", (len(segs), n, 4), float), buffer("mid", (len(segs), n, 4), float)
    for i, seg in enumerate(segs):
        k = seg.n_samples - 1
        _hermite_midpoints(seg.events, seg.tangents, _sample_step(seg), mid[i, :k], dx[i, :k])
        np.subtract(seg.events[1:], seg.events[:-1], out=dx[i, :k])
        dx[i, k:] = 0.0
        mid[i, k:] = mid[i, k - 1]
    return _chord_transport(segs[0].spacetime, dx, mid, buffer)


def _cached(segs: tuple, key: str, identity: np.ndarray, stack) -> tuple:
    """seg.cache[key] of each segment, the missing ones filled in: the
    identity for a zero-length segment, one stack(todo) for the rest."""
    todo = []
    for seg in segs:
        if key in seg.cache:
            continue
        if seg.zero_length:
            seg.cache[key] = identity.copy()
        elif not any(seg is s for s in todo):
            todo.append(seg)
    if todo:
        if any(seg.spacetime is not todo[0].spacetime for seg in todo):
            raise UsageError("segments live in different spacetimes")
        for seg, p in zip(todo, stack(todo)):
            seg.cache[key] = p
    return tuple(seg.cache[key] for seg in segs)


def world_propagators(*segs: GeodesicSegment) -> tuple:
    """Endpoint parallel propagators in world indices, P[end <- start], one per segment."""
    return _cached(segs, "world_propagator", _EYE4, _world_stack)


def world_propagator(seg: GeodesicSegment) -> np.ndarray:
    """Endpoint parallel propagator in world indices, P[end <- start]."""
    return world_propagators(seg)[0]


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


def _chord_transport(st: Spacetime, dx: np.ndarray, mid: np.ndarray, buffer) -> np.ndarray:
    """Ordered product of the chord exponentials, in static-frame components.

    dx and mid are (..., chords, 4), so the connection components and their
    exponentials are (..., chords) arrays, chords last, formed in the arrays
    ``buffer`` supplies (see ordered_exp_product).
    """
    g = spin_connection_components(st, mid, dx, buffer("generators", (3,) + dx.shape[:-1]))
    return ordered_exp_product(*g, buffer)


def spinor_propagators(*segs: GeodesicSegment) -> tuple:
    """SL(2,C) transport matrices U[end <- start] in static frames, one per segment."""
    return _cached(segs, "spinor_propagator", ID2, _spinor_stack)


def spinor_propagator(seg: GeodesicSegment) -> np.ndarray:
    """SL(2,C) transport matrix along the segment, U[end <- start], static frames."""
    return spinor_propagators(seg)[0]


def chord_geometry(xs: np.ndarray, buffer=_fresh) -> tuple[np.ndarray, np.ndarray]:
    """(dx, mid) of polygons xs (..., n, 4): the chords x[k+1] - x[k] and
    midpoints 0.5 x[k+1] + 0.5 x[k], (..., n - 1, 4) each, formed in
    buffer("dx") and buffer("mid"), new arrays by default; each is the IEEE
    result of its expression.
    """
    shape = xs.shape[:-2] + (max(xs.shape[-2] - 1, 0), 4)
    dx, mid = buffer("dx", shape, float), buffer("mid", shape, float)
    head, tail = xs[..., 1:, :], xs[..., :-1, :]
    np.multiply(0.5, head, out=mid)
    mid += np.multiply(0.5, tail, out=dx)
    np.subtract(head, tail, out=dx)
    return dx, mid


def polygon_spinor_transport(st: Spacetime, xs: np.ndarray) -> np.ndarray:
    """Spinor transport along polygonal paths given by their knots.

    xs has shape (..., n, 4); the result (..., 2, 2) is the ordered product
    of per-chord midpoint exponentials in static-frame components.  This is
    the discrete path law used for perturbed-path bundles, where the polygon
    itself is the path.

    A stack of at most _KEPT_CHORDS chords forms its chord geometry,
    connection components, exponentials and product rounds in the kept
    _WORK arrays, so a run of such calls allocates no array of the chord
    shape after the first; the result is a new array all the same.
    """
    xs = np.asarray(xs, dtype=float)
    buffer = _work(xs[..., 1:, 0].size)
    dx, mid = chord_geometry(xs, buffer)
    if buffer is _WORK:
        _WORK.chords = (weakref.ref(xs), dx, mid)
    return _chord_transport(st, dx, mid, buffer)


def transported_chord_geometry(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chord_geometry(xs), read back from the kept arrays when the last
    polygon_spinor_transport call formed them from this very array object,
    else formed anew.

    The kept arrays hold their values only until the next transport, so
    read them at once, and do not write to them or to xs in between.
    """
    if _WORK.chords is not None:
        knots, dx, mid = _WORK.chords
        if knots() is xs:
            return dx, mid
    return chord_geometry(np.asarray(xs, dtype=float))


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
