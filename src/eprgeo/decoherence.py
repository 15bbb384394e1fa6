"""Finite path bundles around the geodesics and the correlation they leave.

Each particle's propagation is approximated by a bundle of polygonal paths
near its geodesic leg: transverse Brownian bridges in the static-frame
spatial legs, pinned to the exact endpoints, with a sin(pi tau/L) width
envelope so the per-knot standard deviation is sigma * sin(pi tau/L).

Per path, the spin effect is the rest-frame rotation of its polygon
transport; the amplitude weight is the relative discretized action phase
exp(-(i/4)(S_path - S_base)).  The two-sided average over all n^2 path
pairs factorizes into one mean term per particle, so the all-pairs result is
computed exactly in O(n): a path's term is its SU(2) map times its phase in
coherent mode, and its 3x3 rotation in incoherent mode, where the mean
rotations fix the mixture in the Fano form (U. Fano, Rev. Mod. Phys. 55
(1983) 855).  The mode belongs to the channel, not to the bundles: the same
bundle pair can be averaged both ways.

The reference state for fidelity is the sigma=0 transport over the same
decimated knots, which makes the sigma -> 0 limit exact by construction
rather than holding only up to discretization error.  A sigma=0 bundle's
paths are a read-only view of those knots, so it is never transported:
every path gets the base polygon's term, with zero relative action.

``averaged_states(pair, bundles1, bundles2, mode)`` degrades a transported
pair once per bundle pair, and ``averaged_state(pair, b1, b2, mode)`` is
its one-pair call.  Per leg, the base polygon is row 0 of one stack with
the paths of every sigma > 0 bundle, and the stack goes through the
transport and the pair's rest-frame map PairResult.spin_map once per chunk
of rows; each bundle's terms are its slice of the stack.  The transport
works in arrays it keeps from chunk to chunk (see transport), bounded by one
chunk, and the coherent path action reads the chunk's chords and midpoints
from them instead of forming them again.  Each
ChannelAverage holds the averaged state, the per-path terms and the
reference state; ``fidelity_with_error(avg)`` derives the fidelity and its
block standard error from that object, building the FIDELITY_BLOCKS block
states in one batched pass: coherent blocks as the singlet images
pair_state(m1, m2) of all block means at once, read as
|<reference|v>|^2 / |v|^2, incoherent blocks as the Fano form of the whole
(k, 3, 3) stack of R1 R2^T.

Each leg's decimated knots and proper times, the static-frame scale at its
interior knots and the sigma-free factors of the bridge are built on the
first draw around the leg and cached on its segment, read-only, so a sigma
sweep evaluates the frame once per leg; no two segments share the cache.
A draw forms the Brownian bridge in place, in one knot-major (knots, 3,
paths) buffer filled from the normals, so that every step runs along the
paths rather than over a trailing axis of three; it keeps every operand
order of the out-of-place expressions, so the paths are the same bytes
as that form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .frames import frame_field
from .geodesic import GeodesicSegment
from .lorentz import rotation_matrix_from_su2
from .pipeline import PairResult
from .spacetime import Spacetime
from .spin import PAULI_PAIRS, TwoQubitState, correlation, fidelity, pair_state
from .transport import chord_geometry, polygon_spinor_transport, transported_chord_geometry

MAX_BUNDLE_KNOTS = 160
MODES = ("coherent", "incoherent")
RESAMPLE_ATTEMPTS = 100
# disjoint path blocks behind the standard error of fidelity_with_error
FIDELITY_BLOCKS = 10

# stacked rows (a leg's base polygon, then bundle paths) per transport chunk;
# bounds the per-chord (chords, rows) connection components and the
# (chords, 4, rows) exponential components of one transport, and with them
# the arrays the transport keeps (transport._KEPT_CHORDS is this many rows
# of MAX_BUNDLE_KNOTS - 1 chords)
_CHUNK = 256

_ID4 = np.eye(4, dtype=complex)


@dataclass
class PathBundle:
    """Perturbed discrete paths around one geodesic leg, endpoints pinned."""

    base: GeodesicSegment
    taus: np.ndarray
    paths: np.ndarray
    sigma: float
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def base_knots(self) -> np.ndarray:
        return self.meta["base_knots"]


def _decimate(n: int) -> np.ndarray:
    if n <= MAX_BUNDLE_KNOTS:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, MAX_BUNDLE_KNOTS)).astype(int))


@dataclass(frozen=True)
class _LegKnots:
    """One leg's decimated knots and the sigma-free factors of its bridge draw.

    ``knots`` and ``taus`` are the decimated events and proper times;
    ``scale`` holds the interior knots' static spatial legs (the static
    frame is diagonal: spatial leg j is its scale times axis j + 1), and
    ``root_dtau``, ``ratio``, ``root_var`` and ``envelope`` are the
    increment, bridge and width factors.  Each factor is shaped to
    broadcast against the knot-major (knots, 3, count) buffer of a draw.
    Every array is read-only.
    """

    knots: np.ndarray
    taus: np.ndarray
    scale: np.ndarray
    root_dtau: np.ndarray
    ratio: np.ndarray
    root_var: np.ndarray
    envelope: np.ndarray


def _leg_knots(seg: GeodesicSegment) -> _LegKnots:
    """The leg's _LegKnots, built on first use and cached on the segment."""
    if "bundle_knots" not in seg.cache:
        idx = _decimate(seg.n_samples)
        taus = seg.tau[idx] - seg.tau[0]
        knots = seg.events[idx]
        length = taus[-1]
        t_int = taus[1:-1]
        scale = np.diagonal(frame_field(seg.spacetime, knots), axis1=-2, axis2=-1)[1:-1, 1:]
        leg = _LegKnots(
            knots,
            taus,
            scale[:, :, None],
            np.sqrt(np.diff(taus))[:, None, None],
            (t_int / length)[:, None, None],
            np.sqrt(t_int * (length - t_int) / length)[:, None, None],
            np.sin(np.pi * t_int / length)[:, None, None],
        )
        for a in vars(leg).values():
            a.setflags(write=False)
        seg.cache["bundle_knots"] = leg
    return seg.cache["bundle_knots"]


def sample_bundle(
    seg: GeodesicSegment,
    sigma: float,
    n_paths: int,
    seed: int,
) -> PathBundle:
    """Draw a bundle of Brownian-bridge perturbed paths around a geodesic.

    Deterministic given the seed.  Paths that wander out of the chart are
    redrawn individually; a path still failing after RESAMPLE_ATTEMPTS draws
    raises DomainError.  ``meta["resample_rounds"]`` counts the redraw
    rounds, 0 when the first draw stays in the chart.
    """
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise UsageError("bundle width sigma must be finite and nonnegative")
    if n_paths < 1:
        raise UsageError("n_paths must be at least 1")
    if seg.zero_length:
        raise UsageError("cannot build a path bundle on a zero-length segment")

    st = seg.spacetime
    leg = _leg_knots(seg)
    knots = leg.knots
    meta = {"base_knots": knots}

    if sigma == 0.0:
        paths = np.broadcast_to(knots, (n_paths,) + knots.shape)
        meta["resample_rounds"] = 0
        return PathBundle(seg, leg.taus, paths, sigma, meta)

    width = sigma * leg.envelope
    rng = np.random.default_rng(seed)

    def draw(count: int) -> np.ndarray:
        """count perturbed paths, shape (count, K+1, 4).

        The normals come in (count, K, 3) order, as the seed fixes them; the
        bridge is formed in place in one knot-major (K, 3, count) buffer,
        where every step runs along the paths, each the IEEE result of
        (w[:-1] - (t/L) w[-1]) / sqrt(var) * (sigma env) * scale on the
        cumulated increments w.
        """
        normals = rng.standard_normal((count, len(leg.root_dtau), 3))
        w = np.empty(normals.shape[1:] + (count,))
        np.multiply(normals.transpose(1, 2, 0), leg.root_dtau, out=w)
        np.cumsum(w, axis=0, out=w)
        bridge = w[:-1]
        bridge -= leg.ratio * w[-1]
        bridge /= leg.root_var
        bridge *= width
        bridge *= leg.scale
        out = np.empty((count,) + knots.shape)
        out[:] = knots
        np.add(knots[1:-1, 1:, None], bridge, out=out[:, 1:-1, 1:].transpose(1, 2, 0))
        return out

    paths = draw(n_paths)
    ok = np.all(st.in_chart(paths), axis=1)
    attempts = 1
    while not np.all(ok):
        if attempts >= RESAMPLE_ATTEMPTS:
            raise DomainError(
                f"{int(np.sum(~ok))} bundle paths still leave the chart "
                f"after {RESAMPLE_ATTEMPTS} attempts; reduce sigma"
            )
        bad = np.flatnonzero(~ok)
        paths[bad] = draw(len(bad))
        ok[bad] = np.all(st.in_chart(paths[bad]), axis=1)
        attempts += 1
    meta["resample_rounds"] = attempts - 1
    return PathBundle(seg, leg.taus, paths, sigma, meta)


def path_action(st: Spacetime, xs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Discretized kinetic action sum_k <dx, dx>/dtau along polygon paths."""
    return _chord_action(st, *chord_geometry(np.asarray(xs, dtype=float)), taus)


def _chord_action(st: Spacetime, dx: np.ndarray, mid: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """path_action from the paths' chords dx and chord midpoints mid."""
    q = st.metric(mid)
    q *= dx
    q *= dx
    # np.sum's order over the four components, without a reduction's set-up cost
    num = ((q[..., 0] + q[..., 1]) + q[..., 2]) + q[..., 3]
    return np.sum(num / np.diff(taus), axis=-1)


def _leg_terms(
    pair: PairResult, leg: int, bundles: Sequence[PathBundle], mode: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """(per-path terms of each bundle, sigma=0 map) around leg 1 or 2 of the pair.

    The base polygon is row 0 of one stack with the paths of every sigma > 0
    bundle, transported (and in coherent mode its action taken) one chunk of
    rows at a time.  Every operation acts on each row alone, so a bundle's
    terms do not depend on the bundles stacked beside it.  A coherent term is
    the path's SU(2) map times its action phase exp(-(i/4)(S_path - S_base));
    an incoherent term is the path's 3x3 rotation.  The channel reads only
    the mean term of each bundle.
    """
    st = pair.segment1.spacetime
    base = bundles[0]
    xs = np.concatenate([base.base_knots[None]] + [b.paths for b in bundles if b.sigma != 0.0])
    maps = np.empty((len(xs), 2, 2), dtype=complex)
    actions = np.empty(len(xs))
    for lo in range(0, len(xs), _CHUNK):
        chunk = xs[lo : lo + _CHUNK]
        maps[lo : lo + _CHUNK] = pair.spin_map(leg, polygon_spinor_transport(st, chunk))
        if mode == "coherent":
            # a huge sigma overflows |dx|^2; the check below reports it instead
            with np.errstate(over="ignore", invalid="ignore"):
                actions[lo : lo + _CHUNK] = _chord_action(st, *transported_chord_geometry(chunk), base.taus)
    if mode == "incoherent":
        terms = rotation_matrix_from_su2(maps)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(-0.25j * (actions[1:] - actions[0]))
        if not np.all(np.isfinite(phases)):
            raise DomainError("path action is not finite; reduce sigma")
        # row 0 keeps the base map itself: its relative action is zero
        terms = maps
        terms[1:] *= phases[:, None, None]

    out, lo = [], 1
    for b in bundles:
        if b.sigma == 0.0:
            # every path is the base polygon: the base term, zero relative action
            out.append(np.broadcast_to(terms[0], (b.n_paths,) + terms.shape[1:]))
        else:
            out.append(terms[lo : lo + b.n_paths])
            lo += b.n_paths
    return out, maps[0]


@dataclass
class ChannelAverage:
    """One evaluation of the bundle channel: the averaged spin state and its parts.

    ``terms`` holds each bundle's per-path terms (SU(2) maps times action
    phases in coherent mode, 3x3 rotations in incoherent mode); the state is
    built from their means, and ``fidelity_with_error`` derives the
    Monte-Carlo error bar from block means of the same terms without
    transporting any path again.  ``zero_width`` marks a pair of sigma = 0
    bundles, whose paths all carry the base term.
    """

    rho: np.ndarray
    mode: str
    terms: tuple[np.ndarray, np.ndarray]
    reference_state: np.ndarray
    zero_width: bool

    @property
    def state(self) -> TwoQubitState:
        return TwoQubitState("mixed", self.rho)

    @property
    def fidelity(self) -> float:
        return fidelity(self.reference_state, self.rho)


def _singlet_image(a1: np.ndarray, a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a1 x a2)|singlet> and its norm, batched; a norm below 1e-12 means the
    coherent average destroyed the state."""
    v = pair_state(a1, a2)
    nrm = np.linalg.norm(v, axis=-1)
    if np.any(nrm < 1.0e-12):
        raise ConfigurationError("coherent bundle average destroyed the state entirely")
    return v, nrm


def _combine(a1: np.ndarray, a2: np.ndarray, mode: str) -> np.ndarray:
    """The all-pairs average from the two per-particle mean terms.  Unit trace.

    Coherent mode normalizes (a1 x a2)|singlet>.  Incoherent mode mixes
    conjugated singlets, whose marginals stay I/2, so the mixture is fixed by
    its correlation matrix -R1 R2^T: the Fano form
    rho = (I - sum_jk (R1 R2^T)_jk sigma_j x sigma_k) / 4.
    """
    if mode == "coherent":
        v, nrm = _singlet_image(a1, a2)
        v = v / nrm
        return np.outer(v, v.conj())
    # batched over leading axes in incoherent mode
    return 0.25 * (_ID4 - np.tensordot(a1 @ np.swapaxes(a2, -1, -2), PAULI_PAIRS, 2))


def _block_fidelities(reference: np.ndarray, m1: np.ndarray, m2: np.ndarray, mode: str) -> np.ndarray:
    """Fidelity with ``reference`` of each _combine(m1[j], m2[j], mode), in one pass.

    Coherent mode takes the singlet images v = pair_state(m1, m2) of all
    blocks at once and reads |<reference|v>|^2 / |v|^2 without forming a
    density matrix; incoherent mode builds the Fano form of the whole
    (k, 3, 3) stack of R1 R2^T.
    """
    if mode == "coherent":
        v, nrm = _singlet_image(m1, m2)
        overlap = v @ reference.conj()
        return (overlap.real**2 + overlap.imag**2) / (nrm * nrm)
    return (reference.conj() @ _combine(m1, m2, mode) @ reference).real


def averaged_states(
    pair: PairResult,
    bundles1: Sequence[PathBundle],
    bundles2: Sequence[PathBundle],
    mode: str = "coherent",
) -> list[ChannelAverage]:
    """Average a transported pair's singlet over each pair of bundles.

    bundles1[i] and bundles2[i] must be drawn around ``pair.segment1`` and
    ``pair.segment2``; the result holds one ChannelAverage per bundle pair,
    in order, each equal to a separate ``averaged_state`` call.  Each leg's
    base polygon and paths are transported in one stack, so a sweep over
    sigma pays the per-call cost of the transport chain once per chunk of
    rows, not once per bundle.  The stack holds every bundle handed over:
    pass as many as memory allows at once.
    """
    if mode not in MODES:
        raise UsageError(f"unknown averaging mode {mode!r}")
    if len(bundles1) != len(bundles2):
        raise UsageError("need one bundle around each leg per bundle pair")
    if any(b.base is not pair.segment1 for b in bundles1) or any(
        b.base is not pair.segment2 for b in bundles2
    ):
        raise UsageError("bundles must be drawn around the pair's legs, in leg order")
    if not bundles1:
        return []

    terms1, base_map1 = _leg_terms(pair, 1, bundles1, mode)
    terms2, base_map2 = _leg_terms(pair, 2, bundles2, mode)
    reference = pair_state(base_map1, base_map2)
    return [
        ChannelAverage(
            _combine(t1.mean(axis=0), t2.mean(axis=0), mode),
            mode,
            (t1, t2),
            reference,
            b1.sigma == 0.0 and b2.sigma == 0.0,
        )
        for b1, b2, t1, t2 in zip(bundles1, bundles2, terms1, terms2)
    ]


def averaged_state(
    pair: PairResult, b1: PathBundle, b2: PathBundle, mode: str = "coherent"
) -> ChannelAverage:
    """Average a transported pair's singlet over both bundles' path pairs.

    b1 and b2 must be drawn around ``pair.segment1`` and ``pair.segment2``;
    the pair's spin_map closes every path transport, so the result is a
    density matrix in the pair's own detector frames.
    ``mode`` is one of MODES.  Coherent mode superposes amplitudes with
    their action phases (the average stays pure); incoherent mode mixes the
    conjugated density matrices uniformly.  This is ``averaged_states`` for
    one bundle pair: pass the result to ``fidelity_with_error``.
    """
    return averaged_states(pair, [b1], [b2], mode)[0]


def degraded_correlation(avg: ChannelAverage, a, b) -> float:
    """E(a, b) = tr(rho (a.sigma x b.sigma)) for the averaged state."""
    return correlation(avg.state, a, b)


def fidelity_with_error(avg: ChannelAverage) -> tuple[float, float]:
    """Singlet fidelity of a bundle average and its Monte-Carlo error.

    The error bar is the standard error over FIDELITY_BLOCKS disjoint path
    blocks, each combined with the same rule from the block means of the
    per-path terms ``averaged_state`` already computed.  A zero-width pair
    has no Monte-Carlo error: its blocks are copies of one average, and
    blocks of unequal size would only differ by round-off, so its error is 0.
    """
    if avg.zero_width:
        return avg.fidelity, 0.0
    n = min(len(t) for t in avg.terms)
    k = min(FIDELITY_BLOCKS, n)
    starts = np.arange(k) * n // k
    counts = np.diff(starts, append=n)[:, None, None]
    m1, m2 = (np.add.reduceat(t[:n], starts) / counts for t in avg.terms)
    fs = _block_fidelities(avg.reference_state, m1, m2, avg.mode)
    se = float(np.std(fs, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return avg.fidelity, se
