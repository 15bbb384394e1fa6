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
rather than holding only up to discretization error.  A sigma=0 bundle
holds n copies of those knots, so it is transported once: every path gets
the base polygon's term, with zero relative action.

``averaged_state(pair, b1, b2, mode)`` degrades a transported pair: the
pair's rest-frame map PairResult.spin_map, which applies its gauge, closes
every static-frame path transport, and each bundle is transported once.
The ChannelAverage it returns holds the averaged state, the per-path terms
and the reference state; ``fidelity_with_error(avg)`` derives the fidelity
and its block standard error from that object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .frames import frame_field
from .geodesic import GeodesicSegment
from .lorentz import rotation_matrix_from_su2
from .pipeline import PairResult
from .spacetime import Spacetime
from .spin import PAULI_PAIRS, SINGLET, TwoQubitState, correlation, fidelity, pair_state
from .transport import polygon_spinor_transport

MAX_BUNDLE_KNOTS = 160
MODES = ("coherent", "incoherent")
RESAMPLE_ATTEMPTS = 100
# disjoint path blocks behind the standard error of fidelity_with_error
FIDELITY_BLOCKS = 10

# paths per transport chunk; bounds the per-chord (chords, paths) connection
# components and the (chords, 4, paths) exponential components of one transport
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
    idx = _decimate(seg.n_samples)
    taus = seg.tau[idx] - seg.tau[0]
    knots = seg.events[idx]
    length = taus[-1]
    meta = {"base_knots": knots.copy()}

    if sigma == 0.0:
        paths = np.broadcast_to(knots, (n_paths,) + knots.shape).copy()
        meta["resample_rounds"] = 0
        return PathBundle(seg, taus, paths, sigma, meta)

    interior = slice(1, -1)
    # the static frame is diagonal: spatial leg j is its scale times axis j + 1
    scale = np.diagonal(frame_field(st, knots), axis1=-2, axis2=-1)[interior, 1:]
    t_int = taus[interior]
    envelope = np.sin(np.pi * t_int / length)
    bridge_var = t_int * (length - t_int) / length
    dtau = np.diff(taus)

    rng = np.random.default_rng(seed)

    def draw(count: int) -> np.ndarray:
        """count perturbed paths, shape (count, K+1, 4)."""
        dw = rng.standard_normal((count, len(dtau), 3)) * np.sqrt(dtau)[:, None]
        w = np.cumsum(dw, axis=1)
        bridge = w[:, :-1, :] - (t_int / length)[None, :, None] * w[:, -1:, :]
        unit = bridge / np.sqrt(bridge_var)[None, :, None]
        delta = sigma * envelope[None, :, None] * unit
        out = np.broadcast_to(knots, (count,) + knots.shape).copy()
        out[:, interior, 1:] += scale * delta
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
    return PathBundle(seg, taus, paths, sigma, meta)


def path_action(st: Spacetime, xs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Discretized kinetic action sum_k <dx, dx>/dtau along polygon paths."""
    xs = np.asarray(xs, dtype=float)
    dx = xs[..., 1:, :] - xs[..., :-1, :]
    mid = 0.5 * xs[..., 1:, :] + 0.5 * xs[..., :-1, :]
    g = st.metric(mid)
    num = np.sum(g * dx * dx, axis=-1)
    return np.sum(num / np.diff(taus), axis=-1)


def _bundle_ingredients(
    pair: PairResult, leg: int, bundle: PathBundle, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """(per-path terms, sigma=0 map) of the bundle around leg 1 or 2 of the pair.

    A coherent term is the path's SU(2) map times its action phase
    exp(-(i/4)(S_path - S_base)); an incoherent term is the path's 3x3
    rotation.  The channel reads only the mean term of each bundle.
    """
    st = bundle.base.spacetime
    base_map = pair.spin_map(leg, polygon_spinor_transport(st, bundle.base_knots))

    n = bundle.n_paths
    if bundle.sigma == 0.0:
        # every path is a copy of the base knots: the base map, zero action phase
        base_term = base_map if mode == "coherent" else rotation_matrix_from_su2(base_map)
        return np.broadcast_to(base_term, (n,) + base_term.shape), base_map

    maps = np.empty((n, 2, 2), dtype=complex)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        maps[lo:hi] = pair.spin_map(leg, polygon_spinor_transport(st, bundle.paths[lo:hi]))
    if mode == "incoherent":
        return rotation_matrix_from_su2(maps), base_map
    # a huge sigma overflows |dx|^2; the check below reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        s_base = path_action(st, bundle.base_knots, bundle.taus)
        phases = np.exp(-0.25j * (path_action(st, bundle.paths, bundle.taus) - s_base))
    if not np.all(np.isfinite(phases)):
        raise DomainError("path action is not finite; reduce sigma")
    return maps * phases[:, None, None], base_map


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


def _combine(a1: np.ndarray, a2: np.ndarray, mode: str) -> np.ndarray:
    """The all-pairs average from the two per-particle mean terms.  Unit trace.

    Coherent mode normalizes (a1 x a2)|singlet>.  Incoherent mode mixes
    conjugated singlets, whose marginals stay I/2, so the mixture is fixed by
    its correlation matrix -R1 R2^T: the Fano form
    rho = (I - sum_jk (R1 R2^T)_jk sigma_j x sigma_k) / 4.
    """
    if mode == "coherent":
        v = np.kron(a1, a2) @ SINGLET
        nrm = float(np.linalg.norm(v))
        if nrm < 1.0e-12:
            raise ConfigurationError("coherent bundle average destroyed the state entirely")
        v = v / nrm
        return np.outer(v, v.conj())
    return 0.25 * (_ID4 - np.tensordot(a1 @ a2.T, PAULI_PAIRS, 2))


def averaged_state(
    pair: PairResult, b1: PathBundle, b2: PathBundle, mode: str = "coherent"
) -> ChannelAverage:
    """Average a transported pair's singlet over both bundles' path pairs.

    b1 and b2 must be drawn around ``pair.segment1`` and ``pair.segment2``;
    the pair's spin_map closes every path transport, so the result is a
    density matrix in the pair's own detector frames.
    ``mode`` is one of MODES.  Coherent mode superposes amplitudes with
    their action phases (the average stays pure); incoherent mode mixes the
    conjugated density matrices uniformly.  This is the only place a bundle
    pair is transported: pass the result to ``fidelity_with_error``.
    """
    if mode not in MODES:
        raise UsageError(f"unknown averaging mode {mode!r}")
    if b1.base is not pair.segment1 or b2.base is not pair.segment2:
        raise UsageError("bundles must be drawn around the pair's legs, in leg order")

    t1, base_map1 = _bundle_ingredients(pair, 1, b1, mode)
    t2, base_map2 = _bundle_ingredients(pair, 2, b2, mode)
    return ChannelAverage(
        _combine(t1.mean(axis=0), t2.mean(axis=0), mode),
        mode,
        (t1, t2),
        pair_state(base_map1, base_map2),
        b1.sigma == 0.0 and b2.sigma == 0.0,
    )


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
    fs = [fidelity(avg.reference_state, _combine(a1, a2, avg.mode)) for a1, a2 in zip(m1, m2)]
    se = float(np.std(fs, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return avg.fidelity, se
