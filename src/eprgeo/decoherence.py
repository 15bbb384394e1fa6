"""Finite path bundles around the geodesics and the correlation they leave.

Each particle's propagation is approximated by a bundle of polygonal paths
near its geodesic leg: transverse Brownian bridges in the static-frame
spatial legs, pinned to the exact endpoints, with a sin(pi tau/L) width
envelope so the per-knot standard deviation is sigma * sin(pi tau/L).

Per path, the spin effect is the rest-frame rotation of its polygon
transport; the amplitude weight is the relative discretized action phase
exp(-(i/4)(S_path - S_base)).  The two-sided average over all n^2 path
pairs factorizes into one averaged 2x2 operator per particle (coherent
mode) or one averaged conjugation per particle (incoherent mode), so the
all-pairs result is computed exactly in O(n).  The mode belongs to the
channel, not to the bundles: the same bundle pair can be averaged both ways.

The reference state for fidelity is the sigma=0 transport over the same
decimated knots, which makes the sigma -> 0 limit exact by construction
rather than holding only up to discretization error.  A sigma=0 bundle
holds n copies of those knots, so it is transported once: every path gets
the base polygon's map and, having zero relative action, the weight 1/n.

``averaged_state(pair, b1, b2, mode)`` degrades a transported pair: it closes
every path transport with the pair's own rest-frame factors, in its gauge,
and transports the bundle pair once.  The ChannelAverage it returns holds the
averaged state, the per-path maps and weights, and the reference state;
``fidelity_with_error(avg)`` derives the fidelity and its block standard
error from that object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .frames import frame_field
from .geodesic import GeodesicSegment
from .lorentz import su2_polar
from .pipeline import PairResult
from .spacetime import Spacetime
from .spin import SINGLET, TwoQubitState, correlation, fidelity, pair_state
from .transport import polygon_spinor_transport

MAX_BUNDLE_KNOTS = 160
MODES = ("coherent", "incoherent")
RESAMPLE_ATTEMPTS = 100
# disjoint path blocks behind the standard error of fidelity_with_error
FIDELITY_BLOCKS = 10

# paths per transport chunk; keeps the batched christoffel arrays modest
_CHUNK = 256

_ID2 = np.eye(2, dtype=complex)


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
    if sigma < 0.0:
        raise UsageError("bundle width sigma must be nonnegative")
    if n_paths < 1:
        raise UsageError("n_paths must be at least 1")
    if seg.zero_length:
        raise UsageError("cannot build a path bundle on a zero-length segment")

    st = seg.spacetime
    idx = _decimate(seg.n_samples)
    taus = seg.tau[idx] - seg.tau[0]
    knots = seg.events[idx]
    length = taus[-1]
    meta = {"base_knots": knots.copy(), "knot_indices": idx}

    if sigma == 0.0:
        paths = np.broadcast_to(knots, (n_paths,) + knots.shape).copy()
        meta["resample_rounds"] = 0
        return PathBundle(seg, taus, paths, sigma, meta)

    legs = frame_field(st, knots)[..., 1:]  # static spatial legs, (K+1, 4, 3)
    interior = slice(1, -1)
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
        out[:, interior, :] += np.einsum("kaj,nkj->nka", legs[interior], delta)
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
    num = np.einsum("...ka,...kab,...kb->...k", dx, g, dx)
    return np.sum(num / np.diff(taus), axis=-1)


def _bundle_ingredients(
    bundle: PathBundle, mode: str, gauge: str, pre: np.ndarray, post: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(per-path SU(2) maps, per-path complex weights, sigma=0 map)."""
    st = bundle.base.spacetime
    base_u = polygon_spinor_transport(st, bundle.base_knots, gauge)
    base_map = su2_polar(post @ base_u @ pre)[0]

    n = bundle.n_paths
    weights = np.full(n, 1.0 / n, dtype=complex)
    if bundle.sigma == 0.0:
        # every path is a copy of the base knots: the base map, zero action phase
        return np.broadcast_to(base_map, (n, 2, 2)), weights, base_map

    maps = np.empty((n, 2, 2), dtype=complex)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        u = polygon_spinor_transport(st, bundle.paths[lo:hi], gauge)
        maps[lo:hi] = su2_polar(post @ u @ pre)[0]
    if mode == "coherent":
        # a huge sigma overflows |dx|^2; the check below reports it instead
        with np.errstate(over="ignore", invalid="ignore"):
            s_base = path_action(st, bundle.base_knots, bundle.taus)
            weights = np.exp(-0.25j * (path_action(st, bundle.paths, bundle.taus) - s_base)) / n
        if not np.all(np.isfinite(weights)):
            raise DomainError("path action is not finite; reduce sigma")
    return maps, weights, base_map


def _kron_left(w: np.ndarray) -> np.ndarray:
    """kron(W, I2) for a batch of 2x2 matrices."""
    return np.einsum("...ij,kl->...ikjl", w, _ID2).reshape(w.shape[:-2] + (4, 4))


def _kron_right(w: np.ndarray) -> np.ndarray:
    """kron(I2, W) for a batch of 2x2 matrices."""
    return np.einsum("ij,...kl->...ikjl", _ID2, w).reshape(w.shape[:-2] + (4, 4))


@dataclass
class ChannelAverage:
    """One evaluation of the bundle channel: the averaged spin state and its parts.

    ``transports`` and ``weights`` hold each bundle's per-path SU(2) maps and
    complex weights; ``fidelity_with_error`` derives the Monte-Carlo error
    bar from them without transporting any path again.  ``zero_width`` marks
    a pair of sigma = 0 bundles, whose paths all carry the base map.
    """

    rho: np.ndarray
    mode: str
    transports: tuple[np.ndarray, np.ndarray]
    weights: tuple[np.ndarray, np.ndarray]
    reference_state: np.ndarray
    zero_width: bool

    @property
    def state(self) -> TwoQubitState:
        return TwoQubitState("mixed", self.rho)

    @property
    def fidelity(self) -> float:
        return fidelity(self.reference_state, self.rho)


def _combine(
    maps1: np.ndarray,
    w1: np.ndarray,
    maps2: np.ndarray,
    w2: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Exact all-pairs average, factorized per particle.  Unit trace."""
    if mode == "coherent":
        a1 = np.einsum("p,pij->ij", w1, maps1)
        a2 = np.einsum("p,pij->ij", w2, maps2)
        v = np.kron(a1, a2) @ SINGLET
        nrm = float(np.linalg.norm(v))
        if nrm < 1.0e-12:
            raise ConfigurationError("coherent bundle average destroyed the state entirely")
        v = v / nrm
        return np.outer(v, v.conj())
    p0 = np.outer(SINGLET, SINGLET.conj())
    x = _kron_right(maps2)
    t = np.einsum("p,pij,jk,plk->il", np.abs(w2), x, p0, x.conj())
    y = _kron_left(maps1)
    rho = np.einsum("p,pij,jk,plk->il", np.abs(w1), y, t, y.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def averaged_state(
    pair: PairResult, b1: PathBundle, b2: PathBundle, mode: str = "coherent"
) -> ChannelAverage:
    """Average a transported pair's singlet over both bundles' path pairs.

    b1 and b2 must be drawn around ``pair.segment1`` and ``pair.segment2``;
    the pair's rest-frame factors and gauge close every path transport, so
    the result is a density matrix in the pair's own detector frames.
    ``mode`` is one of MODES.  Coherent mode superposes amplitudes with
    their action phases (the average stays pure); incoherent mode mixes the
    conjugated density matrices uniformly.  This is the only place a bundle
    pair is transported: pass the result to ``fidelity_with_error``.
    """
    if mode not in MODES:
        raise UsageError(f"unknown averaging mode {mode!r}")
    if b1.base is not pair.segment1 or b2.base is not pair.segment2:
        raise UsageError("bundles must be drawn around the pair's legs, in leg order")

    (pre1, post1), (pre2, post2) = pair.conjugation_factors
    maps1, w1, base_map1 = _bundle_ingredients(b1, mode, pair.gauge, pre1, post1)
    maps2, w2, base_map2 = _bundle_ingredients(b2, mode, pair.gauge, pre2, post2)

    rho = _combine(maps1, w1, maps2, w2, mode)
    return ChannelAverage(
        rho,
        mode,
        (maps1, maps2),
        (w1, w2),
        pair_state(base_map1, base_map2),
        b1.sigma == 0.0 and b2.sigma == 0.0,
    )


def degraded_correlation(avg: ChannelAverage, a, b) -> float:
    """E(a, b) = tr(rho (a.sigma x b.sigma)) for the averaged state."""
    return correlation(avg.state, a, b)


def fidelity_with_error(avg: ChannelAverage) -> tuple[float, float]:
    """Singlet fidelity of a bundle average and its Monte-Carlo error.

    The error bar is the standard error over FIDELITY_BLOCKS disjoint path
    blocks, each averaged independently with the same rule from the per-path
    maps and weights ``averaged_state`` already computed.  A zero-width pair
    has no Monte-Carlo error: its blocks are copies of one average, and
    blocks of unequal size would only differ by round-off, so its error is 0.
    """
    if avg.zero_width:
        return avg.fidelity, 0.0
    maps1, maps2 = avg.transports
    w1, w2 = avg.weights
    psi0 = avg.reference_state

    n = min(len(maps1), len(maps2))
    bounds = np.linspace(0, n, min(FIDELITY_BLOCKS, n) + 1).astype(int)
    fs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        # renormalize the block weights so each block is a complete average
        scale = n / (hi - lo) if avg.mode == "coherent" else 1.0
        rk = _combine(
            maps1[lo:hi],
            w1[lo:hi] * scale,
            maps2[lo:hi],
            w2[lo:hi] * scale,
            avg.mode,
        )
        fs.append(fidelity(psi0, rk))
    fs = np.asarray(fs)
    se = float(np.std(fs, ddof=1) / np.sqrt(len(fs))) if len(fs) > 1 else 0.0
    return avg.fidelity, se
