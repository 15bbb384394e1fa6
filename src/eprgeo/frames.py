"""Orthonormal frame fields and the frame-index connection.

A frame at an event is a matrix N whose columns are the frame legs in
coordinate components, with N^T g N = eta and the timelike leg in column
zero.  The "static" gauge is the signature Gram-Schmidt frame built from the
coordinate basis in order (t, then the spatial axes), which makes N
upper-triangular with positive diagonal and hence unique.  The
"boosted-static" gauge multiplies it on the right by a constant boost; it
exists only so gauge independence can be tested, not because it is useful.

The frame-index connection M_l = N^{-1}(d_l N + Gamma_l N) is closed-form in
g and Gamma at the point, with no frame derivative and no differencing: in
the static gauge N^{-1} d_l N is upper-triangular (see spin_connection).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UsageError
from .lorentz import ETA
from .spacetime import Spacetime

GAUGES = ("static", "boosted-static")

# rapidity of the constant frame boost used by the boosted-static gauge
BOOST_RAPIDITY = 0.3

_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])


def gauge_boost() -> np.ndarray:
    """The constant Lorentz boost distinguishing the boosted-static gauge.

    Rapidity BOOST_RAPIDITY along frame axis 3.
    """
    ch, sh = np.cosh(BOOST_RAPIDITY), np.sinh(BOOST_RAPIDITY)
    L = np.eye(4)
    L[0, 0] = L[3, 3] = ch
    L[0, 3] = L[3, 0] = sh
    return L


def _check_gauge(gauge: str) -> None:
    if gauge not in GAUGES:
        raise UsageError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")


def gram_schmidt_frame(g: np.ndarray) -> np.ndarray:
    """Signature Gram-Schmidt frame of the coordinate basis.  Batched.

    Returns N with N^T g N = eta, column 0 timelike.  Raises DomainError if
    the basis cannot be orthonormalized with that signature (wrong metric
    signature at the point, e.g. inside a horizon).
    """
    g = np.asarray(g, dtype=float)
    batch = g.shape[:-2]
    n = np.zeros(batch + (4, 4))
    for a in range(4):
        v = np.zeros(batch + (4,))
        v[..., a] = 1.0
        for b in range(a):
            leg = n[..., :, b]
            coeff = _ETA_DIAG[b] * np.einsum("...m,...mn,...n->...", leg, g, v)
            v = v - coeff[..., None] * leg
        nrm2 = _ETA_DIAG[a] * np.einsum("...m,...mn,...n->...", v, g, v)
        if np.any(nrm2 <= 0.0) or not np.all(np.isfinite(nrm2)):
            raise DomainError("metric signature is not (-,+,+,+) at a requested event")
        n[..., :, a] = v / np.sqrt(nrm2)[..., None]
    return n


def frame_field(st: Spacetime, coords: np.ndarray, gauge: str = "static") -> np.ndarray:
    """Frame matrix N at coords (batched), in the requested gauge."""
    _check_gauge(gauge)
    n = gram_schmidt_frame(st.metric(coords))
    if gauge == "boosted-static":
        n = n @ gauge_boost()
    return n


def inverse_frame(n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact inverse of any frame with N^T g N = eta:  N^{-1} = eta N^T g."""
    return ETA @ np.swapaxes(n, -1, -2) @ g


def spin_connection(st: Spacetime, coords: np.ndarray, gauge: str = "static") -> np.ndarray:
    """Frame-index connection M[..., l, a, b] with eta M_l antisymmetric.

    M_l = N^{-1}(d_l N + Gamma_l N) gives eta M_l = eta C_l + K_l, where
    C_l = N^{-1} d_l N is upper-triangular like the static frame N and
    K_l = N^T g Gamma_l N; so eta M_l is the antisymmetric matrix whose strict
    lower triangle is that of K_l.  In the boosted-static gauge
    eta L^{-1} = L eta turns eta M into L (eta M) L, re-projected onto its
    antisymmetric part so the so(1,3) structure holds exactly.
    """
    _check_gauge(gauge)
    g = st.metric(coords)
    n = gram_schmidt_frame(g)
    gam = st.christoffel(coords)
    k = np.einsum("...ma,...mn,...nlp,...pb->...lab", n, g, gam, n, optimize=True)
    em = np.tril(k, -1)
    em = em - np.swapaxes(em, -1, -2)
    if gauge == "boosted-static":
        L = gauge_boost()
        em = L @ em @ L
        em = 0.5 * (em - np.swapaxes(em, -1, -2))
    return _ETA_DIAG[:, None] * em


def orthonormality_defect(g: np.ndarray, n: np.ndarray) -> float:
    """max |N^T g N - eta| over the batch; the frame-quality figure."""
    r = np.einsum("...ma,...mn,...nb->...ab", n, g, n) - ETA
    return float(np.max(np.abs(r)))
