"""Orthonormal frame fields and the frame-index connection.

A frame at an event is a matrix N whose columns are the frame legs in
coordinate components, with N^T g N = eta and the timelike leg in column
zero.  The "static" gauge is the signature Gram-Schmidt frame built from the
coordinate basis in order (t, then the spatial axes).  Every metric here is
diagonal in its chart, so that frame is diag(|g_aa|^(-1/2)); a non-diagonal
metric raises DomainError.  The "boosted-static" gauge multiplies it on the
right by a constant boost, so gauge independence can be tested.

The frame-index connection M_l = N^{-1}(d_l N + Gamma_l N) is closed-form in
g and Gamma at the point, with no frame derivative and no differencing;
spin_connection returns it already contracted with a chord, -M_l dx^l.
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
# (row, column) of the six strict-lower entries of a 4x4 matrix
_LOWER, _UPPER = np.tril_indices(4, -1)


def gauge_boost() -> np.ndarray:
    """The constant Lorentz boost distinguishing the boosted-static gauge.

    Rapidity BOOST_RAPIDITY along frame axis 3.
    """
    ch, sh = np.cosh(BOOST_RAPIDITY), np.sinh(BOOST_RAPIDITY)
    L = np.eye(4)
    L[0, 0] = L[3, 3] = ch
    L[0, 3] = L[3, 0] = sh
    return L


def check_gauge(gauge: str) -> None:
    if gauge not in GAUGES:
        raise UsageError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")


def _frame_diagonal(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal of g, diagonal of its static frame N) for a diagonal metric."""
    d = np.diagonal(g, axis1=-2, axis2=-1)
    if np.count_nonzero(g) != np.count_nonzero(d):
        raise DomainError("metric is not diagonal in its chart at a requested event")
    nrm2 = _ETA_DIAG * d
    if np.any(nrm2 <= 0.0) or not np.all(np.isfinite(nrm2)):
        raise DomainError("metric signature is not (-,+,+,+) at a requested event")
    return d, 1.0 / np.sqrt(nrm2)


def gram_schmidt_frame(g: np.ndarray) -> np.ndarray:
    """Signature Gram-Schmidt frame of the coordinate basis.  Batched.

    Returns N with N^T g N = eta, column 0 timelike.  For a diagonal g every
    projection coefficient is an exact zero, so N = diag(|g_aa|^(-1/2))
    bitwise.  Raises DomainError on a non-diagonal metric or a wrong
    signature at the point (e.g. inside a horizon).
    """
    return _frame_diagonal(np.asarray(g, dtype=float))[1][..., None] * np.eye(4)


def frame_field(st: Spacetime, coords: np.ndarray, gauge: str = "static") -> np.ndarray:
    """Frame matrix N at coords (batched), in the requested gauge."""
    check_gauge(gauge)
    n = gram_schmidt_frame(st.metric(coords))
    if gauge == "boosted-static":
        n = n @ gauge_boost()
    return n


def inverse_frame(n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact inverse of any frame with N^T g N = eta:  N^{-1} = eta N^T g."""
    return ETA @ np.swapaxes(n, -1, -2) @ g


def spin_connection(
    st: Spacetime, coords: np.ndarray, dx: np.ndarray, gauge: str = "static"
) -> np.ndarray:
    """Connection contracted with chords dx at coords: m = -M_l dx^l, (..., 4, 4).

    M_l = N^{-1}(d_l N + Gamma_l N) gives eta M_l = eta C_l + K_l, where
    C_l = N^{-1} d_l N is diagonal like the static frame N and
    K_l = N^T g Gamma_l N; so eta M_l is the antisymmetric matrix whose strict
    lower triangle is that of K_l.  Contracting Gamma_l dx^l first leaves
    K = N^T g (Gamma.dx) N, elementwise for diagonal g and N.  In the
    boosted-static gauge eta L^{-1} = L eta turns eta m into L (eta m) L,
    re-projected onto its antisymmetric part so the so(1,3) structure holds
    exactly.
    """
    check_gauge(gauge)
    gd, nd = _frame_diagonal(st.metric(coords))
    gam_dx = np.einsum("...nlp,...l->...np", st.christoffel(coords), dx)
    lower = (nd * gd)[..., _LOWER] * gam_dx[..., _LOWER, _UPPER] * nd[..., _UPPER]
    em = np.zeros(gam_dx.shape)
    em[..., _LOWER, _UPPER] = lower
    em[..., _UPPER, _LOWER] = -lower
    if gauge == "boosted-static":
        L = gauge_boost()
        em = L @ em @ L
        em = 0.5 * (em - np.swapaxes(em, -1, -2))
    return -_ETA_DIAG[:, None] * em


def orthonormality_defect(g: np.ndarray, n: np.ndarray) -> float:
    """max |N^T g N - eta| over the batch; the frame-quality figure."""
    r = np.einsum("...ma,...mn,...nb->...ab", n, g, n) - ETA
    return float(np.max(np.abs(r)))
