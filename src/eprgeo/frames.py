"""Orthonormal frame fields and the frame-index connection.

A frame at an event is a matrix N whose columns are the frame legs in
coordinate components, with N^T g N = eta and the timelike leg in column
zero.  frame_field gives the static frame: the signature Gram-Schmidt frame
built from the coordinate basis in order (t, then the spatial axes).  Every
metric here is diagonal in its chart and is given as its diagonal g_aa, so
that frame is diag(|g_aa|^(-1/2)).  Every frame below the scenario is
static.  A constant frame change cancels in both transport routes, so the
"boosted-static" gauge, the static frame times the constant gauge_boost,
enters only the decay tetrad whose orthonormality drift the report prints
(pipeline.PairResult.ortho_drift).

The frame-index connection M_l = N^{-1}(d_l N + Gamma_l N) is closed-form at
the point, with no frame derivative and no differencing.
spin_connection_components maps the six coefficients each spacetime's
static_connection gives in closed form to the three components (c3, b, d)
of the static-frame SL(2,C) generator of -M_l dx^l for a chord dx, so the
spinor route reads neither the metric nor Gamma; spin_connection stacks the
same components into the (..., 2, 2) generator.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .lorentz import ETA, ETA_DIAG, sl2_components, sl2_matrix
from .spacetime import Spacetime, require_static_frame

GAUGES = ("static", "boosted-static")

# rapidity of the constant frame boost used by the boosted-static gauge
BOOST_RAPIDITY = 0.3


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


def gram_schmidt_frame(g: np.ndarray) -> np.ndarray:
    """Signature Gram-Schmidt frame of the coordinate basis.  Batched.

    g is the metric's diagonal g_aa, shape (..., 4).  Returns N with
    N^T g N = eta, column 0 timelike: every projection coefficient of a
    diagonal metric is an exact zero, so N = diag(|g_aa|^(-1/2)).  Raises
    DomainError on a wrong signature at the point (e.g. inside a horizon).
    """
    nrm2 = ETA_DIAG * np.asarray(g, dtype=float)
    require_static_frame(nrm2)
    return (1.0 / np.sqrt(nrm2))[..., None] * np.eye(4)


def frame_field(st: Spacetime, coords: np.ndarray) -> np.ndarray:
    """Static frame matrix N at coords (batched)."""
    return gram_schmidt_frame(st.metric(coords))


def inverse_frame(n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact inverse of any frame with N^T g N = eta:  N^{-1} = eta N^T g.

    g is the metric's diagonal, so the product with g scales the columns.
    """
    return ETA @ np.swapaxes(n, -1, -2) * g[..., None, :]


def spin_connection_components(
    st: Spacetime, coords: np.ndarray, dx: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(c3, b, d) of the static-frame generator [[c3, b], [d, -c3]] of -M_l dx^l.

    M_l = N^{-1}(d_l N + Gamma_l N) gives eta M_l = eta C_l + K_l, where
    C_l = N^{-1} d_l N is diagonal like the static frame N and
    K_l = N^T g Gamma_l N; so eta M_l dx^l is the antisymmetric matrix A whose
    strict lower triangle is that of K = K_l dx^l, which st.static_connection
    gives in closed form, and sl2_components lifts -M_l dx^l = -eta A from
    those six coefficients.  Raises DomainError where the static frame does
    not exist.  The components go into ``out`` (3, ...) if given.
    """
    return sl2_components(*st.static_connection(coords, dx), out=out)


def spin_connection(st: Spacetime, coords: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The same generator as a (..., 2, 2) matrix."""
    return sl2_matrix(spin_connection_components(st, coords, dx))


def orthonormality_defect(g: np.ndarray, n: np.ndarray) -> float:
    """max |N^T g N - eta| over the batch, g the metric's diagonal; the frame-quality figure."""
    r = np.einsum("...ma,...m,...mb->...ab", n, g, n) - ETA
    return float(np.max(np.abs(r)))
