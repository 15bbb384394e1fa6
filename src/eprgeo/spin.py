"""Two-qubit states of the decay pair, measurements, and Bell combinations.

The two-particle basis is |00>, |01>, |10>, |11>.  States carry frame tags:
each tensor factor's spin components refer to the spatial triad of a named
tetrad, and operations that mix states with directions check that the tags
agree.  Transports enter only as the SU(2) rest-frame rotations handed to
``pair_state``; boosts are absorbed into the rest-frame convention for spin,
so measurement axes always live in ordinary 3-space.

Everything here is small dense linear algebra; the geometry enters only
through the rotations handed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .lorentz import ID2, PAULI
from .spacetime import same_event
from .transport import Tetrad

_SQRT2 = np.sqrt(2.0)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2

# measurement block saturating |CHSH| for the untouched singlet: value -2 sqrt(2)
CANONICAL_CHSH_DIRECTIONS = (
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([1.0, 0.0, 1.0]) / _SQRT2,
    np.array([1.0, 0.0, -1.0]) / _SQRT2,
)


def _frames_match(f1: Optional[Tetrad], f2: Optional[Tetrad]) -> bool:
    if f1 is None or f2 is None:
        return True
    return (
        same_event(f1.event, f2.event, tol=1.0e-9)
        and float(np.max(np.abs(f1.matrix - f2.matrix))) < 1.0e-9
    )


@dataclass(frozen=True)
class Direction:
    """A unit measurement axis in the spatial triad of a tagged tetrad."""

    components: np.ndarray
    frame: Optional[Tetrad] = None

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.shape != (3,):
            raise UsageError(f"direction must be a 3-vector, got shape {a.shape}")
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1.0e-10:
            raise UsageError(f"direction must be unit (|a| = {n:.12g})")
        object.__setattr__(self, "components", a / n)


def direction(a: np.ndarray, frame: Optional[Tetrad] = None) -> Direction:
    """Direction from an unnormalized 3-vector (normalizes, rejects zero)."""
    a = np.asarray(a, dtype=float)
    n = np.linalg.norm(a)
    if n < 1.0e-14:
        raise UsageError("direction must be nonzero")
    return Direction(a / n, frame)


@dataclass(frozen=True)
class TwoQubitState:
    """Pure (4-vector) or mixed (4x4 density matrix) two-qubit state."""

    kind: str
    data: np.ndarray
    frames: tuple[Optional[Tetrad], Optional[Tetrad]] = (None, None)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if self.kind == "pure":
            if data.shape != (4,):
                raise UsageError("pure state data must be a 4-vector")
            if abs(np.linalg.norm(data) - 1.0) > 1.0e-10:
                raise UsageError("pure state must be normalized")
        elif self.kind == "mixed":
            if data.shape != (4, 4):
                raise UsageError("mixed state data must be a 4x4 matrix")
            if np.max(np.abs(data - data.conj().T)) > 1.0e-10:
                raise UsageError("density matrix must be Hermitian")
            if abs(np.trace(data).real - 1.0) > 1.0e-10:
                raise UsageError("density matrix must have unit trace")
            if np.min(np.linalg.eigvalsh(data)) < -1.0e-8:
                raise UsageError("density matrix must be positive semidefinite")
        else:
            raise UsageError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")
        object.__setattr__(self, "data", data)

    @property
    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data


def singlet(frame: Optional[Tetrad] = None) -> TwoQubitState:
    """The antisymmetric pure state, both factors tagged with ``frame``."""
    return TwoQubitState("pure", SINGLET.copy(), (frame, frame))


def _direction_vector(a, state_frame: Optional[Tetrad], side: str) -> np.ndarray:
    if isinstance(a, Direction):
        if not _frames_match(a.frame, state_frame):
            raise UsageError(f"direction for particle {side} is tagged with a different frame")
        return a.components
    a = np.asarray(a, dtype=float)
    n = np.linalg.norm(a)
    if a.shape != (3,) or abs(n - 1.0) > 1.0e-10:
        raise UsageError(f"measurement direction for particle {side} must be a unit 3-vector")
    return a / n


def correlation(state: TwoQubitState, a, b) -> float:
    """E(a, b) = <(a.sigma) x (b.sigma)> in the state's tagged frames."""
    va = _direction_vector(a, state.frames[0], "1")
    vb = _direction_vector(b, state.frames[1], "2")
    op = np.kron(
        va[0] * PAULI[0] + va[1] * PAULI[1] + va[2] * PAULI[2],
        vb[0] * PAULI[0] + vb[1] * PAULI[1] + vb[2] * PAULI[2],
    )
    if state.kind == "pure":
        return float((state.data.conj() @ op @ state.data).real)
    return float(np.trace(state.data @ op).real)


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """K[j, k] = <sigma_j x sigma_k>, so E(a, b) = a^T K b."""
    rho = state.density
    k = np.empty((3, 3))
    for j in range(3):
        for kk in range(3):
            k[j, kk] = np.trace(rho @ np.kron(PAULI[j], PAULI[kk])).real
    return k


def matched_direction(state: TwoQubitState, a) -> np.ndarray:
    """The axis b restoring the strongest anticorrelation with a.

    For a transported singlet this is the image of a under the relative
    frame rotation, and E(a, matched) = -1.
    """
    va = _direction_vector(a, state.frames[0], "1")
    b = -correlation_matrix(state).T @ va
    n = np.linalg.norm(b)
    if n < 1.0e-12:
        raise UsageError("state carries no spin correlation along this axis")
    return b / n


def chsh(state: TwoQubitState, a, ap, b, bp) -> float:
    """E(a,b) - E(a,b') + E(a',b) + E(a',b') for the given settings."""
    k = correlation_matrix(state)
    va = _direction_vector(a, state.frames[0], "1")
    vap = _direction_vector(ap, state.frames[0], "1")
    vb = _direction_vector(b, state.frames[1], "2")
    vbp = _direction_vector(bp, state.frames[1], "2")
    return float(va @ k @ vb - va @ k @ vbp + vap @ k @ vb + vap @ k @ vbp)


# ---------------------------------------------------------------------------
# raw-matrix helpers shared with the decoherence channel


def pair_state(w1: np.ndarray | None = None, w2: np.ndarray | None = None) -> np.ndarray:
    """(W1 x W2)|singlet> as a bare 4-vector.  None means identity."""
    w1 = ID2 if w1 is None else np.asarray(w1, dtype=complex)
    w2 = ID2 if w2 is None else np.asarray(w2, dtype=complex)
    return np.kron(w1, w2) @ SINGLET


def fidelity(reference: np.ndarray, rho: np.ndarray) -> float:
    """<psi|rho|psi> for a pure reference vector and a density matrix."""
    reference = np.asarray(reference, dtype=complex)
    return float((reference.conj() @ rho @ reference).real)
