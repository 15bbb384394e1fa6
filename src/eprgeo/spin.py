"""Two-qubit states of the decay pair, measurements, and Bell combinations.

The two-particle basis is |00>, |01>, |10>, |11>.  Each tensor factor's spin
components refer to the spatial triad of its detector's static tetrad; the
pipeline builds both spins in those frames, so states and measurement axes
need no frame tags.  Transports enter only as the SU(2) rest-frame rotations
handed to ``pair_state``; boosts are absorbed into the rest-frame convention
for spin, so measurement axes are unit 3-vectors in ordinary 3-space.

Everything here is small dense linear algebra; the geometry enters only
through the rotations handed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .lorentz import ID2, PAULI

_SQRT2 = np.sqrt(2.0)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQRT2

# sigma_j x sigma_k for j, k in 0..2, shape (3, 3, 4, 4)
PAULI_PAIRS = np.array([[np.kron(pj, pk) for pk in PAULI] for pj in PAULI])

# measurement block saturating |CHSH| for the untouched singlet: value -2 sqrt(2)
CANONICAL_CHSH_DIRECTIONS = (
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([1.0, 0.0, 1.0]) / _SQRT2,
    np.array([1.0, 0.0, -1.0]) / _SQRT2,
)


@dataclass(frozen=True)
class TwoQubitState:
    """Pure (4-vector) or mixed (4x4 density matrix) two-qubit state."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if self.kind == "pure":
            if data.shape != (4,):
                raise UsageError("pure state data must be a 4-vector")
            if not abs(np.linalg.norm(data) - 1.0) <= 1.0e-10:
                raise UsageError("pure state must be normalized")
        elif self.kind == "mixed":
            if data.shape != (4, 4):
                raise UsageError("mixed state data must be a 4x4 matrix")
            if not np.max(np.abs(data - data.conj().T)) <= 1.0e-10:
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


def direction_vector(a, side: str) -> np.ndarray:
    """Measurement axis a for particle side ("1" or "2") as a unit 3-vector.

    Raises UsageError unless a is a 3-vector of norm 1 within 1e-10.
    """
    a = np.asarray(a, dtype=float)
    n = np.linalg.norm(a)
    if a.shape != (3,) or not abs(n - 1.0) <= 1.0e-10:
        raise UsageError(f"measurement direction for particle {side} must be a unit 3-vector")
    return a / n


def correlation(state: TwoQubitState, a, b) -> float:
    """E(a, b) = <(a.sigma) x (b.sigma)>, each axis in its detector's frame."""
    return density_correlation(state.density, a, b)


def density_correlation(rho: np.ndarray, a, b) -> float:
    """correlation for a density matrix rho taken as valid."""
    va = direction_vector(a, "1")
    vb = direction_vector(b, "2")
    return float(va @ _pauli_expectations(rho) @ vb)


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """K[j, k] = <sigma_j x sigma_k>, so E(a, b) = a^T K b."""
    return _pauli_expectations(state.density)


def _pauli_expectations(rho: np.ndarray) -> np.ndarray:
    return np.trace(rho @ PAULI_PAIRS, axis1=-2, axis2=-1).real


def chsh(state: TwoQubitState, a, ap, b, bp) -> float:
    """E(a,b) - E(a,b') + E(a',b) + E(a',b') for the given settings."""
    return chsh_value(
        correlation_matrix(state),
        direction_vector(a, "1"),
        direction_vector(ap, "1"),
        direction_vector(b, "2"),
        direction_vector(bp, "2"),
    )


def chsh_value(k: np.ndarray, a, ap, b, bp) -> float:
    """chsh from a correlation matrix k and axes that are already unit vectors."""
    return float(a @ k @ b - a @ k @ bp + ap @ k @ b + ap @ k @ bp)


# ---------------------------------------------------------------------------
# raw-matrix helpers shared with the decoherence channel


def pair_state(w1: np.ndarray | None = None, w2: np.ndarray | None = None) -> np.ndarray:
    """(W1 x W2)|singlet> as a bare 4-vector.  None means identity.

    Closed form (W1 e0 x W2 e1 - W1 e1 x W2 e0) / sqrt 2, from the columns
    of W1 and W2; batched over leading axes, (..., 2, 2) to (..., 4).
    """
    w1 = ID2 if w1 is None else np.asarray(w1, dtype=complex)
    w2 = ID2 if w2 is None else np.asarray(w2, dtype=complex)
    v = w1[..., :, None, 0] * w2[..., None, :, 1] - w1[..., :, None, 1] * w2[..., None, :, 0]
    return v.reshape(v.shape[:-2] + (4,)) / _SQRT2


def fidelity(reference: np.ndarray, rho: np.ndarray) -> float:
    """<psi|rho|psi> for a pure reference vector and a density matrix."""
    reference = np.asarray(reference, dtype=complex)
    return float((reference.conj() @ rho @ reference).real)
