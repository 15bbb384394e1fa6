"""SL(2,C), SU(2), and SO(1,3) bookkeeping shared by the transport code.

Conventions, fixed once and used everywhere:

* signature (-,+,+,+), eta = diag(-1, 1, 1, 1);
* spin-1/2 generators: rotations J_k = -(i/2) sigma_k, boosts K_k = -(1/2) sigma_k;
* the vector action of A in SL(2,C) is defined through X = V^0 I - V.sigma,
  X -> A X A^dagger, which makes ``vector_action(exp(lift_so13(m))) = exp(m)``
  for every m in so(1,3) (lift and action form one consistent pair);
* rotations follow the right-handed active convention
  W sigma_k W^dagger = sum_j R[j, k] sigma_j.

All 2x2 helpers accept leading batch axes.

Lifts go one way only: SL(2,C) elements come from generators (expm2 of
lift_so13) or from closed-form boosts (pure_boost_sl2), and vector_action
maps them down to SO(1,3).  Nothing lifts a 4x4 Lorentz matrix back up; the
spinor route builds its frame lifts from the boosts that define the frames.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
ID2 = np.eye(2, dtype=complex)


def expm2(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of traceless 2x2 matrices, closed form.

    For traceless a, a^2 = -det(a) I, so with s = sqrt(-det a):
    exp(a) = cosh(s) I + sinhc(s) a.  Batched over leading axes.
    """
    a = np.asarray(a, dtype=complex)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    s = np.sqrt(-det + 0.0j)
    small = np.abs(s) < 1.0e-6
    # sinh(s)/s, with its series for tiny s to dodge 0/0
    s_safe = np.where(small, 1.0, s)
    sinhc = np.where(small, 1.0 + det / 6.0, np.sinh(s_safe) / s_safe)
    cosh = np.cosh(s)
    return cosh[..., None, None] * ID2 + sinhc[..., None, None] * a


def lift_so13(m: np.ndarray) -> np.ndarray:
    """Spin-1/2 representation of an so(1,3) matrix (eta m antisymmetric).

    The rotation part theta_k = -1/2 eps_{kij} m[i, j] maps to theta . J and
    the boost part b_k = m[0, k] to b . K.  Batched over leading axes.
    """
    m = np.asarray(m, dtype=float)
    th1 = -0.5 * (m[..., 2, 3] - m[..., 3, 2])
    th2 = -0.5 * (m[..., 3, 1] - m[..., 1, 3])
    th3 = -0.5 * (m[..., 1, 2] - m[..., 2, 1])
    out = np.zeros(m.shape[:-2] + (2, 2), dtype=complex)
    for th, b, sig in zip((th1, th2, th3), (m[..., 0, 1], m[..., 0, 2], m[..., 0, 3]), PAULI):
        coeff = np.asarray(-0.5j * th - 0.5 * b)
        out = out + coeff[..., None, None] * sig
    return out


def vector_action(a: np.ndarray) -> np.ndarray:
    """The 4x4 Lorentz matrix induced by A in SL(2,C) (single matrix)."""
    a = np.asarray(a, dtype=complex)
    basis = (ID2, -SIGMA_X, -SIGMA_Y, -SIGMA_Z)
    L = np.empty((4, 4))
    for b, Xb in enumerate(basis):
        y = a @ Xb @ a.conj().T
        L[0, b] = 0.5 * np.trace(y).real
        for j in range(3):
            L[j + 1, b] = -0.5 * np.trace(PAULI[j] @ y).real
    return L


def rotation_matrix_from_su2(w: np.ndarray) -> np.ndarray:
    """3x3 rotation R with W sigma_k W^dagger = sum_j R[j, k] sigma_j."""
    w = np.asarray(w, dtype=complex)
    R = np.empty(w.shape[:-2] + (3, 3))
    wd = np.conj(np.swapaxes(w, -1, -2))
    for k in range(3):
        y = w @ PAULI[k] @ wd
        for j in range(3):
            R[..., j, k] = 0.5 * np.einsum("ab,...ba->...", PAULI[j], y).real
    return R


def _unit_timelike(u_hat: np.ndarray) -> np.ndarray:
    u = np.asarray(u_hat, dtype=float)
    nrm = -(u @ ETA @ u)
    if nrm <= 0.0:
        raise UsageError("expected a timelike frame 4-velocity")
    u = u / np.sqrt(nrm)
    if u[0] <= 0.0:
        raise UsageError("expected a future-directed frame 4-velocity")
    return u


def pure_boost(u_hat: np.ndarray) -> np.ndarray:
    """The symmetric Lorentz boost mapping (1,0,0,0) to the unit timelike u_hat."""
    u = _unit_timelike(u_hat)
    gamma = u[0]
    B = np.empty((4, 4))
    B[0, 0] = gamma
    B[0, 1:] = B[1:, 0] = u[1:]
    B[1:, 1:] = np.eye(3) + np.outer(u[1:], u[1:]) / (1.0 + gamma)
    return B


def pure_boost_inverse(u_hat: np.ndarray) -> np.ndarray:
    u = _unit_timelike(u_hat)
    return pure_boost(np.array([u[0], -u[1], -u[2], -u[3]]))


def pure_boost_sl2(u_hat: np.ndarray) -> np.ndarray:
    """SL(2,C) lift of pure_boost(u_hat): Hermitian positive, determinant one."""
    u = _unit_timelike(u_hat)
    c = np.sqrt((1.0 + u[0]) / 2.0)
    usig = u[1] * SIGMA_X + u[2] * SIGMA_Y + u[3] * SIGMA_Z
    return c * ID2 - usig / (2.0 * c)


def pure_boost_sl2_inverse(u_hat: np.ndarray) -> np.ndarray:
    u = _unit_timelike(u_hat)
    return pure_boost_sl2(np.array([u[0], -u[1], -u[2], -u[3]]))


def lorentz_polar(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a proper orthochronous Lorentz matrix as L = B R (boost x rotation).

    B is the symmetric pure boost carrying (1,0,0,0) to L[:, 0]; the residual
    R fixes the time axis, so its spatial block is the rotation part.
    """
    L = np.asarray(L, dtype=float)
    if L[0, 0] <= 0.0:
        raise UsageError("non-orthochronous Lorentz map")
    u = L[:, 0]
    B = pure_boost(u)
    R = pure_boost_inverse(u) @ L
    return B, R


def su2_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split 2x2 invertible matrices as m = H W with H Hermitian positive, W unitary.

    For SL(2,C) input the factors are a boost and an SU(2) rotation.  Batched.
    """
    m = np.asarray(m, dtype=complex)
    p = m @ np.conj(np.swapaxes(m, -1, -2))
    # closed-form square root of a 2x2 Hermitian positive-definite matrix
    detp = (p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]).real
    s = np.sqrt(detp)
    t = np.sqrt(p[..., 0, 0].real + p[..., 1, 1].real + 2.0 * s)
    h = (p + s[..., None, None] * ID2) / t[..., None, None]
    deth = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    w = (sl2_inverse(h) / deth[..., None, None]) @ m
    # clean residual determinant drift so w stays exactly special unitary
    detw = w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    w = w / np.sqrt(detw)[..., None, None]
    return w, h


def sl2_inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse for det-one 2x2 matrices: the adjugate."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out


def rotation_axis_angle(R: np.ndarray) -> tuple[np.ndarray, float]:
    """Axis (unit 3-vector) and angle in [0, pi] of a 3x3 rotation."""
    R = np.asarray(R, dtype=float)
    angle = float(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)))
    ax = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    n = np.linalg.norm(ax)
    if n < 1.0e-12:
        if angle < 1.0:
            return np.array([0.0, 0.0, 1.0]), angle
        # angle ~ pi: axis from the dominant diagonal of (R + I)/2
        m = (R + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(m)))
        ax = m[:, k]
        return ax / np.linalg.norm(ax), angle
    return ax / n, angle


def su2_rotation_angle(u: np.ndarray) -> float:
    """Rotation angle in [0, pi] read off a (conjugated) SU(2)-like trace."""
    tr = np.trace(np.asarray(u))
    return float(2.0 * np.arccos(np.clip(abs(tr) / 2.0, 0.0, 1.0)))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] along axis -3, batched.

    Uses pairwise tree reduction: adjacent factors are combined in order, so
    the result is the exact ordered product in O(log n) batched matmuls.
    """
    m = np.asarray(mats)
    while m.shape[-3] > 1:
        n = m.shape[-3]
        even = m[..., 0 : n - (n % 2) : 2, :, :]
        odd = m[..., 1 : n : 2, :, :]
        paired = odd @ even
        if n % 2:
            paired = np.concatenate([paired, m[..., n - 1 : n, :, :]], axis=-3)
        m = paired
    return m[..., 0, :, :]
