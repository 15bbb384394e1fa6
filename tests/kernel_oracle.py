"""The orbit path's array kernels in their out-of-place expression form.

``transport._rk4_steps``, ``Schwarzschild.connection_matrix``,
``lorentz._exp_traceless`` and ``lorentz._product_2x2`` form their results
in place, one buffer per result instead of one new array per arithmetic
step.  These are the expression forms they were written from, kept verbatim
as the oracle of ``test_kernel_oracle.py``: the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from eprgeo.lorentz import _SERIES_BOUND

_EYE4 = np.eye(4)


def rk4_steps(w0: np.ndarray, wm: np.ndarray, w1: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step matrices of dP/dtau = W P over steps of length h,
    given W at each step's start, middle and end (batched)."""
    k2 = wm + (0.5 * h) * (wm @ w0)
    k3 = wm + (0.5 * h) * (wm @ k2)
    k4 = w1 + h * (w1 @ k3)
    return _EYE4 + (h / 6.0) * (w0 + 2.0 * k2 + 2.0 * k3 + k4)


def schwarzschild_connection_matrix(mass: float, x, u) -> np.ndarray:
    """W^l_s = -Gamma^l_ms u^m of Schwarzschild with mass M, batched."""
    x = np.asarray(x, dtype=float)
    ut, ur, uth, uph = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
    M = mass
    r = x[..., 1]
    th = x[..., 2]
    f = 1.0 - 2.0 * M / r
    sin = np.sin(th)
    cos = np.cos(th)
    # each entry is minus the Gamma above times the one or two u^m it meets
    g001 = M / (r * r * f)
    r_2m = r - 2.0 * M
    inv_r = 1.0 / r
    cot = cos / sin
    W = np.zeros(np.broadcast_shapes(x.shape, np.shape(u))[:-1] + (4, 4))
    W[..., 0, 0] = -g001 * ur
    W[..., 0, 1] = -g001 * ut
    W[..., 1, 0] = -(M * f / (r * r)) * ut
    W[..., 1, 1] = g001 * ur
    W[..., 1, 2] = r_2m * uth
    W[..., 1, 3] = r_2m * sin * sin * uph
    W[..., 2, 1] = -inv_r * uth
    W[..., 2, 2] = -inv_r * ur
    W[..., 2, 3] = sin * cos * uph
    W[..., 3, 1] = -inv_r * uph
    W[..., 3, 2] = -cot * uph
    W[..., 3, 3] = -(inv_r * ur + cot * uth)
    return W


def exp_traceless(c3: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """exp([[c3, b], [d, -c3]]) as components (p, q, r, s) on a new axis 1."""
    z = c3 * c3 + b * d
    ch = 1.0 + z * (0.5 + z * (1.0 / 24.0 + z / 720.0))
    sh = 1.0 + z * (1.0 / 6.0 + z * (1.0 / 120.0 + z / 5040.0))
    big = np.abs(z) >= _SERIES_BOUND
    if big.any():
        s = np.sqrt(z[big])
        ch[big] = np.cosh(s)
        sh[big] = np.sinh(s) / s
    out = np.empty(z.shape[:1] + (4,) + z.shape[1:], dtype=complex)
    p, q, r, s = out.swapaxes(0, 1)
    t = sh * c3
    np.add(ch, t, out=p)
    np.multiply(sh, b, out=q)
    np.multiply(sh, d, out=r)
    np.subtract(ch, t, out=s)
    return out


def product_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2x2 factors held as components (p, q, r, s) on axis 1."""
    p, q, r, s = a.swapaxes(0, 1)
    pb, qb, rb, sb = b.swapaxes(0, 1)
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    terms = ((p, pb, q, rb), (p, qb, q, sb), (r, pb, s, rb), (r, qb, s, sb))
    for o, (x0, y0, x1, y1) in zip(out.swapaxes(0, 1), terms):
        np.multiply(x0, y0, out=o)
        o += x1 * y1
    return out
