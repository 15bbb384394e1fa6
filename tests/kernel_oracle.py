"""Array kernels in the expression form they were written from.

``transport._rk4_steps``, ``Schwarzschild.connection_matrix``,
``lorentz._exp_traceless``, ``lorentz._product_2x2`` and the bridge draw of
``decoherence.sample_bundle`` form their results in place, one buffer per
result instead of one new array per arithmetic step.  These are the
out-of-place forms, kept verbatim as the oracle of ``test_kernel_oracle.py``:
the two must agree bit for bit.  The exponential and product oracles take
the kernels' output and scratch arguments, as the bundle transport passes
its kept arrays, and copy their out-of-place result into the output.

The bundle channel's closing and block fidelities are kept here in their
earlier form too: ``su2_polar`` and ``spin_map`` with ``@`` on 2x2 stacks,
``pair_state`` through ``np.kron``, and the standard error of
``fidelity_with_error`` from one ``_combine`` and ``fidelity`` per block.
The broadcast forms that replaced them sum in another order, so these agree
with them to round-off, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from eprgeo.decoherence import _ID4, FIDELITY_BLOCKS, RESAMPLE_ATTEMPTS, _decimate
from eprgeo.errors import ConfigurationError, DomainError
from eprgeo.frames import frame_field
from eprgeo.lorentz import _SERIES_BOUND, ID2, sl2_inverse
from eprgeo.spin import PAULI_PAIRS, SINGLET, fidelity

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


def exp_traceless(c3: np.ndarray, b: np.ndarray, d: np.ndarray, out=None, work=None) -> np.ndarray:
    """exp([[c3, b], [d, -c3]]) as components (p, q, r, s) on a new axis 1.

    Formed out of place, then copied into ``out`` if given; ``work``, the
    kernel's scratch, is not used.
    """
    z = c3 * c3 + b * d
    ch = 1.0 + z * (0.5 + z * (1.0 / 24.0 + z / 720.0))
    sh = 1.0 + z * (1.0 / 6.0 + z * (1.0 / 120.0 + z / 5040.0))
    big = np.abs(z) >= _SERIES_BOUND
    if big.any():
        s = np.sqrt(z[big])
        ch[big] = np.cosh(s)
        sh[big] = np.sinh(s) / s
    res = np.empty(z.shape[:1] + (4,) + z.shape[1:], dtype=complex)
    p, q, r, s = res.swapaxes(0, 1)
    t = sh * c3
    np.add(ch, t, out=p)
    np.multiply(sh, b, out=q)
    np.multiply(sh, d, out=r)
    np.subtract(ch, t, out=s)
    return into(out, res)


def product_2x2(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """a @ b for 2x2 factors held as components (p, q, r, s) on axis 1.

    Formed out of place, then copied into ``out`` if given; ``tmp``, the
    kernel's scratch, is not used.
    """
    p, q, r, s = a.swapaxes(0, 1)
    pb, qb, rb, sb = b.swapaxes(0, 1)
    res = np.empty(a.shape, dtype=np.result_type(a, b))
    terms = ((p, pb, q, rb), (p, qb, q, sb), (r, pb, s, rb), (r, qb, s, sb))
    for o, (x0, y0, x1, y1) in zip(res.swapaxes(0, 1), terms):
        np.multiply(x0, y0, out=o)
        o += x1 * y1
    return into(out, res)


def into(out, res: np.ndarray) -> np.ndarray:
    """res, copied into out when the caller passed an output array."""
    if out is None:
        return res
    out[...] = res
    return out


def bundle_paths(seg, sigma: float, n_paths: int, seed: int) -> tuple[np.ndarray, int]:
    """(paths, redraw rounds) of sample_bundle(seg, sigma, n_paths, seed),
    sigma > 0, each draw a new array per arithmetic step."""
    st = seg.spacetime
    idx = _decimate(seg.n_samples)
    taus = seg.tau[idx] - seg.tau[0]
    knots = seg.events[idx]
    length = taus[-1]
    interior = slice(1, -1)
    scale = np.diagonal(frame_field(st, knots), axis1=-2, axis2=-1)[interior, 1:]
    t_int = taus[interior]
    envelope = np.sin(np.pi * t_int / length)
    bridge_var = t_int * (length - t_int) / length
    dtau = np.diff(taus)
    rng = np.random.default_rng(seed)

    def draw(count: int) -> np.ndarray:
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
            raise DomainError("bundle paths still leave the chart")
        bad = np.flatnonzero(~ok)
        paths[bad] = draw(len(bad))
        ok[bad] = np.all(st.in_chart(paths[bad]), axis=1)
        attempts += 1
    return paths, attempts - 1


def su2_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lorentz.su2_polar with ``@`` for m m^dagger and adj(h)/det h times m."""
    m = np.asarray(m, dtype=complex)
    p = m @ np.conj(np.swapaxes(m, -1, -2))
    detp = (p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]).real
    s = np.sqrt(detp)
    t = np.sqrt(p[..., 0, 0].real + p[..., 1, 1].real + 2.0 * s)
    h = (p + s[..., None, None] * ID2) / t[..., None, None]
    deth = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    w = (sl2_inverse(h) / deth[..., None, None]) @ m
    detw = w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    w = w / np.sqrt(detw)[..., None, None]
    return w, h


def spin_map(pair, leg: int, u: np.ndarray) -> np.ndarray:
    """PairResult.spin_map as su2_polar(post @ u @ pre)[0]."""
    pre, post = pair.conjugation_factors[leg - 1]
    return su2_polar(post @ u @ pre)[0]


def pair_state(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(W1 x W2)|singlet> for one pair of 2x2 matrices, through np.kron."""
    return np.kron(w1, w2) @ SINGLET


def combine(a1: np.ndarray, a2: np.ndarray, mode: str) -> np.ndarray:
    """decoherence._combine with the kron pair_state."""
    if mode == "coherent":
        v = pair_state(a1, a2)
        nrm = float(np.linalg.norm(v))
        if nrm < 1.0e-12:
            raise ConfigurationError("coherent bundle average destroyed the state entirely")
        v = v / nrm
        return np.outer(v, v.conj())
    return 0.25 * (_ID4 - np.tensordot(a1 @ a2.T, PAULI_PAIRS, 2))


def fidelity_with_error(avg) -> tuple[float, float]:
    """decoherence.fidelity_with_error with one combine and fidelity per block,
    and the fidelity of the whole average through the same combine."""
    t1, t2 = avg.terms
    fid = fidelity(avg.reference_state, combine(t1.mean(axis=0), t2.mean(axis=0), avg.mode))
    if avg.zero_width:
        return fid, 0.0
    n = min(len(t) for t in avg.terms)
    k = min(FIDELITY_BLOCKS, n)
    starts = np.arange(k) * n // k
    counts = np.diff(starts, append=n)[:, None, None]
    m1, m2 = (np.add.reduceat(t[:n], starts) / counts for t in avg.terms)
    fs = [fidelity(avg.reference_state, combine(a1, a2, avg.mode)) for a1, a2 in zip(m1, m2)]
    se = float(np.std(fs, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return fid, se
