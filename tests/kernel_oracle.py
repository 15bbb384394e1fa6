"""Array kernels in the expression form they were written from.

``transport._rk4_steps``, ``Schwarzschild.connection_matrix``,
``lorentz._exp_traceless`` and the bridge draw of
``decoherence.sample_bundle`` form their results in place, one buffer per
result instead of one new array per arithmetic step.  These are the
out-of-place forms, kept verbatim as the oracle of ``test_kernel_oracle.py``:
the two must agree bit for bit.  The exponential oracle takes the kernel's
output and scratch arguments, as the bundle transport passes its kept
arrays, and copies its out-of-place result into the output.

The chord chain's ordered product is kept here in its component-major
form: ``product_2x2``, ``pairwise`` and ``ordered_2x2`` hold the factors as
(n, 4, *lead) components and write each of the four entries from whole
component arrays.  The factor-last chain (``lorentz._ordered_2x2`` on
(4, *lead, n) components, two broadcast multiplies and one add per round)
must give the same bits; ``entry_product`` runs the component-major
product on the factor-last kernel's arguments, so a whole propagator can be
formed through it.

The vector route's segment stack is kept here in its node-major form:
``world_stack`` writes W with each node's 4x4 matrix contiguous and forms
each block's RK4 stages from every other node of it (``w[:, a:b:2]``).
``transport._world_stack`` writes W entry-major and stages each block's
nodes in contiguous stacks; the two must give the same bits.

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
from eprgeo.geodesic import _DENSE_P
from eprgeo.lorentz import _SERIES_BOUND, ID2, ordered_product, sl2_inverse
from eprgeo.spin import PAULI_PAIRS, SINGLET, fidelity
from eprgeo.transport import _hermite_midpoints, _rk4_steps, _sample_step

_EYE4 = np.eye(4)


def rk4_steps(w0: np.ndarray, wm: np.ndarray, w1: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step matrices of dP/dtau = W P over steps of length h,
    given W at each step's start, middle and end (batched)."""
    k2 = wm + (0.5 * h) * (wm @ w0)
    k3 = wm + (0.5 * h) * (wm @ k2)
    k4 = w1 + h * (w1 @ k3)
    return _EYE4 + (h / 6.0) * (w0 + 2.0 * k2 + 2.0 * k3 + k4)


def world_stack(segs, block: int) -> np.ndarray:
    """transport._world_stack with node-major W, in new arrays, its RK4
    steps formed ``block`` at a time from every other node of W."""
    st = segs[0].spacetime
    ns = [seg.n_samples - 1 for seg in segs]
    hs = [_sample_step(seg) for seg in segs]
    width = max(ns) + 1 + any(n % 2 for n in ns)
    xu = np.empty((2, 4, len(segs), width))
    x, u = xu.transpose(0, 2, 3, 1)
    for i, (seg, n, h) in enumerate(zip(segs, ns, hs)):
        for k, y in enumerate((seg.events, seg.tangents)):
            xu[k, :, i, : n + 1], xu[k, :, i, n + 1 :] = y.T, y[-1, :, None]
        if n % 2:
            y = np.concatenate([seg.events[-2:], seg.tangents[-2:]], axis=1).tolist()
            acc = np.array([st.geodesic_rhs(y[0])[4:], st.geodesic_rhs(y[1])[4:]])
            x[i, -1] = _hermite_midpoints(seg.events[-2:], seg.tangents[-2:], h)
            u[i, -1] = _hermite_midpoints(seg.tangents[-2:], acc, h)
    w = st.connection_matrix(x, u, out=np.empty(x.shape + (4,)))
    # step j runs from node 2j to node 2j + 2 and is staged at node 2j + 1
    m, step = max(ns) // 2, 2.0 * np.reshape(hs, (-1, 1, 1, 1))
    blocks = []
    for lo in range(0, m, block):
        a, b = 2 * lo, 2 * min(lo + block, m)
        steps = _rk4_steps(w[:, a:b:2], w[:, a + 1 : b : 2], w[:, a + 2 : b + 1 : 2], step)
        for leg, n in zip(steps, ns):
            leg[max(n // 2 - lo, 0) :] = _EYE4
        blocks.append(ordered_product(steps))
    p = ordered_product(np.reshape(blocks, (-1, len(segs), 4, 4)).swapaxes(0, 1))
    for i, (n, h) in enumerate(zip(ns, hs)):
        if n % 2:
            p[i] = _rk4_steps(w[i, n - 1], w[i, -1], w[i, n], h) @ p[i]
    return p


def dense_fill(ys: np.ndarray, grid: np.ndarray, passed: list, states: list) -> None:
    """geodesic._dense_fill as one pass over all passed nodes, each node's
    step coefficients gathered into an (nodes, 4, 8) array."""
    # the n-th passed node is grid[node[n]], inside recorded step step[n]
    t0, h0, first, ends = map(np.array, zip(*passed))
    recorded = np.fromiter(states, float, len(states)).reshape(-1, 7, 8)
    counts = ends - first
    step = np.repeat(np.arange(counts.size), counts)
    node = np.arange(step.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    theta = (grid[node] - t0[step]) / h0[step]
    # per step, c_j = h sum_i _DENSE_P[i, j] k_i; y(t + theta h) = y + sum_j theta^j c_j
    stages = recorded[:, 1:].transpose(1, 0, 2)
    coeffs = h0[:, None, None] * np.einsum("ij,isc->sjc", _DENSE_P, stages)
    powers = theta[:, None] ** np.arange(1, 5)
    ys[node] = recorded[step, 0] + np.einsum("nj,njc->nc", powers, coeffs[step])


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
    """exp([[c3, b], [d, -c3]]) as components (p, q, r, s) on a new axis 0.

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
    res = np.empty((4,) + z.shape, dtype=complex)
    p, q, r, s = res
    t = sh * c3
    np.add(ch, t, out=p)
    np.multiply(sh, b, out=q)
    np.multiply(sh, d, out=r)
    np.subtract(ch, t, out=s)
    return into(out, res)


def product_2x2(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """a @ b for 2x2 factors held as components (p, q, r, s) on axis 1.

    Eight complex multiplies per product, on whole component arrays, each
    entry a_i0 b_0j + a_i1 b_1j written straight into the result; the four
    a_i1 b_1j products share one scratch array.  The result goes into
    ``out`` and the scratch into ``tmp`` (a's shape without axis 1), each a
    new array when not given; neither may share memory with a or b.
    """
    p, q, r, s = a.swapaxes(0, 1)
    pb, qb, rb, sb = b.swapaxes(0, 1)
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, b))
    if tmp is None:
        tmp = np.empty(a.shape[:1] + a.shape[2:], dtype=out.dtype)
    terms = ((p, pb, q, rb), (p, qb, q, sb), (r, pb, s, rb), (r, qb, s, sb))
    for o, (x0, y0, x1, y1) in zip(out.swapaxes(0, 1), terms):
        np.multiply(x0, y0, out=o)
        np.multiply(x1, y1, out=tmp)
        o += tmp
    return out


def pairwise(f: np.ndarray, pair, spare: np.ndarray | None = None) -> np.ndarray:
    """f[-1] ... f[0] for n >= 1 factors on axis 0, by pairwise tree reduction.

    Adjacent factors are combined in order, so the result is the exact
    ordered product in O(log n) rounds; pair(a, b) multiplies a @ b.  Given
    ``spare``, room for ceil(n/2) factors, each round writes its products
    with pair(a, b, out) alternately into spare and into f, which the round
    before has consumed, and f is overwritten; the result is then a view of
    one of the two.
    """
    n, bufs = len(f), (spare, f)
    while n > 1:
        m = n // 2
        if spare is None:
            paired = pair(f[1:n:2], f[0 : n - 1 : 2])
            if n % 2:
                paired = np.concatenate([paired, f[n - 1 :]])
        else:
            paired = bufs[0][: n - m]
            bufs = bufs[::-1]
            pair(f[1:n:2], f[0 : n - 1 : 2], paired[:m])
            if n % 2:
                paired[m] = f[n - 1]
        f, n = paired, len(paired)
    return f[0]


def ordered_2x2(f: np.ndarray, spare: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Ordered product (*lead, 2, 2) of 2x2 factors held as (n, 4, *lead) components.

    Given ``spare`` (ceil(n/2), 4, *lead) and ``tmp`` (n // 2, *lead), the
    rounds write into them and into f (see pairwise) and allocate no
    array of their own, and the result is copied out of them.
    """
    lead = f.shape[2:]
    if len(f) == 0:
        return np.broadcast_to(ID2, lead + (2, 2)).copy()
    if spare is None:
        top = pairwise(f, product_2x2)
    else:
        top = pairwise(f, lambda a, b, out: product_2x2(a, b, out=out, tmp=tmp[: len(out)]), spare).copy()
    return np.moveaxis(top, 0, -1).reshape(lead + (2, 2))


def component_major(f: np.ndarray) -> np.ndarray:
    """Factor-last components (4, *lead, n) in the (n, 4, *lead) layout of ordered_2x2, copied."""
    return np.moveaxis(f, -1, 0).copy()


def entry_product(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """lorentz._product_2x2 on its (2, 2, *lead, m) entry arrays, formed by
    product_2x2 in the component-major layout and copied into ``out`` if
    given; ``tmp``, the kernel's scratch, is not used."""
    a, b = (component_major(v.reshape((4,) + v.shape[2:])) for v in (a, b))
    res = np.moveaxis(product_2x2(a, b), 0, -1)
    return into(out, res.reshape((2, 2) + res.shape[1:]))


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
