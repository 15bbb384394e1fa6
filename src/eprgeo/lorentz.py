"""SL(2,C), SU(2), and SO(1,3) bookkeeping shared by the transport code.

Conventions, fixed once and used everywhere:

* signature (-,+,+,+), eta = diag(-1, 1, 1, 1);
* spin-1/2 generators (written out only in sl2_components): rotations
  J_k = -(i/2) sigma_k, boosts K_k = -(1/2) sigma_k;
* the vector action of A in SL(2,C) is X -> A X A^dagger on
  X = V^0 I - V.sigma, and lift_so13 is defined so that exp(lift_so13(m))
  acts on 4-vectors as exp(m) for every m in so(1,3);
* rotations follow the right-handed active convention
  W sigma_k W^dagger = sum_j R[j, k] sigma_j.

All 2x2 helpers accept leading batch axes.

Lifts go one way only: SL(2,C) elements come from generators or from
closed-form boosts (pure_boost_sl2).  A traceless generator [[c3, b], [d, -c3]]
is exponentiated in closed form on its three components; expm2 reads them off
a (..., 2, 2) matrix, and ordered_exp_product takes them as arrays and keeps
the exponentials as components through the ordered product, which is how the
spinor route builds its chord factors.  The exponential's two Horner series
are formed in place, one array each, and a component product reuses one
scratch array, with every operand order of the out-of-place expressions, so
the results are the same bits.  Both kernels, and the tree of products,
also write into output and scratch arrays a caller passes: the bundle
transport passes arrays it keeps from call to call, so that a chunk of
paths does not free and fault in its memory again (see transport).
Nothing lifts a 4x4 Lorentz matrix back up; the spinor route builds its
frame lifts from the boosts that define the frames.

The closing of a transport stack, su2_polar's m m^dagger and
adj(h)/det(h) m and PairResult.spin_map's post u pre, multiplies (..., 2, 2)
stacks with the broadcast product _mul_2x2,
x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]: four
whole-stack multiplies and one add, where ``@`` calls BLAS once per matrix
(a 201-row spin_map closing took 93 us against 268 us with ``@`` on a
2-CPU host).  The ordered products keep the component tree of
_product_2x2: each of its entries is written into one preallocated result
from whole component arrays, which on long chord stacks beats the broadcast
form's temporaries (50 chords by 200 rows: 561 us against 810 us on the
same host).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError

ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])
ETA = np.diag(ETA_DIAG)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
ID2 = np.eye(2, dtype=complex)


# below this |z| the series through z^3 is exact to within z^4/8! < 2.5e-17
_SERIES_BOUND = 1.0e-3


def _series(z: np.ndarray, c1: float, c2: float, d3: float, out: np.ndarray | None) -> np.ndarray:
    """1 + z (c1 + z (c2 + z / d3)) by Horner, in ``out`` or one new array.

    Each ufunc takes its operands in the order of that expression, so every
    element is the IEEE result of the out-of-place form.
    """
    h = np.divide(z, d3, out=out)
    np.add(c2, h, out=h)
    np.multiply(z, h, out=h)
    np.add(c1, h, out=h)
    np.multiply(z, h, out=h)
    np.add(1.0, h, out=h)
    return h


def _exp_traceless(
    c3: np.ndarray, b: np.ndarray, d: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """exp([[c3, b], [d, -c3]]) as components (p, q, r, s) on a new axis 1.

    With z = c3^2 + b d = -det, the generator squares to z I, so
    exp = [[ch + sh c3, sh b], [sh d, ch - sh c3]] with ch = cosh sqrt z and
    sh = sinh(sqrt z)/sqrt z, both even in sqrt z.  Below _SERIES_BOUND they
    are Horner series, with no complex sqrt, sinh or cosh; only the elements
    at or above it take the closed form (Moler & Van Loan, SIAM Rev. 45
    (2003) 3).  Inputs share one shape of at least one axis.  Negating all
    three inputs gives the exact adjugate, bitwise.

    The result goes into ``out`` (n, 4, ...) and z, b d, ch and sh into
    the four rows of ``work`` (4, n, ...) if given, else each into a new
    array, made in that order; b d's row takes sh c3 once ch and sh are
    formed.  The scratch must not share memory with ``out``: a ufunc whose
    operands interleave in one buffer is evaluated through a copy, which
    can round differently.
    """
    w = (None,) * 4 if work is None else work
    z = np.multiply(c3, c3, out=w[0])
    t = np.multiply(b, d, out=w[1])
    z += t
    ch = _series(z, 0.5, 1.0 / 24.0, 720.0, w[2])
    sh = _series(z, 1.0 / 6.0, 1.0 / 120.0, 5040.0, w[3])
    big = np.abs(z) >= _SERIES_BOUND
    if big.any():
        s = np.sqrt(z[big])
        ch[big] = np.cosh(s)
        sh[big] = np.sinh(s) / s
    if out is None:
        out = np.empty(z.shape[:1] + (4,) + z.shape[1:], dtype=complex)
    p, q, r, s = out.swapaxes(0, 1)
    np.multiply(sh, c3, out=t)
    np.add(ch, t, out=p)
    np.multiply(sh, b, out=q)
    np.multiply(sh, d, out=r)
    np.subtract(ch, t, out=s)
    return out


def expm2(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of traceless 2x2 matrices, closed form.

    The (..., 2, 2) form of the component exponential: it reads c3, b and d
    off a[0, 0], a[0, 1] and a[1, 0], and a[1, 1] is taken to be -c3.
    Batched over leading axes.
    """
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(-1, 2, 2)
    out = _exp_traceless(flat[:, 0, 0], flat[:, 0, 1], flat[:, 1, 0])
    return out.reshape(a.shape)


def sl2_components(k10, k20, k21, k30, k31, k32, out: np.ndarray | None = None) -> np.ndarray:
    """(c3, b, d) of the lift [[c3, b], [d, -c3]] of m = -eta A, on a new axis 0.

    A is the antisymmetric matrix with strict lower triangle (k10, k20, k21,
    k30, k31, k32), so m has rotation part theta = (-k32, k31, -k21) and
    boost part b_k = -k_k0, and c3 = (k30 + i k21)/2,
    b = ((k10 - k31) + i (k32 - k20))/2, d = ((k10 + k31) + i (k32 + k20))/2.
    Batched; the real and imaginary parts are written directly, into
    ``out`` if given, else into a new array.
    """
    k10, k20, k21, k30, k31, k32 = ks = [0.5 * k for k in (k10, k20, k21, k30, k31, k32)]
    g = np.empty((3,) + np.broadcast_shapes(*map(np.shape, ks)), dtype=complex) if out is None else out
    re, im = g.real, g.imag
    re[0], im[0] = k30, k21
    re[1], im[1] = k10 - k31, k32 - k20
    re[2], im[2] = k10 + k31, k32 + k20
    return g


def sl2_matrix(g: np.ndarray) -> np.ndarray:
    """The traceless (..., 2, 2) matrix [[c3, b], [d, -c3]] of components on axis 0."""
    c3, b, d = g
    return np.stack([c3, b, d, -c3], axis=-1).reshape(c3.shape + (2, 2))


def lift_so13(m: np.ndarray) -> np.ndarray:
    """Spin-1/2 representation of an so(1,3) matrix (eta m antisymmetric).

    The rotation part theta_k = -1/2 eps_{kij} m[i, j] maps to theta . J and
    the boost part b_k = m[0, k] to b . K; both are read off the strict lower
    triangle of m = -eta A.  Batched over leading axes.
    """
    m = np.asarray(m, dtype=float)
    lower = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
    return sl2_matrix(sl2_components(*(-m[..., i, j] for i, j in lower)))


def rotation_matrix_from_su2(w: np.ndarray) -> np.ndarray:
    """3x3 rotation R with W sigma_k W^dagger = sum_j R[j, k] sigma_j.

    R[j, k] = Re (1/2) tr(sigma_j W sigma_k W^dagger), written out on the
    components W = [[a, b], [c, d]] in one pass.  Batched.
    """
    w = np.asarray(w, dtype=complex)
    a, b, c, d = (w[..., i, j] for i in (0, 1) for j in (0, 1))
    ad, bc = a * d.conj(), b * c.conj()
    ab, cd = a * b.conj(), c * d.conj()
    ac, bd = a * c.conj(), b * d.conj()
    R = np.empty(w.shape[:-2] + (3, 3))
    plus, minus, top, side = ad + bc, ad - bc, ac - bd, ab - cd
    R[..., 0, 0], R[..., 1, 0], R[..., 2, 0] = plus.real, -plus.imag, side.real
    R[..., 0, 1], R[..., 1, 1], R[..., 2, 1] = minus.imag, minus.real, side.imag
    R[..., 0, 2], R[..., 1, 2] = top.real, -top.imag
    n2 = w.real**2 + w.imag**2
    R[..., 2, 2] = 0.5 * (n2[..., 0, 0] - n2[..., 0, 1] - n2[..., 1, 0] + n2[..., 1, 1])
    return R


def _unit_timelike(u_hat: np.ndarray) -> np.ndarray:
    u = np.asarray(u_hat, dtype=float)
    nrm = -(u @ ETA @ u)
    if not nrm > 0.0:
        raise UsageError("expected a timelike frame 4-velocity")
    u = u / np.sqrt(nrm)
    if not u[0] > 0.0:
        raise UsageError("expected a future-directed frame 4-velocity")
    return u


def _inverse_unit(u_hat: np.ndarray) -> np.ndarray:
    """The unit velocity whose pure boost inverts that of u_hat: the spatial
    part of the normalized u_hat flipped, then normalized again."""
    u = _unit_timelike(u_hat)
    return _unit_timelike(np.array([u[0], -u[1], -u[2], -u[3]]))


# The closed forms below take a velocity already through _unit_timelike and
# work on its components as Python floats.  Each entry is the IEEE result of
# the array expression in its docstring, signed zeros included: a ``0.0 +``
# or ``0.0 -`` stands where that expression adds to or subtracts from an
# exact zero.


def _boost(u: np.ndarray) -> np.ndarray:
    """pure_boost of a unit u: B[1:, 1:] = eye(3) + outer(u[1:], u[1:]) / (1 + u[0])."""
    g, x, y, z = u.tolist()
    d = 1.0 + g
    xy, xz, yz = 0.0 + x * y / d, 0.0 + x * z / d, 0.0 + y * z / d
    return np.array(
        [
            [g, x, y, z],
            [x, 1.0 + x * x / d, xy, xz],
            [y, xy, 1.0 + y * y / d, yz],
            [z, xz, yz, 1.0 + z * z / d],
        ]
    )


def _boost_sl2(u: np.ndarray) -> np.ndarray:
    """pure_boost_sl2 of a unit u: c I - (u[1:] . sigma) / (2c), c = sqrt((1 + u[0])/2).

    NumPy divides the complex array by the real 2c as a multiplication by 1/(2c),
    so s = 1/(2c) is formed first.
    """
    g, x, y, z = u.tolist()
    c = math.sqrt((1.0 + g) / 2.0)
    s = 1.0 / (2.0 * c)
    x, y, z = x * s, y * s, z * s
    return np.array(
        [[complex(c - z, 0.0), complex(0.0 - x, 0.0 + y)], [complex(0.0 - x, 0.0 - y), complex(c + z, 0.0)]]
    )


def pure_boost(u_hat: np.ndarray) -> np.ndarray:
    """The symmetric Lorentz boost mapping (1,0,0,0) to the unit timelike u_hat."""
    return _boost(_unit_timelike(u_hat))


def pure_boost_inverse(u_hat: np.ndarray) -> np.ndarray:
    return _boost(_inverse_unit(u_hat))


def pure_boost_sl2(u_hat: np.ndarray) -> np.ndarray:
    """SL(2,C) lift of pure_boost(u_hat): Hermitian positive, determinant one."""
    return _boost_sl2(_unit_timelike(u_hat))


def _polar_rotation(L: np.ndarray) -> np.ndarray:
    """The rotation factor R of the polar split L = B R of a proper
    orthochronous Lorentz matrix, B the symmetric pure boost carrying
    (1,0,0,0) to L[:, 0]; R fixes the time axis, so its spatial block is the
    rotation part.  B itself is never built."""
    L = np.asarray(L, dtype=float)
    if not (L[0, 0] > 0.0 and np.isfinite(L).all()):
        raise UsageError("non-orthochronous or non-finite Lorentz map")
    return pure_boost_inverse(L[:, 0]) @ L


def _mul_2x2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for (..., 2, 2) stacks, broadcast: column k of x times row k of y, summed.

    Four whole-stack multiplies and one add, where ``@`` calls BLAS once per
    matrix.  The sum runs in another order than BLAS, so results may differ
    from ``@`` in their last bits.
    """
    return x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]


def su2_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split 2x2 invertible matrices as m = H W with H Hermitian positive, W unitary.

    For SL(2,C) input the factors are a boost and an SU(2) rotation.  Batched.
    """
    m = np.asarray(m, dtype=complex)
    p = _mul_2x2(m, np.conj(np.swapaxes(m, -1, -2)))
    # closed-form square root of a 2x2 Hermitian positive-definite matrix
    detp = (p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]).real
    s = np.sqrt(detp)
    t = np.sqrt(p[..., 0, 0].real + p[..., 1, 1].real + 2.0 * s)
    h = (p + s[..., None, None] * ID2) / t[..., None, None]
    deth = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    w = _mul_2x2(sl2_inverse(h) / deth[..., None, None], m)
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


def _product_2x2(
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


def _pairwise(f: np.ndarray, pair, spare: np.ndarray | None = None) -> np.ndarray:
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


def _ordered_2x2(f: np.ndarray, spare: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Ordered product (*lead, 2, 2) of 2x2 factors held as (n, 4, *lead) components.

    Given ``spare`` (ceil(n/2), 4, *lead) and ``tmp`` (n // 2, *lead), the
    rounds write into them and into f (see _pairwise) and allocate no
    array of their own, and the result is copied out of them.
    """
    lead = f.shape[2:]
    if len(f) == 0:
        return np.broadcast_to(ID2, lead + (2, 2)).copy()
    if spare is None:
        top = _pairwise(f, _product_2x2)
    else:
        top = _pairwise(f, lambda a, b, out: _product_2x2(a, b, out=out, tmp=tmp[: len(out)]), spare).copy()
    return np.moveaxis(top, 0, -1).reshape(lead + (2, 2))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] along axis -3, batched.

    Uses pairwise tree reduction.  2x2 factors are multiplied on their four
    component arrays (p, q, r, s), larger ones by batched matmul.  An empty
    factor axis gives the identity.
    """
    m = np.asarray(mats)
    lead, n, k = m.shape[:-3], m.shape[-3], m.shape[-1]
    if k == 2:
        # the factor axis goes first: (n, 4, *lead) components
        return _ordered_2x2(np.moveaxis(m.reshape(lead + (n, 4)), (-2, -1), (0, 1)))
    if n == 0:
        return np.broadcast_to(np.eye(k, dtype=m.dtype), lead + (k, k)).copy()
    return _pairwise(np.moveaxis(m, -3, 0), np.matmul)


def ordered_exp_product(c3: np.ndarray, b: np.ndarray, d: np.ndarray, buffer=None) -> np.ndarray:
    """Ordered product of exp([[c3, b], [d, -c3]]) over axis 0, last factor leftmost.

    The generators come as three component arrays of shape (n, *lead); the
    exponentials stay components through the same tree as ordered_product,
    so no (..., 2, 2) generator or exponential array is made.  Returns a new
    (*lead, 2, 2) array, the identity when n = 0.

    ``buffer(name, shape)``, if given, supplies the complex arrays the
    exponentials and the product rounds are formed in: "exp" (n, 4, *lead),
    "exp_work" (4, n, *lead), "spare" (ceil(n/2), 4, *lead) and "tmp"
    (n // 2, *lead), so a caller that keeps them from call to call makes no
    array of the chord shape here.  Without it each round's products are
    made when needed and freed once consumed.
    """
    if buffer is None:
        return _ordered_2x2(_exp_traceless(c3, b, d))
    n, lead = len(c3), c3.shape[1:]
    f = _exp_traceless(c3, b, d, out=buffer("exp", (n, 4) + lead), work=buffer("exp_work", (4, n) + lead))
    return _ordered_2x2(f, buffer("spare", (n - n // 2, 4) + lead), buffer("tmp", (n // 2,) + lead))
