"""The in-place array kernels against their out-of-place expression forms.

``kernel_oracle`` keeps the expression form of each kernel verbatim.  The
kernels must reproduce it bit for bit (``tobytes()``) on seeded inputs, and
every input is read-only, so a kernel that wrote into a caller's array
would raise here.
"""

import numpy as np
import pytest

import kernel_oracle as oracle
from eprgeo import integrate_geodesic, integrate_orbit, lorentz, make_spacetime, transport
from eprgeo.lorentz import _SERIES_BOUND, _exp_traceless, _pairwise, _product_2x2
from eprgeo.precession import circular_orbit_tangent
from eprgeo.transport import _rk4_steps


def frozen(*arrays):
    """The arrays, marked read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def complex_normal(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.fixture(scope="module")
def schwarzschild():
    return make_spacetime("schwarzschild", {"M": 1.0})


# ---------------------------------------------------------------------------
# RK4 stages


def test_batched_rk4_steps_match_the_oracle():
    rng = np.random.default_rng(11)
    w0, wm, w1 = frozen(*(0.3 * rng.standard_normal((257, 4, 4)) for _ in range(3)))
    for h in (1.0e-3, 0.05, 0.7):
        assert same_bits(_rk4_steps(w0, wm, w1, h), oracle.rk4_steps(w0, wm, w1, h))


def test_strided_rk4_steps_match_the_oracle(schwarzschild):
    """Stages as world_propagator passes them: every other row of one W array,
    over a full block and a part block, and the lone (4, 4) step."""
    rng = np.random.default_rng(12)
    n = 2 * 1500 + 1  # intervals: 1,500 paired steps and a lone last one
    x = np.column_stack([rng.uniform(0, 50, n + 2), rng.uniform(4, 30, n + 2),
                         rng.uniform(0.2, 2.9, n + 2), rng.uniform(0, 6, n + 2)])
    w = frozen(schwarzschild.connection_matrix(x, rng.standard_normal((n + 2, 4))))
    h = 0.02
    for a, b in ((0, 2048), (2048, 3000), (0, 2)):
        args = (w[a:b:2], w[a + 1 : b : 2], w[a + 2 : b + 1 : 2], 2.0 * h)
        assert same_bits(_rk4_steps(*args), oracle.rk4_steps(*args))
    lone = (w[n - 1], w[n + 1], w[n], h)
    assert lone[0].shape == (4, 4)
    assert same_bits(_rk4_steps(*lone), oracle.rk4_steps(*lone))


# ---------------------------------------------------------------------------
# the closed-form W


@pytest.mark.parametrize(
    "x_shape, u_shape",
    [((300, 4), (300, 4)), ((4,), (4,)), ((40, 1, 4), (1, 7, 4)), ((4,), (25, 4)), ((25, 4), (4,))],
    ids=["rows", "point", "outer", "x-point", "u-point"],
)
def test_connection_matrix_matches_the_oracle(schwarzschild, x_shape, u_shape):
    rng = np.random.default_rng(13)
    x = rng.uniform(size=x_shape) * [30.0, 40.0, 2.9, 6.0] + [0.0, 2.5, 0.12, 0.0]
    u = rng.standard_normal(u_shape)
    x, u = frozen(x, u)
    assert same_bits(schwarzschild.connection_matrix(x, u), oracle.schwarzschild_connection_matrix(1.0, x, u))


def test_connection_matrix_matches_the_oracle_on_an_orbit(schwarzschild):
    seg = integrate_orbit(schwarzschild, 10.0)
    x, u = frozen(seg.events.copy(), seg.tangents.copy())
    assert same_bits(schwarzschild.connection_matrix(x, u), oracle.schwarzschild_connection_matrix(1.0, x, u))


# ---------------------------------------------------------------------------
# chord exponentials and their products


def generators(rng, shape):
    """c3, b, d whose z = c3^2 + b d spans both sides of _SERIES_BOUND, with
    some exact zeros."""
    scale = 10.0 ** rng.uniform(-4.0, 0.5, shape)
    c3, b, d = (complex_normal(rng, shape, scale) for _ in range(3))
    c3.flat[::17] = b.flat[::17] = d.flat[::17] = 0.0
    z = np.abs(c3 * c3 + b * d)
    assert (z < _SERIES_BOUND).sum() > 10 and (z >= _SERIES_BOUND).sum() > 10
    return c3, b, d


@pytest.mark.parametrize("shape", [(400,), (60, 9)], ids=["chords", "chords-by-paths"])
def test_exp_traceless_matches_the_oracle(shape):
    c3, b, d = frozen(*generators(np.random.default_rng(14), shape))
    e = _exp_traceless(c3, b, d)
    assert same_bits(e, oracle.exp_traceless(c3, b, d))
    neg = frozen(-c3, -b, -d)
    e_neg = _exp_traceless(*neg)
    assert same_bits(e_neg, oracle.exp_traceless(*neg))
    # the reversed chord's factor is the exact adjugate [[s, -q], [-r, p]]
    # (equal values: a zero entry may change its sign)
    p, q, r, s = e.swapaxes(0, 1)
    assert np.array_equal(e_neg, np.stack([s, -q, -r, p], axis=1))


@pytest.mark.parametrize("rows", [1, 5, 250])
def test_product_2x2_matches_the_oracle(rows):
    rng = np.random.default_rng(15)
    a, b = frozen(complex_normal(rng, (33, 4, rows)), complex_normal(rng, (33, 4, rows)))
    assert same_bits(_product_2x2(a, b), oracle.product_2x2(a, b))
    # and through the pairwise tree of an ordered product
    f = frozen(_exp_traceless(*generators(rng, (77, rows))))
    assert same_bits(_pairwise(f, _product_2x2), _pairwise(f, oracle.product_2x2))


# ---------------------------------------------------------------------------
# whole propagators with every kernel swapped for its oracle


def oracle_kernels(monkeypatch, st):
    monkeypatch.setattr(transport, "_rk4_steps", oracle.rk4_steps)
    monkeypatch.setattr(lorentz, "_exp_traceless", oracle.exp_traceless)
    monkeypatch.setattr(lorentz, "_product_2x2", oracle.product_2x2)
    monkeypatch.setattr(st, "connection_matrix", lambda x, u: oracle.schwarzschild_connection_matrix(st.mass, x, u))


@pytest.mark.parametrize("n_samples", [2, 8, 8313], ids=["lone-step", "odd-intervals", "orbit"])
def test_propagators_match_the_oracle_kernels(schwarzschild, monkeypatch, n_samples):
    if n_samples == 8313:
        seg = integrate_orbit(schwarzschild, 10.0)
    else:
        seg = integrate_geodesic(schwarzschild, *circular_orbit_tangent(schwarzschild, 10.0), 3.0, n_samples=n_samples)
    assert seg.n_samples == n_samples
    world, spinor = transport.world_propagator(seg), transport.spinor_propagator(seg)
    seg.cache.clear()
    oracle_kernels(monkeypatch, schwarzschild)
    assert same_bits(transport.world_propagator(seg), world)
    assert same_bits(transport.spinor_propagator(seg), spinor)
