"""Orthonormal frame fields: the closed-form diagonal frame against the
general Gram-Schmidt loop, and the chord-contracted spin connection against
the lift of its 4x4 so(1,3) assembly from the metric and Christoffel symbols
and against finite differences of the frame, its trace, its domain, and its
independence of metric and Christoffel evaluations."""

import numpy as np
import pytest

from conftest import gauge_frame, gauge_lift
from eprgeo import make_spacetime
from eprgeo.errors import DomainError, UsageError
from eprgeo.frames import (
    BOOST_RAPIDITY,
    check_gauge,
    frame_field,
    gauge_boost,
    gram_schmidt_frame,
    inverse_frame,
    orthonormality_defect,
    spin_connection,
)
from eprgeo.lorentz import ETA, lift_so13, sl2_inverse
from eprgeo.spacetime import HORIZON_GUARD

POINTS = {
    "schwarzschild": np.array(
        [[0.0, 6.0, 1.2, 0.3], [1.0, 14.0, 2.2, -2.0], [0.0, 40.0, 0.9, 1.0]]
    ),
    "weak_field": np.array(
        [[0.0, 1.0, -2.0, 0.5], [2.0, -0.3, 0.4, 1.0], [0.0, 5.0, 5.0, -5.0]]
    ),
}


def _spacetime(kind):
    params = {"M": 1.0} if kind == "schwarzschild" else {"epsilon": 0.05}
    return make_spacetime(kind, params)


def _dense(g):
    """The 4x4 matrix of a metric given by its diagonal, batched."""
    return g[..., None] * np.eye(4)


@pytest.mark.parametrize("kind", ["schwarzschild", "weak_field"])
@pytest.mark.parametrize("gauge", ["static", "boosted-static"])
def test_frame_is_orthonormal(kind, gauge):
    st = _spacetime(kind)
    xs = POINTS[kind]
    n = gauge_frame(st, xs, gauge)
    g = st.metric(xs)
    gram = np.einsum("kma,kmn,knb->kab", n, _dense(g), n)
    assert np.max(np.abs(gram - ETA)) < 1e-12
    assert orthonormality_defect(g, n) < 1e-12


def test_static_frame_upper_triangular(schwarzschild):
    x = np.array([0.0, 8.0, 1.0, 0.5])
    n = frame_field(schwarzschild, x)
    assert np.allclose(n, np.triu(n))
    # timelike leg along the static Killing direction
    assert n[1, 0] == 0.0 and n[2, 0] == 0.0 and n[3, 0] == 0.0


def test_boosted_gauge_is_constant_boost_of_static(schwarzschild):
    """gauge_boost is a Lorentz boost of rapidity BOOST_RAPIDITY along frame
    axis 3, so the boosted frame's legs 0 and 3 mix the static ones."""
    x = np.array([0.0, 8.0, 1.0, 0.5])
    ns = frame_field(schwarzschild, x)
    nb = gauge_frame(schwarzschild, x, "boosted-static")
    ch, sh = np.cosh(BOOST_RAPIDITY), np.sinh(BOOST_RAPIDITY)
    assert np.allclose(nb[:, 0], ch * ns[:, 0] + sh * ns[:, 3], atol=1e-14)
    assert np.allclose(nb[:, 3], sh * ns[:, 0] + ch * ns[:, 3], atol=1e-14)
    assert np.array_equal(nb[:, 1:3], ns[:, 1:3])
    b = gauge_boost()
    assert b[0, 0] == pytest.approx(np.cosh(BOOST_RAPIDITY))
    assert np.allclose(b.T @ ETA @ b, ETA, atol=1e-14)


def test_inverse_frame_exact(schwarzschild):
    x = np.array([0.0, 7.0, 2.0, -1.0])
    n = frame_field(schwarzschild, x)
    g = schwarzschild.metric(x)
    assert np.max(np.abs(inverse_frame(n, g) @ n - np.eye(4))) < 1e-13


def _gram_schmidt_loop(g):
    """Reference: signature Gram-Schmidt of the coordinate basis, any metric."""
    eta = np.diag(ETA)
    batch = g.shape[:-2]
    n = np.zeros(batch + (4, 4))
    for a in range(4):
        v = np.zeros(batch + (4,))
        v[..., a] = 1.0
        for b in range(a):
            leg = n[..., :, b]
            coeff = eta[b] * np.einsum("...m,...mn,...n->...", leg, g, v)
            v = v - coeff[..., None] * leg
        nrm2 = eta[a] * np.einsum("...m,...mn,...n->...", v, g, v)
        assert np.all(nrm2 > 0.0)
        n[..., :, a] = v / np.sqrt(nrm2)[..., None]
    return n


def _oracle_batch(kind):
    rng = np.random.default_rng(23)
    xs = rng.uniform(-30.0, 30.0, size=(200, 4))
    if kind == "minkowski":
        return make_spacetime("minkowski"), xs
    if kind == "weak_field":
        return _spacetime("weak_field"), xs
    st = _spacetime("schwarzschild")
    r_min = 2.0 * (1.0 + HORIZON_GUARD)
    xs[:, 1] = np.concatenate(
        [r_min * (1.0 + np.geomspace(1e-12, 1e-3, 100)), rng.uniform(r_min, 50.0, 100)]
    )
    xs[:, 2] = rng.uniform(0.01, np.pi - 0.01, 200)
    return st, xs


@pytest.mark.parametrize("kind", ["minkowski", "schwarzschild", "weak_field"])
def test_diagonal_frame_equals_gram_schmidt_loop(kind):
    st, xs = _oracle_batch(kind)
    g = st.metric(xs)
    assert np.array_equal(gram_schmidt_frame(g), _gram_schmidt_loop(_dense(g)))


@pytest.mark.parametrize("kind", ["minkowski", "schwarzschild", "weak_field"])
@pytest.mark.parametrize("gauge", ["static", "boosted-static"])
def test_inverse_frame_is_bitwise_the_dense_form(kind, gauge):
    """eta N^T g with g scaling columns is, bit for bit and in C order, the
    product with the dense 4x4 metric, and so is its action on a vector."""
    st, xs = _oracle_batch(kind)
    v = np.random.default_rng(5).normal(size=4)
    for x in xs[::20]:
        n = gauge_frame(st, x, gauge)
        g = st.metric(x)
        inv = inverse_frame(n, g)
        dense = ETA @ n.T @ np.diag(g)
        assert inv.flags.c_contiguous
        assert np.array_equal(inv, dense)
        assert np.array_equal(inv @ v, dense @ v)


def test_gram_schmidt_rejects_wrong_signature():
    # no timelike direction at all
    with pytest.raises(DomainError):
        gram_schmidt_frame(np.ones(4))
    # two timelike directions
    with pytest.raises(DomainError):
        gram_schmidt_frame(np.array([-1.0, -1.0, 1.0, 1.0]))


def _connection_4x4(st, xs, dx):
    """Oracle: the so(1,3) matrix -M_l dx^l assembled entry by entry.

    eta M_l is antisymmetric with the strict lower triangle of
    K_l = N^T g Gamma_l N, contracted with the chord first.
    """
    eta = np.diag(ETA)
    gd = st.metric(xs)
    nd = 1.0 / np.sqrt(eta * gd)
    gam_dx = np.einsum("...nlp,...l->...np", st.christoffel(xs), dx)
    lo, up = np.tril_indices(4, -1)
    lower = (nd * gd)[..., lo] * gam_dx[..., lo, up] * nd[..., up]
    em = np.zeros(gam_dx.shape)
    em[..., lo, up] = lower
    em[..., up, lo] = -lower
    return -eta[:, None] * em


@pytest.mark.parametrize("kind", ["minkowski", "schwarzschild", "weak_field"])
def test_spin_connection_is_the_lift_of_the_4x4_assembly(kind):
    """Within 1e-14 of the batch's largest entry, including the points
    crowded against the horizon guard; Minkowski's are exact zeros."""
    st, xs = _oracle_batch(kind)
    dx = np.random.default_rng(4).normal(size=xs.shape)
    ref = lift_so13(_connection_4x4(st, xs, dx))
    assert np.max(np.abs(spin_connection(st, xs, dx) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "bad",
    [[0.0, 1.5, 1.2, 0.3], [0.0, 2.0 - 1e-12, 1.2, 0.3], [0.0, 8.0, 0.0, 0.3]],
    ids=["inside-horizon", "just-inside-horizon", "on-axis"],
)
def test_spin_connection_needs_the_static_frame(bad):
    """Where the static frame does not exist (f = 1 - 2M/r <= 0, or
    g_phiphi = 0 on the axis) the closed form raises like frame_field does."""
    st = _spacetime("schwarzschild")
    x = np.array([[0.0, 8.0, 1.2, 0.3], bad])
    with pytest.raises(DomainError, match="signature"):
        frame_field(st, x)
    with pytest.raises(DomainError, match="signature"):
        spin_connection(st, x, np.ones_like(x))


@pytest.mark.parametrize("kind", ["schwarzschild", "weak_field"])
def test_spin_connection_is_traceless(kind):
    """An exact sl(2,C) generator: each factor of the transport has det one."""
    st = _spacetime(kind)
    xs = POINTS[kind]
    dx = np.random.default_rng(8).normal(size=xs.shape)
    m = spin_connection(st, xs, dx)
    assert np.all(np.trace(m, axis1=-2, axis2=-1) == 0.0)
    assert np.max(np.abs(m)) > 0.0


@pytest.mark.parametrize("kind", ["schwarzschild", "weak_field"])
@pytest.mark.parametrize("gauge", ["static", "boosted-static"])
def test_spin_connection_matches_transport_derivative(kind, gauge):
    """M_l = N^{-1} (d_l N + Gamma_l N), with d_l N from central differences.

    In the boosted-static gauge the static-frame generator is conjugated by
    the constant lift gauge_lift(gauge).
    """
    st = _spacetime(kind)
    x = POINTS[kind][1]
    k = gauge_lift(gauge)
    # the unit chord e_l reads off -M_l
    m = sl2_inverse(k) @ spin_connection(st, np.broadcast_to(x, (4, 4)), np.eye(4)) @ k
    n = gauge_frame(st, x, gauge)
    ninv = inverse_frame(n, st.metric(x))
    gamma = st.christoffel(x)
    h = 1e-6
    for lam in range(4):
        xp, xm = x.copy(), x.copy()
        xp[lam] += h
        xm[lam] -= h
        dn = (gauge_frame(st, xp, gauge) - gauge_frame(st, xm, gauge)) / (2 * h)
        ref = ninv @ (dn + gamma[:, lam, :] @ n)
        assert np.max(np.abs(m[lam] - lift_so13(-ref))) < 1e-5


def test_spin_connection_evaluates_neither_metric_nor_christoffel(monkeypatch):
    calls = {"metric": 0, "christoffel": 0}
    for kind in ("schwarzschild", "weak_field"):
        st = _spacetime(kind)
        for name in calls:
            original = getattr(st, name)

            def counted(x, _name=name, _original=original):
                calls[_name] += 1
                return _original(x)

            monkeypatch.setattr(st, name, counted)
        xs = POINTS[kind]
        m = spin_connection(st, xs, np.ones_like(xs))
        assert m.shape == (3, 2, 2)
    assert calls == {"metric": 0, "christoffel": 0}


def test_unknown_gauge_rejected():
    with pytest.raises(UsageError):
        check_gauge("comoving")
