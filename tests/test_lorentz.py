"""Group machinery: 2x2 exponentials, the spin-half lift, polar splits.

The oracle for exponentials is plain scaling-and-squaring on the Taylor
series, written independently of the closed forms under test.
"""

import numpy as np
import pytest

from eprgeo.errors import UsageError
from eprgeo.lorentz import (
    ETA,
    ID2,
    PAULI,
    expm2,
    lift_so13,
    lorentz_polar,
    ordered_product,
    pure_boost,
    pure_boost_inverse,
    pure_boost_sl2,
    pure_boost_sl2_inverse,
    rotation_axis_angle,
    rotation_matrix_from_su2,
    sl2_inverse,
    su2_polar,
    su2_rotation_angle,
    vector_action,
)


def expm_series(m, order=30, squarings=10):
    a = np.asarray(m, dtype=complex) / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_so13(rng, scale=1.0):
    """eta-antisymmetric generator: eta @ (antisymmetric)."""
    a = rng.normal(scale=scale, size=(4, 4))
    return ETA @ (a - a.T)


def rodrigues(axis, angle):
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)


def su2(axis, angle):
    """exp(-(i/2) angle n.sigma): the SU(2) rotation by angle about axis n."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return expm2(-0.5j * angle * np.einsum("k,kij->ij", n, PAULI))


rng = np.random.default_rng(7)


class TestExpm2:
    def test_matches_series(self):
        for scale in (1e-8, 1e-3, 0.5, 3.0):
            for _ in range(5):
                m = rng.normal(scale=scale, size=(2, 2)) + 1j * rng.normal(
                    scale=scale, size=(2, 2)
                )
                m -= 0.5 * np.trace(m) * ID2  # traceless branch is the contract
                assert np.allclose(expm2(m), expm_series(m), atol=1e-12)

    def test_batched(self):
        ms = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        tr = np.einsum("kii->k", ms)
        ms -= 0.5 * tr[:, None, None] * ID2
        out = expm2(ms)
        assert out.shape == (6, 2, 2)
        for k in range(6):
            assert np.allclose(out[k], expm_series(ms[k]), atol=1e-12)

    def test_identity_at_zero(self):
        assert np.allclose(expm2(np.zeros((2, 2), dtype=complex)), ID2)


class TestLift:
    def test_exponentiated_lift_acts_like_vector_exponential(self):
        for scale in (0.1, 1.0):
            for _ in range(8):
                m = random_so13(rng, scale=scale)
                big = expm_series(m).real
                small = expm2(lift_so13(m))
                assert np.allclose(vector_action(small), big, atol=1e-10)

    def test_pure_rotation_lift(self):
        m = np.zeros((4, 4))
        theta = 0.7
        m[1, 2] = -theta
        m[2, 1] = theta
        u = expm2(lift_so13(m))
        r = rotation_matrix_from_su2(u)
        assert np.allclose(r, rodrigues([0, 0, 1], theta), atol=1e-12)

    def test_batched_shapes(self):
        ms = np.stack([random_so13(rng) for _ in range(5)])
        assert lift_so13(ms).shape == (5, 2, 2)


class TestSU2Rotation:
    def test_round_trip(self):
        for _ in range(10):
            axis = rng.normal(size=3)
            angle = rng.uniform(0.01, np.pi - 0.01)
            r = rodrigues(axis, angle)
            w = su2(axis, angle)
            assert np.allclose(rotation_matrix_from_su2(w), r, atol=1e-12)
            assert abs(np.linalg.det(w) - 1.0) < 1e-12

    def test_near_pi_rotation(self):
        r = rodrigues([1.0, -2.0, 0.5], np.pi - 1e-9)
        w = su2([1.0, -2.0, 0.5], np.pi - 1e-9)
        assert np.allclose(rotation_matrix_from_su2(w), r, atol=1e-7)

    def test_conjugation_convention(self):
        # W sigma_k W^dag = sum_j R[j,k] sigma_j
        w = su2([0.3, 1.0, -0.4], 1.1)
        r = rotation_matrix_from_su2(w)
        for k in range(3):
            lhs = w @ PAULI[k] @ w.conj().T
            rhs = sum(r[j, k] * PAULI[j] for j in range(3))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_angle_extraction(self):
        for angle in (0.0, 0.3, 2.0, np.pi):
            w = su2([0, 1, 0], angle)
            assert su2_rotation_angle(w) == pytest.approx(angle, abs=1e-7)

    def test_axis_angle_round_trip(self):
        axis = np.array([2.0, -1.0, 0.5])
        r = rodrigues(axis, 1.3)
        got_axis, got_angle = rotation_axis_angle(r)
        assert got_angle == pytest.approx(1.3, abs=1e-12)
        assert np.allclose(got_axis, axis / np.linalg.norm(axis), atol=1e-12)


class TestBoosts:
    def test_pure_boost_properties(self):
        for _ in range(6):
            w = rng.normal(scale=0.6, size=3)
            u = np.concatenate(([np.sqrt(1 + w @ w)], w))
            b = pure_boost(u)
            assert np.allclose(b @ ETA @ b.T, ETA, atol=1e-12)
            assert np.allclose(b[:, 0], u, atol=1e-12)
            assert np.allclose(b, b.T, atol=1e-12)
            assert np.allclose(pure_boost_inverse(u) @ b, np.eye(4), atol=1e-12)

    def test_sl2_boost_acts_like_vector_boost(self):
        w = np.array([0.3, -0.2, 0.5])
        u = np.concatenate(([np.sqrt(1 + w @ w)], w))
        assert np.allclose(vector_action(pure_boost_sl2(u)), pure_boost(u), atol=1e-12)
        assert np.allclose(
            pure_boost_sl2_inverse(u) @ pure_boost_sl2(u), ID2, atol=1e-12
        )


class TestPolar:
    def test_lorentz_polar_recomposes(self):
        w = np.array([0.4, 0.1, -0.3])
        u = np.concatenate(([np.sqrt(1 + w @ w)], w))
        r4 = np.eye(4)
        r4[1:, 1:] = rodrigues([1.0, 2.0, 0.5], 0.9)
        lam = pure_boost(u) @ r4
        b, r = lorentz_polar(lam)
        assert np.allclose(b @ r, lam, atol=1e-12)
        assert np.allclose(b, b.T, atol=1e-12)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r[0, 1:], 0.0, atol=1e-12)

    def test_lorentz_polar_rejects_time_reversal(self):
        lam = np.diag([-1.0, 1.0, 1.0, -1.0])
        with pytest.raises(UsageError):
            lorentz_polar(lam)

    def test_su2_polar(self):
        # left polar split: m = H W with H Hermitian positive, W special unitary
        w0 = su2([0.1, 0.9, -0.2], 0.8)
        h = np.array([[1.2, 0.1 + 0.05j], [0.1 - 0.05j, 0.9]])
        m = h @ w0
        w, hh = su2_polar(m)
        assert np.allclose(hh @ w, m, atol=1e-10)
        assert np.allclose(w @ w.conj().T, ID2, atol=1e-10)
        assert abs(np.linalg.det(w) - 1.0) < 1e-10
        assert np.allclose(hh, hh.conj().T, atol=1e-10)
        # unitary factor of a scaled rotation is the rotation itself
        assert np.allclose(w, w0, atol=1e-10)

    def test_su2_polar_batched(self):
        ms = np.stack(
            [
                su2(rng.normal(size=3), 0.5) * (1 + 0.1 * k)
                for k in range(4)
            ]
        )
        w, h = su2_polar(ms)
        assert w.shape == (4, 2, 2)
        for k in range(4):
            assert np.allclose(h[k] @ w[k], ms[k], atol=1e-10)


class TestSl2Lorentz:
    def test_sl2_inverse(self):
        u = np.array([np.sqrt(1.29), 0.2, -0.4, 0.3])
        a = pure_boost_sl2(u) @ su2([0.5, -1.0, 0.2], 0.9)
        assert np.allclose(sl2_inverse(a) @ a, ID2, atol=1e-12)


def test_ordered_product_matches_loop():
    mats = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
    expected = np.eye(2, dtype=complex)
    for k in range(9):
        expected = mats[k] @ expected
    assert np.allclose(ordered_product(mats), expected, atol=1e-12)


def test_ordered_product_batched():
    mats = rng.normal(size=(3, 5, 4, 4))
    out = ordered_product(mats)
    assert out.shape == (3, 4, 4)
    for b in range(3):
        expected = np.eye(4)
        for k in range(5):
            expected = mats[b, k] @ expected
        assert np.allclose(out[b], expected, atol=1e-12)
