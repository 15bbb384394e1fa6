"""Group machinery: 2x2 exponentials, the spin-half lift, polar splits.

The oracle for exponentials is plain scaling-and-squaring on the Taylor
series, written independently of the closed forms under test.
"""

import cmath

import numpy as np
import pytest

from conftest import vector_action
from eprgeo.errors import UsageError
from eprgeo.lorentz import (
    ETA,
    ID2,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _boost,
    _boost_sl2,
    _inverse_unit,
    _polar_rotation,
    _unit_timelike,
    expm2,
    lift_so13,
    ordered_exp_product,
    ordered_product,
    pure_boost,
    pure_boost_inverse,
    pure_boost_sl2,
    rotation_axis_angle,
    rotation_matrix_from_su2,
    sl2_inverse,
    su2_polar,
    su2_rotation_angle,
)


def inverse_boost_sl2(u):
    """SL(2,C) lift of pure_boost_inverse(u), as the pair closing forms it."""
    return _boost_sl2(_inverse_unit(u))


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

    @pytest.mark.parametrize("x", [0.0316, 0.0317])
    def test_sinhc_on_both_sides_of_the_series_switch(self, x):
        """exp([[0, x], [x, 0]]) = cosh(x) I + sinh(x) sigma_x, whether
        cosh and sinh(s)/s come from their series (|s^2| < 1e-3, x = 0.0316)
        or from the closed form (x = 0.0317)."""
        out = expm2(x * SIGMA_X)
        assert abs(out[0, 1] - np.sinh(x)) <= 1e-15 * np.sinh(x)
        assert abs(out[0, 0] - np.cosh(x)) <= 1e-15

    @pytest.mark.parametrize("size", [0.999e-3, 1.001e-3, 0.3, 7.0])
    @pytest.mark.parametrize("phase", [0.0, 0.5, 1.0, 1.7, 2.9, -1.2])
    def test_cosh_and_sinhc_match_cmath(self, size, phase):
        """exp([[0, 1], [z, 0]]) = [[ch, sh], [sh z, ch]] with ch = cosh s and
        sh = sinh(s)/s, s = sqrt z, within 1e-15 relative for complex z on
        both sides of the series bound |z| = 1e-3."""
        z = size * cmath.exp(1j * phase)
        s = cmath.sqrt(z)
        ch, sh = cmath.cosh(s), cmath.sinh(s) / s
        out = expm2(np.array([[0.0, 1.0], [z, 0.0]]))
        assert abs(out[0, 0] - ch) <= 1e-15 * abs(ch)
        assert abs(out[1, 1] - ch) <= 1e-15 * abs(ch)
        assert abs(out[0, 1] - sh) <= 1e-15 * abs(sh)
        assert abs(out[1, 0] - sh * z) <= 1e-15 * abs(sh * z)


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


def loop_rotation_matrix(w):
    """R[j, k] = Re (1/2) tr(sigma_j W sigma_k W^dagger), one product at a time."""
    R = np.empty(w.shape[:-2] + (3, 3))
    wd = np.conj(np.swapaxes(w, -1, -2))
    for k in range(3):
        y = w @ PAULI[k] @ wd
        for j in range(3):
            R[..., j, k] = 0.5 * np.einsum("ab,...ba->...", PAULI[j], y).real
    return R


class TestSU2Rotation:
    def test_round_trip(self):
        for _ in range(10):
            axis = rng.normal(size=3)
            angle = rng.uniform(0.01, np.pi - 0.01)
            r = rodrigues(axis, angle)
            w = su2(axis, angle)
            assert np.allclose(rotation_matrix_from_su2(w), r, atol=1e-12)
            assert abs(np.linalg.det(w) - 1.0) < 1e-12

    def test_components_match_the_trace_loop(self):
        """The one-pass component formula against the traces it writes out."""
        local = np.random.default_rng(30)
        m = local.normal(size=(300, 2, 2)) + 1j * local.normal(size=(300, 2, 2))
        w = su2_polar(m)[0]
        r = rotation_matrix_from_su2(w)
        assert r.shape == (300, 3, 3)
        assert np.max(np.abs(r - loop_rotation_matrix(w))) <= 1e-15
        assert np.max(np.abs(rotation_matrix_from_su2(w[7]) - r[7])) == 0.0

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

    @pytest.mark.parametrize(
        "boost", [pure_boost, pure_boost_inverse, pure_boost_sl2, inverse_boost_sl2]
    )
    @pytest.mark.parametrize(
        "u", [[np.nan, 0.0, 0.0, 0.0], [1.5, np.nan, 0.0, 0.0]], ids=["time", "space"]
    )
    def test_nan_velocity_rejected(self, boost, u):
        with pytest.raises(UsageError, match="timelike frame 4-velocity"):
            boost(np.array(u))

    def test_sl2_boost_acts_like_vector_boost(self):
        w = np.array([0.3, -0.2, 0.5])
        u = np.concatenate(([np.sqrt(1 + w @ w)], w))
        assert np.allclose(vector_action(pure_boost_sl2(u)), pure_boost(u), atol=1e-12)
        assert np.allclose(
            inverse_boost_sl2(u) @ pure_boost_sl2(u), ID2, atol=1e-12
        )


def _boost_array_form(u):
    """pure_boost of a unit u as array expressions, the form _boost writes out."""
    b = np.empty((4, 4))
    b[0, 0] = u[0]
    b[0, 1:] = b[1:, 0] = u[1:]
    b[1:, 1:] = np.eye(3) + np.outer(u[1:], u[1:]) / (1.0 + u[0])
    return b


def _boost_sl2_array_form(u):
    """pure_boost_sl2 of a unit u as array expressions, the form _boost_sl2 writes out."""
    c = np.sqrt((1.0 + u[0]) / 2.0)
    return c * ID2 - (u[1] * SIGMA_X + u[2] * SIGMA_Y + u[3] * SIGMA_Z) / (2.0 * c)


def _boost_velocities():
    """Seeded future timelike vectors, not normalized: near rest, moderate,
    gamma about 10, and axis-aligned ones with zeros of either sign."""
    r = np.random.default_rng(31)
    out = []
    for speed in (1.0e-9, 1.0e-4, 0.05, 0.6, 3.0, np.sqrt(99.0)):
        for _ in range(12):
            w = r.normal(size=3)
            w *= speed / np.linalg.norm(w)
            out.append(r.uniform(0.5, 2.0) * np.concatenate(([np.sqrt(1.0 + w @ w)], w)))
    for w in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.4, -0.0, 0.0], [0.0, -0.7, -0.0], [-0.0, 0.0, 2.5]):
        w = np.array(w)
        out.append(np.concatenate(([np.sqrt(1.0 + w @ w)], w)))
    return out


class TestBoostClosedForms:
    """The pair closing calls _boost and _boost_sl2 on velocities normalized
    once; each must be its array form bit for bit, and the public boosts
    (which check and normalize first) must be those forms too."""

    @pytest.mark.parametrize("u", _boost_velocities())
    def test_forward_boosts_match_the_array_forms(self, u):
        unit = _unit_timelike(u)
        assert _boost(unit).tobytes() == _boost_array_form(unit).tobytes() == pure_boost(u).tobytes()
        want = _boost_sl2_array_form(unit)
        assert _boost_sl2(unit).tobytes() == want.tobytes() == pure_boost_sl2(u).tobytes()

    @pytest.mark.parametrize("u", _boost_velocities())
    def test_inverse_boosts_match_the_array_forms(self, u):
        # the inverse normalizes twice: unit(flip(unit(u)))
        once = _unit_timelike(u)
        unit = _unit_timelike(np.array([once[0], -once[1], -once[2], -once[3]]))
        assert _inverse_unit(u).tobytes() == unit.tobytes()
        assert _boost(unit).tobytes() == _boost_array_form(unit).tobytes() == pure_boost_inverse(u).tobytes()
        want = _boost_sl2_array_form(unit)
        assert _boost_sl2(unit).tobytes() == want.tobytes() == inverse_boost_sl2(u).tobytes()

    def test_polar_rotation_is_the_polar_split_without_its_boost(self):
        u = np.array([np.sqrt(1.25), 0.5, 0.0, 0.0])
        lam = pure_boost(u) @ pure_boost(np.array([np.sqrt(1.09), 0.0, 0.3, 0.0]))
        r = _polar_rotation(lam)
        assert r.tobytes() == (pure_boost_inverse(lam[:, 0]) @ lam).tobytes()
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestPolar:
    def test_lorentz_polar_recomposes(self):
        w = np.array([0.4, 0.1, -0.3])
        u = np.concatenate(([np.sqrt(1 + w @ w)], w))
        r4 = np.eye(4)
        r4[1:, 1:] = rodrigues([1.0, 2.0, 0.5], 0.9)
        lam = pure_boost(u) @ r4
        b, r = pure_boost(lam[:, 0]), _polar_rotation(lam)
        assert np.allclose(b @ r, lam, atol=1e-12)
        assert np.allclose(b, b.T, atol=1e-12)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r[0, 1:], 0.0, atol=1e-12)

    def test_lorentz_polar_rejects_time_reversal(self):
        lam = np.diag([-1.0, 1.0, 1.0, -1.0])
        with pytest.raises(UsageError):
            _polar_rotation(lam)

    @pytest.mark.parametrize(
        "entry", [(0, 0), (2, 0), (2, 2), ...], ids=["time", "boost", "rotation", "all"]
    )
    def test_lorentz_polar_rejects_nan(self, entry):
        lam = pure_boost(np.array([np.sqrt(1.25), 0.5, 0.0, 0.0]))
        lam[entry] = np.nan
        with pytest.raises(UsageError, match="non-orthochronous|timelike"):
            _polar_rotation(lam)

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


def loop_product(mats):
    """mats[-1] @ ... @ mats[0] along axis -3, one @ at a time."""
    *lead, _, k, _ = mats.shape
    out = np.broadcast_to(np.eye(k, dtype=mats.dtype), (*lead, k, k))
    for k in range(mats.shape[-3]):
        out = mats[..., k, :, :] @ out
    return out


@pytest.mark.parametrize("chords", [1, 2, 3, 7, 8, 159])
def test_ordered_product_2x2_components_match_matmul_loop(chords):
    """The component tree agrees with sequential @ on (paths, chords) SL(2,C) stacks."""
    g = 0.2 * (rng.normal(size=(6, chords, 2, 2)) + 1j * rng.normal(size=(6, chords, 2, 2)))
    g -= 0.5 * np.einsum("...ii->...", g)[..., None, None] * ID2
    mats = expm2(g)
    expected = loop_product(mats)
    out = ordered_product(mats)
    assert out.shape == (6, 2, 2)
    assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("k", [2, 4])
def test_ordered_product_of_no_factors_is_the_identity(k):
    out = ordered_product(np.zeros((3, 0, k, k), dtype=complex))
    assert out.shape == (3, k, k)
    assert np.array_equal(out, np.broadcast_to(np.eye(k), (3, k, k)))


def test_ordered_exp_product_matches_the_matrix_chain():
    """Factors built on components equal ordered_product(expm2(.)) of the same generators."""
    local = np.random.default_rng(31)
    g = 0.2 * (local.normal(size=(3, 159, 6, 2, 2)) + 1j * local.normal(size=(3, 159, 6, 2, 2)))
    c3, b, d = g[0, ..., 0, 0], g[1, ..., 0, 1], g[2, ..., 1, 0]
    mats = np.stack([c3, b, d, -c3], axis=-1).reshape(c3.shape + (2, 2))
    expected = ordered_product(np.moveaxis(expm2(mats), 0, -3))
    out = ordered_exp_product(c3, b, d)
    assert out.shape == (6, 2, 2)
    assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))
    empty = ordered_exp_product(*np.zeros((3, 0, 4), dtype=complex))
    assert np.array_equal(empty, np.broadcast_to(ID2, (4, 2, 2)))


def test_ordered_product_batched():
    mats = rng.normal(size=(3, 5, 4, 4))
    out = ordered_product(mats)
    assert out.shape == (3, 4, 4)
    for b in range(3):
        expected = np.eye(4)
        for k in range(5):
            expected = mats[b, k] @ expected
        assert np.allclose(out[b], expected, atol=1e-12)
