"""Two-qubit spin layer: singlet correlations, CHSH, measurement axes."""

import dataclasses

import numpy as np
import pytest

from eprgeo import (
    CANONICAL_CHSH_DIRECTIONS,
    Event,
    chsh,
    correlation,
    correlation_matrix,
    integrate_pair,
    matched_axis,
)
from eprgeo.errors import UsageError
from eprgeo.lorentz import PAULI, expm2, su2_polar
from eprgeo.spin import SINGLET, TwoQubitState, fidelity, pair_state

rng = np.random.default_rng(31)


def singlet():
    return TwoQubitState("pure", SINGLET)


@pytest.fixture(scope="module")
def flat_pair(minkowski):
    """A flat-spacetime decay: every transport is trivial, so a matches a."""
    u1 = np.array([np.sqrt(1.49), 0.7, 0.0, 0.0])
    u2 = np.array([np.sqrt(1.25), -0.5, 0.0, 0.0])
    return integrate_pair(minkowski, Event(np.zeros(4)), u1, u2, 1.5, 1.5)


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


class TestSinglet:
    def test_correlation_is_minus_cosine(self):
        s = singlet()
        for _ in range(10):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert correlation(s, a, b) == pytest.approx(-(a @ b), abs=1e-12)

    def test_correlation_matrix(self):
        assert np.allclose(correlation_matrix(singlet()), -np.eye(3), atol=1e-12)

    def test_correlation_matrix_matches_kron_loop(self):
        w1 = su2([0.3, -1.0, 0.4], 0.7)
        w2 = su2([1.0, 0.2, 0.0], 2.1)
        pure = TwoQubitState("pure", pair_state(w1, w2))
        mixed = TwoQubitState("mixed", 0.7 * pure.density + 0.3 * np.eye(4) / 4.0)
        for state in (pure, mixed):
            rho = state.density
            oracle = np.empty((3, 3))
            for j in range(3):
                for k in range(3):
                    oracle[j, k] = np.trace(rho @ np.kron(PAULI[j], PAULI[k])).real
            assert np.array_equal(correlation_matrix(state), oracle)
            # E(a, b) against the expectation of the explicit 4x4 operator
            for a, b in np.random.default_rng(5).normal(size=(5, 2, 3)):
                a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
                op = np.kron(np.einsum("k,kij->ij", a, PAULI), np.einsum("k,kij->ij", b, PAULI))
                assert abs(correlation(state, a, b) - np.trace(rho @ op).real) < 1e-15

    def test_matched_axis_is_same_axis(self, flat_pair):
        a = np.array([0.6, 0.0, 0.8])
        assert np.allclose(matched_axis(flat_pair, a), a, atol=1e-12)

    def test_reduced_states_maximally_mixed(self):
        s = singlet()
        rho = s.density.reshape(2, 2, 2, 2)
        for reduced in (np.einsum("ikjk->ij", rho), np.einsum("kikj->ij", rho)):
            assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_rotation_invariance(self):
        # (W x W) leaves the singlet ray unchanged
        w = su2([0.2, 1.0, -0.5], 1.234)
        v = np.kron(w, w) @ SINGLET
        overlap = abs(np.vdot(SINGLET, v))
        assert overlap == pytest.approx(1.0, abs=1e-12)


class TestChsh:
    def test_canonical_settings_saturate_tsirelson(self):
        a, ap, b, bp = CANONICAL_CHSH_DIRECTIONS
        s = chsh(singlet(), a, ap, b, bp)
        assert s == pytest.approx(-2.0 * np.sqrt(2.0), abs=1e-12)

    def test_product_state_respects_classical_bound(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        st = TwoQubitState("mixed", rho)
        a, ap, b, bp = CANONICAL_CHSH_DIRECTIONS
        assert abs(chsh(st, a, ap, b, bp)) <= 2.0 + 1e-12


class TestDirections:
    def test_normalizes_small_drift(self, flat_pair):
        # a rotation 1e-9 off orthogonal, inside the orthonormality
        # diagnostic's bound, still gives a unit axis that correlation accepts
        drifted = dataclasses.replace(flat_pair, rotation2=(1.0 + 1e-9) * flat_pair.rotation2)
        a = np.array([1.0 + 1e-12, 0.0, 0.0])
        b = matched_axis(drifted, a)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-15)
        assert correlation(drifted.state, a, b) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_unit(self, flat_pair):
        a = np.array([0.0, 0.0, 1.0])
        for bad in ([2.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(UsageError, match="particle 2 must be a unit 3-vector"):
                correlation(singlet(), a, bad)
            with pytest.raises(UsageError, match="particle 1 must be a unit 3-vector"):
                matched_axis(flat_pair, bad)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, np.nan, 1.0]], ids=["x", "y"])
    def test_rejects_nan(self, bad):
        a = np.array([0.0, 0.0, 1.0])
        with pytest.raises(UsageError, match="particle 1 must be a unit 3-vector"):
            correlation(singlet(), bad, a)
        with pytest.raises(UsageError, match="particle 2 must be a unit 3-vector"):
            correlation(singlet(), a, bad)

    def test_measurement_operator_spectrum(self):
        # a.sigma has eigenvalues -1 and +1, so a product state along the
        # same axis on both sides reaches the correlation bound |E| = 1
        a = np.array([0.0, 0.6, 0.8])
        op = np.einsum("k,kij->ij", a, PAULI)
        eig = np.sort(np.linalg.eigvalsh(op))
        assert np.allclose(eig, [-1.0, 1.0], atol=1e-12)
        up = np.linalg.eigh(op)[1][:, 1]
        st = TwoQubitState("pure", np.kron(up, up))
        assert correlation(st, a, a) == pytest.approx(1.0, abs=1e-12)


class TestApplyTransports:
    """Rest-frame rotations applied to the singlet through pair_state."""

    def test_rotations_rotate_correlation_axes(self):
        r1 = rodrigues([0, 0, 1], 0.4)
        r2 = rodrigues([1, 0, 0], -0.7)
        psi = pair_state(su2([0, 0, 1], 0.4), su2([1, 0, 0], -0.7))
        out = TwoQubitState("pure", psi)
        a = np.array([0.0, 1.0, 0.0])
        b = np.array([0.3, -0.5, 0.8])
        b /= np.linalg.norm(b)
        expected = -(r1.T @ a) @ (r2.T @ b)
        assert correlation(out, a, b) == pytest.approx(expected, abs=1e-10)

    def test_boost_part_is_discarded(self):
        # a pure-boost SL(2,C) factor must not change rest-frame spin axes
        from eprgeo.lorentz import pure_boost_sl2

        u = np.array([np.sqrt(1.0 + 0.25), 0.5, 0.0, 0.0])
        w, _ = su2_polar(pure_boost_sl2(u))
        out = TwoQubitState("pure", pair_state(w, w))
        ref = TwoQubitState("pure", pair_state())
        assert np.allclose(
            correlation_matrix(out), correlation_matrix(ref), atol=1e-10
        )


class TestStateValidation:
    def test_pure_state_norm_checked(self):
        with pytest.raises(UsageError):
            TwoQubitState("pure", np.array([1.0, 1.0, 0.0, 0.0]))

    def test_mixed_state_hermiticity_checked(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.5
        with pytest.raises(UsageError):
            TwoQubitState("mixed", rho)

    def test_mixed_state_trace_checked(self):
        with pytest.raises(UsageError):
            TwoQubitState("mixed", np.eye(4, dtype=complex))

    @pytest.mark.parametrize(
        "kind, entry, message",
        [
            ("pure", (1,), "normalized"),
            ("mixed", (0, 0), "Hermitian"),
            ("mixed", (1, 2), "Hermitian"),
            ("mixed", ..., "Hermitian"),
        ],
        ids=["pure", "mixed-diagonal", "mixed-off-diagonal", "mixed-all"],
    )
    def test_nan_state_rejected(self, kind, entry, message):
        data = SINGLET.copy() if kind == "pure" else np.eye(4, dtype=complex) / 4
        data[entry] = np.nan
        with pytest.raises(UsageError, match=message):
            TwoQubitState(kind, data)

    def test_density_property(self):
        s = singlet()
        rho = s.density
        assert np.allclose(rho, np.outer(SINGLET, SINGLET.conj()))
        assert np.trace(rho) == pytest.approx(1.0)


class TestFidelity:
    def test_fidelity_of_state_with_itself(self):
        assert fidelity(SINGLET, np.outer(SINGLET, SINGLET.conj())) == pytest.approx(
            1.0
        )

    def test_fidelity_with_orthogonal_state(self):
        other = np.zeros(4)
        other[0] = 1.0
        assert fidelity(SINGLET, np.outer(other, other)) == pytest.approx(0.0, abs=1e-12)

    def test_pair_state_default_is_singlet(self):
        assert np.allclose(pair_state(), SINGLET)
