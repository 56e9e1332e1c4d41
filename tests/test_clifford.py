"""Gamma algebra, boosts, spinors, and traces."""
import math

import numpy as np
import pytest

from diracrates import clifford
from diracrates.clifford import FourVector


def random_onshell(rng, m=1.0):
    kvec = rng.normal(scale=2.0, size=3)
    return FourVector(math.sqrt(float(kvec @ kvec) + m * m), *kvec)


class TestGammaMatrices:
    def test_gamma0_is_diag(self):
        np.testing.assert_array_equal(
            clifford.gamma_matrix(0), np.diag([1, 1, -1, -1]).astype(complex)
        )

    def test_gamma3_entries(self):
        g3 = clifford.gamma_matrix(3)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = -1
        expected[3, 1] = 1
        np.testing.assert_array_equal(g3, expected)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            clifford.gamma_matrix(4)
        with pytest.raises(ValueError):
            clifford.gamma_matrix(-1)

    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("nu", range(4))
    def test_algebra_exact(self, mu, nu):
        lhs = clifford.anticommutator(
            clifford.gamma_matrix(mu), clifford.gamma_matrix(nu)
        )
        rhs = 2.0 * clifford.METRIC[mu, nu] * np.eye(4)
        np.testing.assert_array_equal(lhs, rhs)

    def test_anticommutator_identity(self):
        eye = np.eye(4, dtype=complex)
        np.testing.assert_array_equal(clifford.anticommutator(eye, eye), 2 * eye)


class TestSlash:
    def test_rest_frame(self):
        m = 1.7
        np.testing.assert_allclose(
            clifford.slash(FourVector(m, 0, 0, 0)), m * clifford.gamma_matrix(0)
        )

    def test_zero(self):
        np.testing.assert_array_equal(
            clifford.slash(FourVector(0, 0, 0, 0)), np.zeros((4, 4))
        )

    def test_square_is_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = FourVector(*rng.normal(size=4))
            sq = clifford.slash(k) @ clifford.slash(k)
            np.testing.assert_allclose(
                sq, k.dot(k) * np.eye(4), atol=1e-13 * max(1.0, abs(k.dot(k)))
            )


class TestBoost:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(clifford.boost_matrix(1.0, 0.0), np.eye(4))

    def test_inverse(self):
        s = clifford.boost_matrix(1.0, 2.0)
        np.testing.assert_allclose(
            s @ clifford.boost_matrix(1.0, -2.0), np.eye(4), atol=1e-13
        )

    def test_gamma0_conjugation_squares_to_one(self):
        g0 = clifford.gamma_matrix(0)
        m = g0 @ clifford.boost_matrix(1.0, 0.7)
        np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-13)

    def test_composition_grid(self):
        taus = np.arange(-5.0, 5.5, 1.0)
        for t1 in taus:
            for t2 in taus:
                lhs = clifford.boost_matrix(1.0, t1) @ clifford.boost_matrix(1.0, t2)
                rhs = clifford.boost_matrix(1.0, t1 + t2)
                np.testing.assert_allclose(
                    lhs, rhs, rtol=1e-13, atol=1e-13 * np.max(np.abs(rhs))
                )

    def test_complex_tau(self):
        # The group law holds off the real line; a tau/2 = i pi is -I.
        t1, t2 = 0.3 + 0.4j, -1.1 + 2.0j
        np.testing.assert_allclose(
            clifford.boost_matrix(2.0, t1) @ clifford.boost_matrix(2.0, t2),
            clifford.boost_matrix(2.0, t1 + t2), rtol=1e-13, atol=1e-13,
        )
        np.testing.assert_allclose(
            clifford.boost_matrix(2.0, math.pi * 1j), -np.eye(4), atol=1e-15
        )

    def test_nonpositive_acceleration(self):
        with pytest.raises(ValueError):
            clifford.boost_matrix(0.0, 1.0)
        with pytest.raises(ValueError):
            clifford.boost_matrix(-1.0, 1.0)


class TestSpinors:
    def test_rest_frame_unit_spinors(self):
        k = FourVector(1.0, 0, 0, 0)
        np.testing.assert_allclose(clifford.spinor_u(k, 1, 1.0), [1, 0, 0, 0])
        np.testing.assert_allclose(clifford.spinor_u(k, 2, 1.0), [0, 1, 0, 0])
        np.testing.assert_allclose(clifford.spinor_v(k, 1, 1.0), [0, 0, 1, 0])
        np.testing.assert_allclose(clifford.spinor_v(k, 2, 1.0), [0, 0, 0, 1])

    def test_spin_sums_random_momenta(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = random_onshell(rng)
            sk = clifford.slash(k)
            np.testing.assert_allclose(
                clifford.spin_sum_u(k, 1.0), (sk + np.eye(4)) / 2, atol=1e-12
            )
            np.testing.assert_allclose(
                clifford.spin_sum_v(k, 1.0), (sk - np.eye(4)) / 2, atol=1e-12
            )

    def test_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = random_onshell(rng)
            u = clifford.spinor_u(k, 1, 1.0)
            v = clifford.spinor_v(k, 2, 1.0)
            assert clifford.dirac_adjoint(u) @ u == pytest.approx(1.0, abs=1e-12)
            assert clifford.dirac_adjoint(v) @ v == pytest.approx(-1.0, abs=1e-12)

    def test_massless_rejected(self):
        k = FourVector(1.0, 1.0, 0, 0)
        with pytest.raises(ValueError):
            clifford.spinor_u(k, 1, 0.0)

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError):
            clifford.spinor_u(FourVector(5.0, 0.1, 0, 0), 1, 1.0)
