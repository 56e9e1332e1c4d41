"""Gamma algebra, boosts, spinors, and traces, with numpy as the reference."""
import math

import numpy as np
import pytest

from diracrates import clifford
from diracrates.clifford import FourVector


def random_onshell(rng, m=1.0):
    kvec = rng.normal(scale=2.0, size=3).tolist()
    return FourVector(math.sqrt(sum(x * x for x in kvec) + m * m), *kvec)


def mat(m):
    """A clifford matrix or spinor as a numpy array."""
    return np.array(m, dtype=complex)


def as_tuples(a):
    return tuple(tuple(complex(x) for x in row) for row in a)


class TestMatrixHelpers:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(13)
        eps = np.finfo(float).eps
        for _ in range(50):
            a, b = (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                for _ in range(2)
            )
            got = mat(clifford.matmul(as_tuples(a), as_tuples(b)))
            # A 4-term complex dot product is within (4 + 2) half-eps of
            # |a| |b|, entry by entry.
            assert np.all(np.abs(got - a @ b) <= 4 * eps * (np.abs(a) @ np.abs(b)))

    def test_combine_and_scale_match_numpy(self):
        rng = np.random.default_rng(17)
        a, b = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        ca, cb = 0.3 - 1.2j, -2.5
        eps = np.finfo(float).eps
        bound = 4 * eps * (abs(ca) * np.abs(a) + abs(cb) * np.abs(b))
        got = mat(clifford.combine(ca, as_tuples(a), cb, as_tuples(b)))
        assert np.all(np.abs(got - (ca * a + cb * b)) <= bound)
        got = mat(clifford.scale(ca, as_tuples(a)))
        assert np.all(np.abs(got - ca * a) <= 4 * eps * abs(ca) * np.abs(a))

    def test_matrices_are_tuples_of_complex(self):
        k = FourVector(2.0, 0.5, -1.0, 0.3)
        for m in (
            clifford.gamma_matrix(2), clifford.IDENTITY4, clifford.slash(k),
            clifford.boost_matrix(1.0, 0.5), clifford.spin_sum_u(
                FourVector(math.sqrt(2.0), 1.0, 0, 0), 1.0
            ),
        ):
            assert type(m) is tuple and len(m) == 4
            for row in m:
                assert type(row) is tuple and len(row) == 4
                assert all(type(x) is complex for x in row)


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
        rhs = 2.0 * clifford.METRIC[mu][nu] * np.eye(4)
        np.testing.assert_array_equal(mat(lhs), rhs)

    def test_anticommutator_identity(self):
        eye = clifford.IDENTITY4
        np.testing.assert_array_equal(
            mat(clifford.anticommutator(eye, eye)), 2 * np.eye(4)
        )

    def test_metric_and_identity(self):
        np.testing.assert_array_equal(np.array(clifford.METRIC), np.diag([1, -1, -1, -1]))
        np.testing.assert_array_equal(mat(clifford.IDENTITY4), np.eye(4))


class TestSlash:
    def test_rest_frame(self):
        m = 1.7
        np.testing.assert_allclose(
            clifford.slash(FourVector(m, 0, 0, 0)), m * mat(clifford.gamma_matrix(0))
        )

    def test_zero(self):
        np.testing.assert_array_equal(
            clifford.slash(FourVector(0, 0, 0, 0)), np.zeros((4, 4))
        )

    def test_square_is_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = FourVector(*rng.normal(size=4).tolist())
            sq = mat(clifford.slash(k)) @ mat(clifford.slash(k))
            np.testing.assert_allclose(
                sq, k.dot(k) * np.eye(4), atol=1e-13 * max(1.0, abs(k.dot(k)))
            )


class TestBoost:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(clifford.boost_matrix(1.0, 0.0), np.eye(4))

    def test_inverse(self):
        s = mat(clifford.boost_matrix(1.0, 2.0))
        np.testing.assert_allclose(
            s @ mat(clifford.boost_matrix(1.0, -2.0)), np.eye(4), atol=1e-13
        )

    def test_gamma0_conjugation_squares_to_one(self):
        g0 = mat(clifford.gamma_matrix(0))
        m = g0 @ mat(clifford.boost_matrix(1.0, 0.7))
        np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-13)

    def test_composition_grid(self):
        taus = np.arange(-5.0, 5.5, 1.0)
        for t1 in taus:
            for t2 in taus:
                lhs = mat(clifford.boost_matrix(1.0, t1)) @ mat(
                    clifford.boost_matrix(1.0, t2)
                )
                rhs = mat(clifford.boost_matrix(1.0, t1 + t2))
                np.testing.assert_allclose(
                    lhs, rhs, rtol=1e-13, atol=1e-13 * np.max(np.abs(rhs))
                )

    def test_complex_tau(self):
        # The group law holds off the real line; a tau/2 = i pi is -I.
        t1, t2 = 0.3 + 0.4j, -1.1 + 2.0j
        np.testing.assert_allclose(
            mat(clifford.boost_matrix(2.0, t1)) @ mat(clifford.boost_matrix(2.0, t2)),
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

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_nan_and_inf_acceleration(self, a):
        with pytest.raises(
            ValueError, match=rf"^acceleration must be positive and finite, got {a}$"
        ):
            clifford.boost_matrix(a, 1.0)

    @pytest.mark.parametrize(
        "tau", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                complex(math.inf, 1.0), np.float64(math.nan)]
    )
    def test_non_finite_tau(self, tau):
        # A nan matrix is no answer: the time is named instead.
        with pytest.raises(ValueError, match=r"^tau must be finite, got "):
            clifford.boost_matrix(1.0, tau)


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
            assert mat(clifford.dirac_adjoint(u)) @ mat(u) == pytest.approx(1.0, abs=1e-12)
            assert mat(clifford.dirac_adjoint(v)) @ mat(v) == pytest.approx(-1.0, abs=1e-12)

    def test_dirac_adjoint_matches_numpy(self):
        rng = np.random.default_rng(19)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_array_equal(
            mat(clifford.dirac_adjoint(tuple(psi.tolist()))),
            psi.conj() @ mat(clifford.gamma_matrix(0)),
        )

    def test_massless_rejected(self):
        k = FourVector(1.0, 1.0, 0, 0)
        with pytest.raises(ValueError):
            clifford.spinor_u(k, 1, 0.0)

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError):
            clifford.spinor_u(FourVector(5.0, 0.1, 0, 0), 1, 1.0)

    @pytest.mark.parametrize("spinor", [clifford.spinor_u, clifford.spinor_v])
    @pytest.mark.parametrize(
        "k", [FourVector(math.nan, 0, 0, 0), FourVector(1.0, math.nan, 0, 0),
              FourVector(math.inf, math.inf, 0, 0)],
    )
    def test_nan_momentum_rejected(self, spinor, k):
        with pytest.raises(ValueError, match="^momentum is off shell: "):
            spinor(k, 1, 1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_nan_mass_rejected(self, m):
        with pytest.raises(
            ValueError, match=rf"^spinor mass must be positive and finite, got {m}$"
        ):
            clifford.spinor_u(FourVector(1.0, 0, 0, 0), 1, m)

    def test_bad_spin_index(self):
        with pytest.raises(ValueError, match="^spin index must be 1 or 2, got 3$"):
            clifford.spinor_v(FourVector(1.0, 0, 0, 0), 3, 1.0)
