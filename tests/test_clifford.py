"""Gamma algebra, matrix arithmetic and boosts, with numpy as the reference."""
import math

import numpy as np
import pytest

from diracrates import clifford


def mat(m):
    """A clifford matrix as a numpy array."""
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
        g1, g2 = clifford.gamma_matrix(1), clifford.gamma_matrix(2)
        for m in (
            g2, clifford.IDENTITY4, clifford.anticommutator(g1, g1),
            clifford.boost_matrix(1.0, 0.5), clifford.matmul(g1, g2),
            clifford.combine(0.5, g1, -2.0, g2), clifford.scale(3.0, g2),
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

