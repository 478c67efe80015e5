import numpy as np
import pytest

from isacsim.numerics import (
    ModelError,
    hermitian_eig,
    matrix_sqrt_psd,
    waterfill,
)


def exp_corr(dim, rho):
    idx = np.arange(dim)
    return rho ** np.abs(idx[:, None] - idx[None, :])


class TestHermitianEig:
    def test_identity(self):
        es = hermitian_eig(np.eye(2))
        assert np.allclose(es.values, [1.0, 1.0])
        assert np.allclose(es.basis @ es.basis.conj().T, np.eye(2), atol=1e-10)

    def test_two_by_two_exponential(self):
        es = hermitian_eig(exp_corr(2, 0.7))
        assert np.allclose(es.values, [1.7, 0.3])

    def test_matches_charpoly_roots(self):
        # independent oracle: roots of the characteristic polynomial
        a = exp_corr(3, 0.7)
        coeffs = np.poly(a)
        roots = np.sort(np.real(np.roots(coeffs)))[::-1]
        es = hermitian_eig(a)
        assert np.allclose(es.values, roots, atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = w @ w.conj().T
        es = hermitian_eig(a)
        rebuilt = (es.basis * es.values) @ es.basis.conj().T
        assert np.allclose(rebuilt, a, atol=1e-9)
        assert np.all(np.diff(es.values) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ModelError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])),
                           np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        a = exp_corr(2, 0.8)
        b = matrix_sqrt_psd(a)
        assert np.allclose(b @ b.conj().T, a, atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(ModelError):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))


class TestWaterfill:
    def test_hand_solved_instance(self):
        sol = waterfill([2.0, 1.0], [1.0, 1.0], 1.0)
        assert np.allclose(sol.allocation, [0.75, 0.25])
        assert sol.water_level == pytest.approx(1.25)
        assert sol.active_set == (0, 1)

    def test_symmetric(self):
        sol = waterfill([1.0, 1.0], [1.0, 1.0], 2.0)
        assert np.allclose(sol.allocation, [1.0, 1.0])

    def test_inactive_mode(self):
        sol = waterfill([10.0, 0.1], [1.0, 1.0], 0.5)
        assert np.allclose(sol.allocation, [0.5, 0.0])
        assert sol.active_set == (0,)

    def test_budget_conservation_and_kkt(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            gains = rng.uniform(0.1, 4.0, m)
            noise = rng.uniform(0.3, 2.0, m)
            budget = float(rng.uniform(0.1, 8.0))
            sol = waterfill(gains, noise, budget)
            assert sol.budget_used == pytest.approx(budget, abs=1e-9)
            expected = np.maximum(0.0, sol.water_level - noise / gains)
            assert np.allclose(sol.allocation, expected, atol=1e-9)

    def test_zero_budget(self):
        sol = waterfill([1.0, 2.0], [1.0, 1.0], 0.0)
        assert np.all(sol.allocation == 0.0)
        assert sol.active_set == ()

    def test_scale_consistency(self):
        gains = np.array([2.0, 1.0, 0.5])
        noise = np.array([1.0, 1.0, 1.0])
        base = waterfill(gains, noise, 2.0)
        scaled = waterfill(gains, 3.0 * noise, 6.0)
        assert np.allclose(scaled.allocation, 3.0 * base.allocation)
        assert scaled.active_set == base.active_set

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            waterfill([1.0], [1.0, 2.0], 1.0)
        with pytest.raises(ModelError):
            waterfill([0.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ModelError):
            waterfill([1.0, 1.0], [1.0, 1.0], -0.5)
