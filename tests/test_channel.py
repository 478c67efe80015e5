import numpy as np
import pytest

from isacsim.channel import (
    BLOCK_SIZE,
    STREAM_DOWNLINK,
    STREAM_GENERIC,
    STREAM_UPLINK,
    CorrelationMatrix,
    SimConfig,
    exp_correlation,
    sample_channel_block,
)
from isacsim.numerics import ModelError


class TestExpCorrelation:
    def test_rho_zero_is_identity(self):
        assert np.allclose(exp_correlation(2, 0.0).matrix, np.eye(2))

    def test_known_entries(self):
        r = exp_correlation(2, 0.7).matrix
        assert np.allclose(r, [[1.0, 0.7], [0.7, 1.0]])
        r3 = exp_correlation(3, 0.8).matrix
        assert np.allclose(r3, [[1.0, 0.8, 0.64],
                                [0.8, 1.0, 0.8],
                                [0.64, 0.8, 1.0]])

    def test_rejects_rho_one(self):
        with pytest.raises(ModelError):
            exp_correlation(2, 1.0)


class TestCorrelationMatrix:
    def test_target_label_requires_pd(self):
        singular = np.ones((2, 2))
        CorrelationMatrix(matrix=singular)  # PSD is fine for generic label
        with pytest.raises(ModelError):
            CorrelationMatrix(matrix=singular, label="transmit_target")

    def test_rejects_non_hermitian(self):
        with pytest.raises(ModelError):
            CorrelationMatrix(matrix=np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_sqrt_reconstructs(self):
        r = exp_correlation(3, 0.6)
        b = r.sqrt()
        assert np.allclose(b @ b.conj().T, r.matrix, atol=1e-9)


class TestSimConfig:
    def test_dimension_constraints(self):
        with pytest.raises(ModelError):
            SimConfig(M=1, N=2, K=2, L=4)  # M < K
        with pytest.raises(ModelError):
            SimConfig(M=2, N=2, K=2, L=1)  # L < M

    def test_hashable_for_caching(self):
        a = SimConfig(M=2, N=2, K=2, L=4, seed=1)
        b = SimConfig(M=2, N=2, K=2, L=4, seed=1)
        assert hash(a) == hash(b) and a == b


class TestSampling:
    def test_determinism(self):
        r = exp_correlation(2, 0.7)
        h1 = sample_channel_block(r, 2, seed=42, block=0)[17]
        h2 = sample_channel_block(r, 2, seed=42, block=0)[17]
        assert np.array_equal(h1, h2)

    def test_streams_differ(self):
        r = exp_correlation(2, 0.7)
        a = sample_channel_block(r, 2, seed=5, block=0, stream=STREAM_DOWNLINK)[0]
        b = sample_channel_block(r, 2, seed=5, block=0, stream=STREAM_UPLINK)[0]
        assert not np.allclose(a, b)

    def test_empirical_covariance_identity(self):
        n = 100_000
        blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
        ident = CorrelationMatrix(np.eye(2, dtype=complex), "receive_identity")
        acc = np.zeros((2, 2), dtype=complex)
        for b in range(blocks):
            h = sample_channel_block(ident, 1, seed=0, block=b)[:, :, 0]
            acc += np.einsum("ti,tj->ij", h, h.conj())
        emp = acc / (blocks * BLOCK_SIZE)
        assert np.max(np.abs(emp - np.eye(2))) < 0.02

    def test_empirical_covariance_correlated(self):
        n = 100_000
        blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
        r = exp_correlation(2, 0.7)
        acc = np.zeros((2, 2), dtype=complex)
        for b in range(blocks):
            h = sample_channel_block(r, 1, seed=1, block=b)[:, :, 0]
            acc += np.einsum("ti,tj->ij", h, h.conj())
        emp = acc / (blocks * BLOCK_SIZE)
        assert np.max(np.abs(emp - r.matrix)) < 0.02

    def test_cross_trial_independence(self):
        # consecutive trials' first entries should be uncorrelated
        r = exp_correlation(2, 0.7)
        h = sample_channel_block(r, 1, seed=2, block=0,
                                 stream=STREAM_GENERIC)[:, 0, 0]
        x, y = h[:-1], h[1:]
        num = np.mean(x * y.conj()) - np.mean(x) * np.conj(np.mean(y))
        corr = abs(num) / (np.std(x) * np.std(y))
        assert corr < 0.03

