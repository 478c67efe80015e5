import numpy as np
import pytest

from isacsim import channel as chan
from isacsim import downlink as dl
from isacsim import mc
from isacsim import uplink as ul
from isacsim.channel import (
    BLOCK_SIZE,
    STREAM_COVARIANCE,
    STREAM_DOWNLINK,
    STREAM_UPLINK,
    SimConfig,
    exp_correlation,
    sample_channel_block,
)
from isacsim.numerics import ModelError, matrix_sqrt_psd
from isacsim.sensing import dl_sr


class TestExpCorrelation:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(exp_correlation(2, 0.0), np.eye(2))

    def test_known_entries(self):
        r = exp_correlation(2, 0.7)
        assert isinstance(r, np.ndarray) and r.dtype == complex
        assert np.allclose(r, [[1.0, 0.7], [0.7, 1.0]])
        r3 = exp_correlation(3, 0.8)
        assert np.allclose(r3, [[1.0, 0.8, 0.64],
                                [0.8, 1.0, 0.8],
                                [0.64, 0.8, 1.0]])

    def test_rejects_rho_one(self):
        with pytest.raises(ModelError):
            exp_correlation(2, 1.0)


class TestCorrelationMatrix:
    def test_singular_target_rejected_by_sensing_rate(self):
        # a singular PSD matrix is a valid channel correlation, but as a
        # sensing target it has a mode that no power reaches
        singular = np.ones((2, 2))
        root = matrix_sqrt_psd(singular)
        assert np.allclose(root @ root.conj().T, singular, atol=1e-9)
        with pytest.raises(ModelError):
            dl_sr(singular, 2, 4, 1.0, 1.0)

    def test_rejects_non_hermitian(self):
        # where a correlation is used: its root, and a sensing rate
        skew = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ModelError):
            matrix_sqrt_psd(skew)
        with pytest.raises(ModelError):
            dl_sr(skew, 2, 4, 1.0, 1.0)

    def test_sqrt_reconstructs(self):
        r = exp_correlation(3, 0.6)
        b = matrix_sqrt_psd(r)
        assert np.allclose(b @ b.conj().T, r, atol=1e-9)


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


def corr_root(dim, rho):
    return matrix_sqrt_psd(exp_correlation(dim, rho))


class TestSampling:
    def test_determinism(self):
        r = corr_root(2, 0.7)
        h1 = sample_channel_block(r, 2, 42, 0, STREAM_DOWNLINK)[17]
        h2 = sample_channel_block(r, 2, 42, 0, STREAM_DOWNLINK)[17]
        assert np.array_equal(h1, h2)

    def test_streams_differ(self):
        r = corr_root(2, 0.7)
        a = sample_channel_block(r, 2, seed=5, block=0, stream=STREAM_DOWNLINK)[0]
        b = sample_channel_block(r, 2, seed=5, block=0, stream=STREAM_UPLINK)[0]
        assert not np.allclose(a, b)

    def test_empirical_covariance_identity(self):
        n = 100_000
        blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
        ident = np.eye(2, dtype=complex)
        acc = np.zeros((2, 2), dtype=complex)
        for b in range(blocks):
            h = sample_channel_block(ident, 1, 0, b, STREAM_UPLINK)[:, :, 0]
            acc += np.einsum("ti,tj->ij", h, h.conj())
        emp = acc / (blocks * BLOCK_SIZE)
        assert np.max(np.abs(emp - np.eye(2))) < 0.02

    def test_empirical_covariance_correlated(self):
        n = 100_000
        blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
        r = exp_correlation(2, 0.7)
        root = matrix_sqrt_psd(r)
        acc = np.zeros((2, 2), dtype=complex)
        for b in range(blocks):
            h = sample_channel_block(root, 1, 1, b, STREAM_DOWNLINK)[:, :, 0]
            acc += np.einsum("ti,tj->ij", h, h.conj())
        emp = acc / (blocks * BLOCK_SIZE)
        assert np.max(np.abs(emp - r)) < 0.02

    def test_cross_trial_independence(self):
        # consecutive trials' first entries should be uncorrelated
        r = corr_root(2, 0.7)
        h = sample_channel_block(r, 1, 2, 0, STREAM_COVARIANCE)[:, 0, 0]
        x, y = h[:-1], h[1:]
        num = np.mean(x * y.conj()) - np.mean(x) * np.conj(np.mean(y))
        corr = abs(num) / (np.std(x) * np.std(y))
        assert corr < 0.03


def einsum_block(root, columns, seed, block, stream):
    # reference sampler: two draws, a complex sum divided by sqrt(2), and
    # the correlated transform as an einsum unless the root is exactly I
    rng = np.random.default_rng((seed, stream, block))
    shape = (BLOCK_SIZE, len(root), columns)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    if np.array_equal(root, np.eye(len(root))):
        return w
    return np.einsum("ij,tjk->tik", root, w)


class TestSamplerBytes:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, 0.999])
    def test_matches_the_einsum_sampler(self, dim, columns, rho):
        # a prefix of n trials holds the bytes of the whole block's first n
        root = corr_root(dim, rho)
        for stream in (STREAM_DOWNLINK, STREAM_UPLINK, STREAM_COVARIANCE):
            for block in (0, 1, 7):
                whole = einsum_block(root, columns, 11, block, stream)
                for n in (None, 1, 37, 150, BLOCK_SIZE - 1, BLOCK_SIZE):
                    got = sample_channel_block(root, columns, 11, block, stream, n)
                    expect = whole[:n]
                    assert got.shape == expect.shape
                    assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("rho", [0.0, 0.8])
    def test_each_entry_holds_its_trials_contiguously(self, monkeypatch, rho):
        # a block is a (trials, dim, columns) view of a C-contiguous
        # (dim, columns, trials) buffer, at every prefix length
        monkeypatch.setattr(chan, "BLOCK_SIZE", 16)
        for dim in (1, 2, 3):
            root = corr_root(dim, rho)
            # the i.i.d. path runs exactly when the root is exactly I
            assert np.array_equal(root, np.eye(dim)) == (rho == 0.0 or dim == 1)
            for columns in (1, 2, 3):
                for n in range(1, 17):
                    h = sample_channel_block(root, columns, 4, 0, STREAM_DOWNLINK, n)
                    assert h.shape == (n, dim, columns)
                    assert h.strides[0] == h.itemsize
                    assert h.transpose(1, 2, 0).flags.c_contiguous

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_an_uncorrelated_root_draws_the_iid_path(self, dim):
        # rho = 0 gives exactly I, and its root is exactly I, so a
        # downlink at rho_cu = 0 draws the same bytes as the i.i.d. uplink
        root = corr_root(dim, 0.0)
        assert np.array_equal(root, np.eye(dim))
        assert sample_channel_block(root, 2, 9, 0, STREAM_DOWNLINK).tobytes() == \
            sample_channel_block(np.eye(dim), 2, 9, 0, STREAM_DOWNLINK).tobytes()

    @pytest.mark.parametrize("trials", [0, -1, BLOCK_SIZE + 1, 2.0, "3"])
    def test_rejects_trials_outside_one_block(self, trials):
        with pytest.raises(ModelError):
            sample_channel_block(corr_root(2, 0.5), 2, 0, 0,
                                 STREAM_DOWNLINK, trials)

    def test_reads_the_block_size_when_called(self, monkeypatch):
        monkeypatch.setattr(chan, "BLOCK_SIZE", 64)
        root = corr_root(2, 0.5)
        assert sample_channel_block(root, 2, 0, 0, STREAM_DOWNLINK).shape == (64, 2, 2)
        with pytest.raises(ModelError):
            sample_channel_block(root, 2, 0, 0, STREAM_DOWNLINK, 65)

    def test_each_link_computes_its_root_once(self, monkeypatch, drawn):
        # a Link computes its stream's root when it is built (none for the
        # i.i.d. uplink), and every draw of its outage walks, its ergodic
        # draw set and a blocks pass reuses it; the sampler computes none
        monkeypatch.setattr(chan, "BLOCK_SIZE", 16)
        cfg = SimConfig(M=3, N=2, K=2, L=4, rho_cu=0.8, trials=50, seed=3)
        eigh, roots = np.linalg.eigh, []

        def counting(a):
            roots.append(a)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for stream, rate, expect in (
                (STREAM_DOWNLINK, dl.dl_sum_rate_batch, 1),
                (STREAM_COVARIANCE, dl.dl_sum_rate_batch, 1),
                (STREAM_UPLINK, ul.ul_rate_batch, 0)):
            roots.clear()
            drawn.clear()
            link = mc.Link(cfg, stream)
            for p_c in (1.0, 10.0, 100.0):
                for alpha in (1.0, 0.5):
                    mc.outage(link, stream, rate, 4.0, p_c, alpha, 5, 50)
            mc.ergodic(link, stream, rate, 10.0, 1.0)
            for trials in (1, 16, 17, 50):
                assert len(list(link.blocks(trials))) == -(-trials // 16)
            assert {key[1] for key in drawn} == {stream}
            assert len(roots) == expect, stream
        root = corr_root(3, 0.8)
        roots.clear()
        sample_channel_block(root, 2, 0, 0, STREAM_DOWNLINK)
        assert roots == []
