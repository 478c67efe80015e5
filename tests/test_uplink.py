import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exp1

from isacsim import channel as chan
from isacsim.channel import SimConfig, exp_correlation
from isacsim.mc import Link
from isacsim.numerics import ModelError, matrix_sqrt_psd
from isacsim.sensing import build_waveform, ul_sr
from isacsim.uplink import (
    sensing_profile,
    ul_ecr,
    ul_ecr_asymptote,
    ul_ecr_fdsac,
    ul_outage_prob,
    ul_outage_prob_fdsac,
    ul_rate_batch,
)

RT = exp_correlation(2, 0.7)
CLEAN = 1.0  # the slot noise of a frame without radar interference


def slot_noises(r_target, n_rx, n_slots, p_s):
    # oracle: each slot's 1 + s_l^H R_T s_l of the built optimal waveform
    _, alloc = ul_sr(r_target, n_rx, n_slots, p_s)
    s = build_waveform(r_target, alloc, n_slots)
    rt = np.asarray(r_target, dtype=complex)
    return 1.0 + np.real(np.einsum("ml,mn,nl->l", s.conj(), rt, s))


def ul_slot_rate(h_u, p_c, rho2_l):
    # scalar oracle: log2 det(I_N + (p_c / rho2_l) H_u H_u^H) of one slot
    h = np.asarray(h_u, dtype=complex)
    a = np.eye(h.shape[0]) + (p_c / rho2_l) * (h @ h.conj().T)
    return np.linalg.slogdet(a)[1] / math.log(2.0)


def ul_avg_rate(h_u, p_c, rho2_slots):
    # scalar oracle: the per-slot rates averaged over the frame
    return float(np.mean([ul_slot_rate(h_u, p_c, r2) for r2 in rho2_slots]))


def scalar_cfg(seed=0):
    return SimConfig(M=1, N=1, K=1, L=1, rho_target=0.0, rho_cu=0.0, seed=seed)


class TestSlotNoise:
    def test_quadratic_form(self):
        # the one rho2 is every slot's 1 + s_l^H R_T s_l: the evenly spread
        # waveform loads every slot alike, over the whole allowed range
        for m in range(1, 5):
            for n_slots in (m, m + 1, 2 * m + 3):
                for rho in (0.0, 0.5, 0.95):
                    rt = exp_correlation(m, rho)
                    for p_s in (0.0, 0.1, 10.0, 1e6):
                        _, rho2 = sensing_profile(rt, m, n_slots, p_s)
                        slots = slot_noises(rt, m, n_slots, p_s)
                        assert np.allclose(slots, rho2, rtol=1e-12, atol=0.0), \
                            (m, n_slots, rho, p_s)

    def test_optimal_waveform_equal_slots(self):
        _, rho2 = sensing_profile(RT, 2, 4, 10.0)
        # rho2 = 1 + (sum_m lambda_m a_m) / L with the hand-solved allocation
        lam = np.array([1.7, 0.3])
        level = (10.0 + np.sum(1.0 / lam)) / 2.0
        alloc = level - 1.0 / lam
        assert rho2 == pytest.approx(1.0 + np.sum(lam * alloc) / 4.0, abs=1e-9)
        assert rho2 == pytest.approx(3.98039216, abs=1e-6)

    def test_rejects_sub_unit_noise(self):
        # at every power, a silent link too: no trial is needed to see it
        cfg = SimConfig(M=2, N=2, K=2, L=4, trials=100)
        below = np.nextafter(1.0, 0.0)
        for p_c in (0.0, 1.0):
            with pytest.raises(ModelError):
                ul_outage_prob(Link(cfg, chan.STREAM_UPLINK), 1.0, p_c, below)
            with pytest.raises(ModelError):
                ul_ecr(Link(cfg, chan.STREAM_UPLINK), p_c, below)

    def test_isac_estimates_run_the_kernel_at_p_c_over_rho2(self):
        # bit for bit: the ECR sums, and the outage counts, the kernel's
        # rates at p_c / rho2
        cfg = SimConfig(M=2, N=2, K=2, L=4, trials=3000, seed=8)
        link = Link(cfg, chan.STREAM_UPLINK)
        for p_c in (0.3, 10.0, 1e4):
            for rho2 in (CLEAN, PAPER, 7.5):
                rates = np.concatenate([ul_rate_batch(h, p_c / rho2)
                                        for h in link.draws()])
                assert ul_ecr(link, p_c, rho2).mean == float(np.sum(rates)) / 3000
                target = float(np.median(rates))
                est = ul_outage_prob(Link(cfg, chan.STREAM_UPLINK), target,
                                     p_c, rho2, min_events=3000, max_trials=3000)
                assert est.mean == np.count_nonzero(rates < target) / 3000


class TestRates:
    def test_single_antenna_slot_rate(self):
        h = np.array([[1.0 + 1.0j]])
        assert ul_slot_rate(h, 3.0, 2.0) == pytest.approx(math.log2(4.0))
        assert ul_rate_batch(h[None], 3.0 / 2.0)[0] == pytest.approx(math.log2(4.0))

    def test_avg_over_slots(self):
        # the per-slot average over the built waveform's own slot noises is
        # the rate at the one rho2, within 1e-12 bit
        rng = np.random.default_rng(19)
        h = (rng.standard_normal((16, 2, 2))
             + 1j * rng.standard_normal((16, 2, 2))) / np.sqrt(2.0)
        for p_s in (0.1, 10.0, 1e4):
            _, rho2 = sensing_profile(RT, 2, 4, p_s)
            slots = slot_noises(RT, 2, 4, p_s)
            for p_c in (0.1, 10.0, 1e4):
                batch = ul_rate_batch(h, p_c / rho2)
                loops = [ul_avg_rate(h[i], p_c, slots) for i in range(16)]
                assert np.allclose(batch, loops, rtol=0.0, atol=1e-12), (p_s, p_c)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(23)
        h = (rng.standard_normal((32, 2, 2))
             + 1j * rng.standard_normal((32, 2, 2))) / np.sqrt(2.0)
        batch = ul_rate_batch(h, 5.0 / 2.0)
        loops = [ul_slot_rate(h[i], 5.0, 2.0) for i in range(32)]
        assert np.allclose(batch, loops, atol=1e-9)

    def test_interference_hurts(self):
        h = np.array([[1.0], [1.0]], dtype=complex)
        quiet = ul_rate_batch(h[None], 4.0 / CLEAN)[0]
        noisy = ul_rate_batch(h[None], 4.0 / 3.0)[0]
        assert noisy < quiet


class TestOutage:
    @staticmethod
    def link(cfg):
        return Link(cfg, chan.STREAM_UPLINK)

    def test_scalar_rayleigh_oracle(self):
        cfg = scalar_cfg(seed=31)
        est = ul_outage_prob(self.link(cfg), 1.0, 1.0, CLEAN, min_events=2000)
        assert est.mean == pytest.approx(1.0 - math.exp(-1.0), abs=0.02)

    def test_edge_cases(self):
        link = self.link(scalar_cfg())
        assert ul_outage_prob(link, 0.0, 1.0, CLEAN).mean == 0.0
        assert ul_outage_prob(link, 1.0, 0.0, CLEAN).mean == 1.0

    def test_fdsac_alpha_one_equals_clean_isac(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=33)
        a = ul_outage_prob(self.link(cfg), 5.0, 10.0, CLEAN, min_events=500)
        b = ul_outage_prob_fdsac(self.link(cfg), 5.0, 1.0, 10.0, min_events=500)
        assert a.mean == b.mean


class TestErgodic:
    def test_scalar_rayleigh_oracle(self):
        cfg = scalar_cfg(seed=35)
        est = ul_ecr(Link(cfg, chan.STREAM_UPLINK), 1.0, CLEAN)
        expect = math.e * float(exp1(1.0)) / math.log(2.0)
        assert est.mean == pytest.approx(expect, abs=3.5 * est.std_error)

    def test_asymptote_formula(self):
        from isacsim.downlink import ed_closed_form_iid
        got = ul_ecr_asymptote(100.0, 2, 2, 2.0)
        expect = (2.0 * math.log2(100.0) + ed_closed_form_iid(2, 2)
                  - 2.0 * math.log2(2.0))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_asymptote_tracks_ecr(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=37)
        _, rho2 = sensing_profile(RT, 2, 4, 10.0)
        mc = ul_ecr(Link(cfg, chan.STREAM_UPLINK), 1e4, rho2)
        line = ul_ecr_asymptote(1e4, 2, 2, rho2)
        assert mc.mean == pytest.approx(line, abs=0.1)

    def test_fdsac_zero_alpha(self):
        link = Link(scalar_cfg(), chan.STREAM_UPLINK)
        assert ul_ecr_fdsac(link, 0.0, 1.0).mean == 0.0


def einsum_logdet(h, scale):
    # reference log det: the einsum Gram, then the 2x2 determinant or slogdet
    gram = np.einsum("tik,tjk->tij", h, h.conj())
    n = h.shape[1]
    if n == 1:
        return np.log2(1.0 + scale * np.real(gram[:, 0, 0]))
    if n == 2:
        g11 = np.real(gram[:, 0, 0])
        g22 = np.real(gram[:, 1, 1])
        cross = np.abs(gram[:, 0, 1]) ** 2
        det = (1.0 + scale * g11) * (1.0 + scale * g22) - scale * scale * cross
        return np.log2(det)
    eye = np.eye(n, dtype=complex)
    return np.linalg.slogdet(eye[None, :, :] + scale * gram)[1] / math.log(2.0)


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


_, PAPER = sensing_profile(RT, 2, 4, 10.0)


class TestRateBytes:
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("rho", [0.0, 0.8])
    def test_matches_the_einsum_gram(self, n, k, rho):
        h = chan.sample_channel_block(matrix_sqrt_psd(exp_correlation(n, rho)), k,
                                      3, 0, chan.STREAM_UPLINK)[:2048]
        for p_c in np.logspace(-2.0, 6.0, 9):
            assert same_bytes(ul_rate_batch(h, p_c / PAPER),
                              einsum_logdet(h, p_c / PAPER)), p_c
            assert same_bytes(ul_rate_batch(h, p_c),
                              einsum_logdet(h, p_c)), p_c


class TestLayoutBytes:
    # a block is a trial-minor view (channel.sample_channel_block); every
    # kernel returns the bytes it returns on a C-contiguous copy of it
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.999])
    def test_kernels_ignore_the_layout(self, n, rho):
        for k in range(1, n + 1):
            h = chan.sample_channel_block(matrix_sqrt_psd(exp_correlation(n, rho)),
                                          k, 5, 0, chan.STREAM_UPLINK, 1024)
            copy = np.ascontiguousarray(h)
            for p_c in np.logspace(-2.0, 6.0, 9):
                assert same_bytes(ul_rate_batch(h, p_c),
                                  ul_rate_batch(copy, p_c)), (k, p_c)
                assert same_bytes(ul_rate_batch(h, p_c / PAPER),
                                  ul_rate_batch(copy, p_c / PAPER)), (k, p_c)


class TestExpansionProperties:
    @given(columns=st.integers(1, 2), rho=st.floats(0.0, 0.999999),
           snr_db=st.floats(-20.0, 60.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_two_by_two_matches_slogdet(self, columns, rho, snr_db, seed):
        # Relative 1e-12, plus the rounding of the determinant's cancellation:
        # (1 + s g11)(1 + s g22) - s^2 |g12|^2 loses kappa = (1 + s g11)(1 + s g22)
        # / det ulps, which nears 1e6 for a rank-1 Gram at 60 dB.
        rng = np.random.default_rng(seed)
        shape = (8, 2, columns)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = matrix_sqrt_psd(exp_correlation(2, rho)) @ (w / np.sqrt(2.0))
        scale = 10.0 ** (snr_db / 10.0)
        gram = h @ h.conj().transpose(0, 2, 1)
        expect = np.linalg.slogdet(np.eye(2) + scale * gram)[1] / math.log(2.0)
        diag = np.prod(1.0 + scale * np.real(np.diagonal(gram, axis1=1, axis2=2)),
                       axis=1)
        kappa = diag / 2.0 ** expect
        bound = 1e-12 * np.abs(expect) + 32 * np.finfo(float).eps * kappa / math.log(2.0)
        assert np.all(np.abs(ul_rate_batch(h, scale) - expect) <= bound)
