import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exp1

from isacsim import channel as chan
from isacsim.channel import SimConfig, exp_correlation
from isacsim.numerics import ModelError
from isacsim.uplink import (
    SlotNoiseProfile,
    sensing_profile,
    slot_noise_powers,
    ul_ecr,
    ul_ecr_asymptote,
    ul_ecr_fdsac,
    ul_outage_prob,
    ul_outage_prob_fdsac,
    ul_rate_batch,
)
from isacsim.uplink import _logdet_batch, _logdet_fn

RT = exp_correlation(2, 0.7).matrix


def clean(n_slots):
    # a frame without radar interference
    return SlotNoiseProfile(rho2=np.ones(n_slots))


def ul_slot_rate(h_u, p_c, rho2_l):
    # scalar oracle: log2 det(I_N + (p_c / rho2_l) H_u H_u^H) of one slot
    h = np.asarray(h_u, dtype=complex)
    a = np.eye(h.shape[0]) + (p_c / rho2_l) * (h @ h.conj().T)
    return np.linalg.slogdet(a)[1] / math.log(2.0)


def ul_avg_rate(h_u, p_c, profile):
    # scalar oracle: the per-slot rates averaged over the frame
    return float(np.mean([ul_slot_rate(h_u, p_c, r2) for r2 in profile.rho2]))


def scalar_cfg(seed=0):
    return SimConfig(M=1, N=1, K=1, L=1, rho_target=0.0, rho_cu=0.0, seed=seed)


class TestSlotNoise:
    def test_quadratic_form(self):
        s = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        prof = slot_noise_powers(s, np.eye(2))
        assert np.allclose(prof.rho2, [5.0, 2.0])

    def test_optimal_waveform_equal_slots(self):
        # the power-spreading waveform loads every slot identically
        _, prof = sensing_profile(RT, 2, 4, 10.0)
        assert np.allclose(prof.rho2, prof.rho2[0])
        # rho2 = 1 + (sum_m lambda_m a_m) / L with the hand-solved allocation
        lam = np.array([1.7, 0.3])
        level = (10.0 + np.sum(1.0 / lam)) / 2.0
        alloc = level - 1.0 / lam
        assert prof.rho2[0] == pytest.approx(1.0 + np.sum(lam * alloc) / 4.0,
                                             abs=1e-9)
        assert prof.rho2[0] == pytest.approx(3.98039216, abs=1e-6)

    def test_rejects_sub_unit_noise(self):
        with pytest.raises(ModelError):
            SlotNoiseProfile(rho2=np.array([0.5, 1.0]))


class TestRates:
    def test_single_antenna_slot_rate(self):
        h = np.array([[1.0 + 1.0j]])
        assert ul_slot_rate(h, 3.0, 2.0) == pytest.approx(math.log2(4.0))
        prof = SlotNoiseProfile(rho2=np.array([2.0]))
        assert ul_rate_batch(h[None], 3.0, prof)[0] == pytest.approx(math.log2(4.0))

    def test_avg_over_slots(self):
        h = np.array([[1.0], [0.5]], dtype=complex)
        prof = SlotNoiseProfile(rho2=np.array([1.0, 4.0]))
        expect = 0.5 * (ul_slot_rate(h, 2.0, 1.0) + ul_slot_rate(h, 2.0, 4.0))
        assert ul_rate_batch(h[None], 2.0, prof)[0] == pytest.approx(expect)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(23)
        h = (rng.standard_normal((32, 2, 2))
             + 1j * rng.standard_normal((32, 2, 2))) / np.sqrt(2.0)
        prof = SlotNoiseProfile(rho2=np.array([1.0, 2.0, 2.0, 3.0]))
        batch = ul_rate_batch(h, 5.0, prof)
        loops = [ul_avg_rate(h[i], 5.0, prof) for i in range(32)]
        assert np.allclose(batch, loops, atol=1e-9)

    def test_interference_hurts(self):
        h = np.array([[1.0], [1.0]], dtype=complex)
        quiet = ul_rate_batch(h[None], 4.0, clean(2))[0]
        noisy = ul_rate_batch(h[None], 4.0,
                              SlotNoiseProfile(rho2=np.array([3.0, 3.0])))[0]
        assert noisy < quiet


class TestOutage:
    def test_scalar_rayleigh_oracle(self):
        cfg = scalar_cfg(seed=31)
        est = ul_outage_prob(cfg, 1.0, 1.0, clean(1),
                             min_events=2000)
        assert est.mean == pytest.approx(1.0 - math.exp(-1.0), abs=0.02)

    def test_edge_cases(self):
        cfg = scalar_cfg()
        prof = clean(1)
        assert ul_outage_prob(cfg, 0.0, 1.0, prof).mean == 0.0
        assert ul_outage_prob(cfg, 1.0, 0.0, prof).mean == 1.0

    def test_fdsac_alpha_one_equals_clean_isac(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=33)
        a = ul_outage_prob(cfg, 5.0, 10.0, clean(4),
                           min_events=500)
        b = ul_outage_prob_fdsac(cfg, 5.0, 1.0, 10.0, min_events=500)
        assert a.mean == b.mean


class TestErgodic:
    def test_scalar_rayleigh_oracle(self):
        cfg = scalar_cfg(seed=35)
        est = ul_ecr(cfg, 1.0, clean(1))
        expect = math.e * float(exp1(1.0)) / math.log(2.0)
        assert est.mean == pytest.approx(expect, abs=3.5 * est.std_error)

    def test_asymptote_formula(self):
        from isacsim.downlink import ed_closed_form_iid
        prof = SlotNoiseProfile(rho2=np.array([2.0, 2.0, 2.0, 2.0]))
        got = ul_ecr_asymptote(100.0, 2, 2, prof)
        expect = (2.0 * math.log2(100.0) + ed_closed_form_iid(2, 2)
                  - 2.0 * math.log2(2.0))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_asymptote_tracks_ecr(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=37)
        _, prof = sensing_profile(RT, 2, 4, 10.0)
        mc = ul_ecr(cfg, 1e4, prof)
        line = ul_ecr_asymptote(1e4, 2, 2, prof)
        assert mc.mean == pytest.approx(line, abs=0.1)

    def test_fdsac_zero_alpha(self):
        cfg = scalar_cfg()
        assert ul_ecr_fdsac(cfg, 0.0, 1.0).mean == 0.0


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


def einsum_rate(h, p_c, profile):
    # reference slot-averaged rate: one einsum Gram per distinct rho2
    rho2_vals, counts = np.unique(profile.rho2, return_counts=True)
    total = 0.0
    for r2, cnt in zip(rho2_vals, counts):
        total = total + cnt * einsum_logdet(h, p_c / r2)
    return total / profile.rho2.size


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


_, PAPER = sensing_profile(RT, 2, 4, 10.0)
R2 = 3.98039216
BYTE_PROFILES = {
    "paper": PAPER,
    # two values one ULP apart, as the paper profile may hold
    "ulp_split": SlotNoiseProfile(rho2=np.array([R2, np.nextafter(R2, 4.0),
                                                 R2, np.nextafter(R2, 4.0)])),
    "mixed": SlotNoiseProfile(rho2=np.array([1.0, 2.0, 2.0, 3.0])),
}


class TestRateBytes:
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    @pytest.mark.parametrize("rho", [0.0, 0.8])
    def test_matches_the_einsum_gram(self, n, k, rho):
        h = chan.sample_channel_block(exp_correlation(n, rho), k, 3, 0,
                                      chan.STREAM_UPLINK)[:2048]
        for p_c in np.logspace(-2.0, 6.0, 9):
            for name, profile in BYTE_PROFILES.items():
                assert same_bytes(ul_rate_batch(h, p_c, profile),
                                  einsum_rate(h, p_c, profile)), (name, p_c)
            assert same_bytes(_logdet_batch(h, p_c), einsum_logdet(h, p_c)), p_c


class TestLayoutBytes:
    # a block is a trial-minor view (channel.sample_channel_block); every
    # kernel returns the bytes it returns on a C-contiguous copy of it
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.999])
    def test_kernels_ignore_the_layout(self, n, rho):
        for k in range(1, n + 1):
            h = chan.sample_channel_block(exp_correlation(n, rho), k, 5, 0,
                                          chan.STREAM_UPLINK, 1024)
            copy = np.ascontiguousarray(h)
            logdet, logdet_copy = _logdet_fn(h), _logdet_fn(copy)
            for p_c in np.logspace(-2.0, 6.0, 9):
                assert same_bytes(logdet(p_c), logdet_copy(p_c)), (k, p_c)
                assert same_bytes(ul_rate_batch(h, p_c, PAPER),
                                  ul_rate_batch(copy, p_c, PAPER)), (k, p_c)


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
        h = exp_correlation(2, rho).root @ (w / np.sqrt(2.0))
        scale = 10.0 ** (snr_db / 10.0)
        gram = h @ h.conj().transpose(0, 2, 1)
        expect = np.linalg.slogdet(np.eye(2) + scale * gram)[1] / math.log(2.0)
        diag = np.prod(1.0 + scale * np.real(np.diagonal(gram, axis1=1, axis2=2)),
                       axis=1)
        kappa = diag / 2.0 ** expect
        bound = 1e-12 * np.abs(expect) + 32 * np.finfo(float).eps * kappa / math.log(2.0)
        assert np.all(np.abs(_logdet_batch(h, scale) - expect) <= bound)
