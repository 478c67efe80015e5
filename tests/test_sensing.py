import numpy as np
import pytest

from isacsim import downlink as dl
from isacsim.channel import SimConfig, exp_correlation
from isacsim.numerics import ModelError
from isacsim.sensing import (
    build_waveform,
    dl_sr,
    fdsac_sr,
    sensing_mi,
    sr_highsnr,
    ul_sr,
)

RT = exp_correlation(2, 0.7)  # eigenvalues 1.7 and 0.3


def hand_rate(p_s, sigma2):
    # two-mode water-filling with equal noise, both modes active
    lam = np.array([1.7, 0.3])
    level = (p_s + sigma2 * np.sum(1.0 / lam)) / 2.0
    alloc = level - sigma2 / lam
    assert np.all(alloc > 0.0)
    return 0.5 * float(np.sum(np.log2(1.0 + lam * alloc / sigma2))), alloc


class TestSensingNoise:
    CFG = SimConfig(M=2, N=2, K=2, L=4, seed=5)

    def test_no_communication_power(self):
        assert dl.sensing_noise(self.CFG, 0.0) == 1.0

    def test_trace_formula(self):
        sigma = dl.estimate_mean_covariance(self.CFG, p_c=4.0, trials=10_000)
        expect = 1.0 + np.trace(RT @ sigma.sigma_matrix).real
        assert dl.sensing_noise(self.CFG, 4.0) == expect
        assert expect > 1.0


class TestSensingMI:
    def test_determinant_identity(self):
        # det(I_L + S^H R S) = det(I_M + R S S^H)
        rng = np.random.default_rng(13)
        s = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        small = np.eye(2) + RT @ (s @ s.conj().T) / 1.5
        _, ld = np.linalg.slogdet(small)
        assert sensing_mi(RT, 2, 1.5, s) == pytest.approx(
            2.0 * ld / np.log(2.0), abs=1e-9)

    def test_zero_waveform(self):
        assert sensing_mi(RT, 2, 1.0, np.zeros((2, 4))) == pytest.approx(0.0)


class TestSensingRate:
    def test_hand_solved_uplink_instance(self):
        rate, alloc = ul_sr(RT, 2, 4, 10.0)
        expect, hand_alloc = hand_rate(10.0, 1.0)
        assert rate == pytest.approx(expect, abs=1e-9)
        assert rate == pytest.approx(2.3137, abs=1e-3)
        assert np.allclose(alloc, hand_alloc, atol=1e-9)

    def test_dl_matches_ul_at_unit_noise(self):
        assert dl_sr(RT, 2, 4, 7.0, 1.0)[0] == pytest.approx(
            ul_sr(RT, 2, 4, 7.0)[0])

    def test_noise_hurts(self):
        assert dl_sr(RT, 2, 4, 5.0, 3.0)[0] < dl_sr(RT, 2, 4, 5.0, 1.0)[0]

    def test_beats_random_waveforms(self):
        best, _ = dl_sr(RT, 2, 4, 6.0, 2.0)
        rng = np.random.default_rng(19)
        for _ in range(200):
            s = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            s *= np.sqrt(6.0 / np.sum(np.abs(s) ** 2))
            assert best >= sensing_mi(RT, 2, 2.0, s) / 4.0 - 1e-9

    def test_rejects_singular_target(self):
        singular = np.ones((2, 2))
        with pytest.raises(ModelError):
            dl_sr(singular, 2, 4, 1.0, 1.0)

    def test_takes_a_correlation_matrix(self):
        # a plain real nested list gives the rate of the complex array
        assert ul_sr([[1.0, 0.7], [0.7, 1.0]], 2, 4, 10.0)[0] == ul_sr(
            RT, 2, 4, 10.0)[0]

    @pytest.mark.parametrize("rate", [
        lambda: dl_sr(RT, 2, 4, 1.0, 0.5),        # sigma2 < 1
        lambda: dl_sr(RT, 2, 4, -1.0, 1.0),       # p_s < 0
        lambda: ul_sr(RT, 2, 1, 10.0),            # L < M
        lambda: ul_sr(RT, 5, 4, 10.0),            # L < N
        lambda: fdsac_sr(RT, 2, 1, 10.0, 0.5),
        lambda: fdsac_sr(RT, 5, 4, 10.0, 0.5),
        lambda: fdsac_sr(RT, 2, 1, 10.0, 1.0),    # no sensing band
        lambda: sr_highsnr(RT, 2, 1, 10.0),
        lambda: sr_highsnr(RT, 5, 4, 10.0),
    ])
    def test_rejects_bad_inputs(self, rate):
        with pytest.raises(ModelError):
            rate()


class TestWaveform:
    def test_gram_realizes_allocation(self):
        _, alloc = ul_sr(RT, 2, 4, 10.0)
        wf = build_waveform(RT, alloc, 4)
        # gram must equal U diag(alloc) U^H in the eigenbasis of RT
        vecs_desc = np.linalg.eigh(RT)[1][:, ::-1].T
        target = sum(a * np.outer(v, v.conj())
                     for a, v in zip(alloc, vecs_desc))
        gram = wf @ wf.conj().T
        assert np.allclose(gram, target, atol=1e-9)

    def test_equal_slot_powers(self):
        _, alloc = ul_sr(RT, 2, 4, 10.0)
        wf = build_waveform(RT, alloc, 4)
        powers = np.sum(np.abs(wf) ** 2, axis=0)
        assert np.allclose(powers, 10.0 / 4.0, atol=1e-9)

    def test_waveform_achieves_rate(self):
        rate, alloc = ul_sr(RT, 2, 4, 10.0)
        wf = build_waveform(RT, alloc, 4)
        assert sensing_mi(RT, 2, 1.0, wf) / 4.0 == pytest.approx(rate, abs=1e-9)


class TestAsymptoteAndBaseline:
    def test_highsnr_close_at_40db(self):
        approx, all_active = sr_highsnr(RT, 2, 4, 1e4)
        exact, _ = ul_sr(RT, 2, 4, 1e4)
        assert all_active
        assert abs(approx - exact) < 0.05

    def test_flag_false_when_mode_inactive(self):
        skewed = np.diag([10.0, 1e-4])
        _, all_active = sr_highsnr(skewed, 2, 4, 0.001)
        assert not all_active

    def test_fdsac_limits(self):
        assert fdsac_sr(RT, 2, 4, 10.0, 1.0) == 0.0
        assert fdsac_sr(RT, 2, 4, 10.0, 0.0) == pytest.approx(
            ul_sr(RT, 2, 4, 10.0)[0])

    def test_fdsac_monotone_in_alpha(self):
        vals = [fdsac_sr(RT, 2, 4, 10.0, a) for a in (0.0, 0.25, 0.5, 0.75)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
