import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exp1

from isacsim import channel as chan
from isacsim import downlink as dl
from isacsim.channel import SimConfig
from isacsim.downlink import (
    dl_ecr,
    dl_ecr_asymptote,
    dl_ecr_fdsac,
    dl_outage_prob,
    dl_outage_prob_fdsac,
    dl_sum_rate,
    dl_sum_rate_batch,
    dual_mac_power_alloc,
    ed_closed_form_iid,
    estimate_mean_covariance,
    mac_to_bc_covariance,
)
from isacsim.mc import Link
from isacsim.numerics import ModelError, matrix_sqrt_psd

EULER_GAMMA = float(np.euler_gamma)


def scalar_cfg(seed=0):
    # single-antenna, single-user link: everything has a textbook answer
    return SimConfig(M=1, N=1, K=1, L=1, rho_target=0.0, rho_cu=0.0, seed=seed)


def _channels(m, k_users, rho, count, seed):
    # the first ``count`` downlink draws of one block, correlation rho at the BS
    root = matrix_sqrt_psd(chan.exp_correlation(m, rho))
    return chan.sample_channel_block(root, k_users, seed, 0,
                                     chan.STREAM_DOWNLINK)[:count]


def _gradient(h, powers):
    # gradient of log2 det(I + H diag(p) H^H) in p, through an explicit inverse
    a = np.eye(h.shape[-2]) + (h * powers[..., None, :]) @ h.conj().swapaxes(-1, -2)
    inv_h = np.linalg.inv(a) @ h
    return np.real(np.sum(h.conj() * inv_h, axis=-2)) / math.log(2.0)


def _per_user_covariances(h, powers):
    # duality recursion, reimplemented here as the oracle
    m, k_users = h.shape
    qs = []
    running = np.zeros((m, m), dtype=complex)
    for k in range(k_users):
        hk = h[:, k]
        b = np.eye(m, dtype=complex)
        for l in range(k + 1, k_users):
            b += powers[l] * np.outer(h[:, l], h[:, l].conj())
        a_k = 1.0 + float(np.real(hk.conj() @ running @ hk))
        bh = np.linalg.solve(b, hk)
        quad = float(np.real(hk.conj() @ bh))
        q = np.zeros((m, m), dtype=complex)
        if powers[k] > 0.0 and quad > 0.0:
            q = (powers[k] * a_k / quad) * np.outer(bh, bh.conj())
        qs.append(q)
        running += q
    return qs


def _dpc_rate(h, covariances):
    # independent evaluation: user k is encoded against users l < k
    total = 0.0
    running = np.zeros((h.shape[0], h.shape[0]), dtype=complex)
    for k, q in enumerate(covariances):
        hk = h[:, k]
        interf = 1.0 + float(np.real(hk.conj() @ running @ hk))
        signal = float(np.real(hk.conj() @ q @ hk))
        total += math.log2(1.0 + signal / interf)
        running += q
    return total


class TestDualMacAlloc:
    def test_symmetric_orthogonal(self):
        powers = dual_mac_power_alloc(np.eye(2, dtype=complex), 2.0)
        assert np.allclose(powers, [1.0, 1.0])

    def test_hand_solved_orthogonal_unequal(self):
        h = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        powers = dual_mac_power_alloc(h, 1.0)
        assert np.allclose(powers, [0.125, 0.875], atol=1e-9)
        assert dl_sum_rate(h, 1.0) == pytest.approx(math.log2(5.0625), abs=1e-9)

    def test_aligned_channels(self):
        h = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        powers = dual_mac_power_alloc(h, 1.0)
        assert np.allclose(powers, [0.0, 1.0])
        assert dl_sum_rate(h, 1.0) == pytest.approx(math.log2(5.0), abs=1e-9)

    def test_three_users_beats_random_allocations(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            h = (rng.standard_normal((3, 3))
                 + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0)
            p_c = 4.0
            best = dl_sum_rate(h, p_c)
            w = rng.dirichlet(np.ones(3), size=2000) * p_c
            for powers in w:
                m = np.eye(3, dtype=complex) + (h * powers) @ h.conj().T
                _, ld = np.linalg.slogdet(m)
                assert best >= ld / math.log(2.0) - 1e-7

    @pytest.mark.parametrize("m, k_users", [(3, 3), (4, 3), (4, 4)])
    def test_certified_gap_and_kkt(self, m, k_users):
        h = _channels(m, k_users, 0.8, 300, seed=11)
        h[:100, :, -1] *= 0.05  # a weak user, left without power at low p_c
        inactive_seen = 0
        for p_c in (0.3, 10.0, 1e4):
            p = dual_mac_power_alloc(h, p_c)
            assert np.all(p >= 0.0)
            assert np.allclose(p.sum(axis=-1), p_c, rtol=1e-12, atol=0.0)
            grad = _gradient(h, p)
            gap = p_c * grad.max(axis=-1) - np.sum(p * grad, axis=-1)
            assert np.max(gap) <= 1e-9 + 1e-12
            # KKT: users with power share one gradient, the others' is no larger
            lam = np.take_along_axis(grad, np.argmax(p, axis=-1)[:, None], axis=-1)
            active = p >= 1e-3 * p_c
            assert np.max(np.abs(grad - lam)[active]) * p_c <= 2e-6
            assert np.max((grad - lam)[~active], initial=0.0) * p_c <= 1e-8
            inactive_seen += int(np.count_nonzero(p < 1e-6 * p_c))
        assert inactive_seen > 0

    def test_beats_random_allocations_near_collinear(self):
        # nearly parallel users (rho_cu = 0.999) at 60 dB: A is ill-conditioned
        rng = np.random.default_rng(31)
        h = _channels(3, 3, 0.999, 20, seed=12)
        p_c = 1e6
        rates = dl_sum_rate(h, p_c)
        assert rates.shape == (20,)
        for hh, rate in zip(h, rates):
            allocs = rng.dirichlet(np.ones(3), size=10_000) * p_c
            mats = np.eye(3) + (hh * allocs[:, None, :]) @ hh.conj().T
            best = np.max(np.linalg.slogdet(mats)[1]) / math.log(2.0)
            assert rate >= best - 1e-9
            assert rate == dl_sum_rate(hh, p_c)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.999, 0.999999])
    def test_two_user_closed_form_matches_iterative(self, m, rho):
        h = _channels(m, 2, rho, 2000, seed=13)
        h1, h2 = h[..., 0], h[..., 1]
        a = np.sum(np.abs(h1) ** 2, axis=-1)
        b = np.sum(np.abs(h2) ** 2, axis=-1)
        i, j = np.triu_indices(m, 1)
        gamma = np.sum(np.abs(h1[:, i] * h2[:, j] - h1[:, j] * h2[:, i]) ** 2, axis=-1)

        def rate(p):
            # det(I + p1 h1 h1^H + p2 h2 h2^H) expanded, with a b - |h1^H h2|^2
            # as a sum of 2 x 2 minors: slogdet does not resolve 1e-9 bits at 60 dB
            return np.log2(1.0 + p[:, 0] * a + p[:, 1] * b + p[:, 0] * p[:, 1] * gamma)

        for p_db in (-20.0, 0.0, 30.0, 60.0):
            p_c = 10.0 ** (p_db / 10.0)
            certified = rate(dl._alloc_pairwise(h, p_c))  # within 1e-9 of the optimum
            for closed in (rate(dual_mac_power_alloc(h, p_c)),
                           dl_sum_rate_batch(h, p_c)):
                assert np.min(closed - certified) >= -1e-12
                assert np.max(closed - certified) <= 1e-9

    def test_uncertified_allocation_raises(self, monkeypatch):
        monkeypatch.setattr(dl, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="uncertified"):
            dual_mac_power_alloc(_channels(3, 3, 0.8, 4, seed=14), 10.0)

    def test_zero_power(self):
        assert dl_sum_rate(np.eye(2, dtype=complex), 0.0) == 0.0

    def test_rejects_negative_power(self):
        with pytest.raises(ModelError):
            dual_mac_power_alloc(np.eye(2, dtype=complex), -1.0)


class TestNewtonSteps:
    @pytest.mark.parametrize("p_c", [0.1, 10.0, 1e3, 1e6])
    def test_degenerate_rows(self, p_c):
        # an ordinary channel beside one with two identical users and one with
        # a silent user: without the diagonal shift their Newton systems are
        # singular
        h = np.repeat(_channels(3, 3, 0.8, 1, seed=21), 3, axis=0)
        h[1, :, 1] = h[1, :, 0]
        h[2, :, 2] = 0.0
        p = dual_mac_power_alloc(h, p_c)
        q = np.diagonal(dl._gram(h, p), axis1=-2, axis2=-1).real
        assert np.max(dl._fw_gap(q, p, p_c)) <= 1e-9
        for t in range(len(h)):
            alone = dual_mac_power_alloc(h[t], p_c)
            assert alone.tobytes() == p[t].tobytes()

    def test_no_step_gains_less_than_the_pair_step(self, monkeypatch):
        # the Newton point is taken only where it gains at least the exact
        # gain of the two-user step from the same powers
        seen = []
        gram = dl._gram

        def recording(h, p):
            seen.append(p[0].copy())
            return gram(h, p)

        monkeypatch.setattr(dl, "_gram", recording)
        steps = 0
        for p_c in (0.1, 10.0, 1e4):
            for h in _channels(4, 4, 0.8, 8, seed=23):
                seen.clear()
                dual_mac_power_alloc(h, p_c)
                for p, nxt in zip(seen, seen[1:]):
                    mat = gram(h, p)
                    q = np.diagonal(mat).real
                    a, b = np.argmax(q), np.argmin(np.where(p > 0.0, q, np.inf))
                    curv = q[a] * q[b] - abs(mat[a, b]) ** 2
                    s = min(p[b], (q[a] - q[b]) / (2.0 * curv))
                    pair = math.log1p(s * (q[a] - q[b]) - s * s * curv)
                    gain = (np.linalg.slogdet(dl._mac_matrix(h, nxt))[1]
                            - np.linalg.slogdet(dl._mac_matrix(h, p))[1])
                    assert gain >= pair - 1e-12
                    steps += 1
        assert steps > 50

    def test_k3_ecr_step_count(self, monkeypatch):
        # the 8 solves of the k3_ecr bench workload's seed-1234 downlink draws
        # (the ISAC and the alpha = 0.5 FDSAC powers at 0, 10, 20 and 30 dB)
        # took 265 steps with the pair step alone
        calls = []
        gram = dl._gram

        def counting(h, p):
            calls.append(len(h))
            return gram(h, p)

        monkeypatch.setattr(dl, "_gram", counting)
        cfg = SimConfig(M=3, N=3, K=3, L=4, trials=150, seed=1234)
        draws = list(Link(cfg, chan.STREAM_DOWNLINK).blocks(cfg.trials))
        for p_c in (1.0, 2.0, 10.0, 20.0, 100.0, 200.0, 1000.0, 2000.0):
            for h in draws:
                dual_mac_power_alloc(h, p_c)
        assert len(calls) <= 130


def _stack(m, k_users, rho, seed):
    # eight correlated channels (M, K) from a fresh generator
    rng = np.random.default_rng(seed)
    shape = (8, m, k_users)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return matrix_sqrt_psd(chan.exp_correlation(m, rho)) @ (w / np.sqrt(2.0))


class TestAllocationProperties:
    @given(dims=st.integers(1, 4).flatmap(
               lambda m: st.tuples(st.just(m), st.integers(1, m))),
           rho=st.floats(0.0, 0.999999), snr_db=st.floats(-20.0, 60.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_certified_on_the_simplex(self, dims, rho, snr_db, seed):
        m, k_users = dims
        h = _stack(m, k_users, rho, seed)
        p_c = 10.0 ** (snr_db / 10.0)
        p = dual_mac_power_alloc(h, p_c)
        assert np.all(p >= 0.0)
        assert np.allclose(p.sum(axis=-1), p_c, rtol=1e-12, atol=0.0)
        q = np.diagonal(dl._gram(h, p), axis1=-2, axis2=-1).real
        gap = dl._fw_gap(q, p, p_c)
        assert np.max(gap) <= 1e-9

    @given(dims=st.integers(1, 4).flatmap(
               lambda m: st.tuples(st.just(m), st.integers(1, min(m, 3)))),
           rho=st.floats(0.0, 0.999), snr_db=st.floats(-20.0, 60.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_duality_preserves_trace_and_rate(self, dims, rho, snr_db, seed):
        m, k_users = dims
        h = _stack(m, k_users, rho, seed)
        p_c = 10.0 ** (snr_db / 10.0)
        powers = dual_mac_power_alloc(h, p_c)
        sigma = mac_to_bc_covariance(h, powers, p_c)
        trace = np.trace(sigma, axis1=-2, axis2=-1)
        # rounding grows with the conditioning: 3e-10 relative and 1e-9 bits
        # at worst over 600 draws at rho = 0.999 and 60 dB
        assert np.allclose(trace.real, powers.sum(axis=-1), rtol=1e-8, atol=0.0)
        mac_rate = dl_sum_rate(h, p_c)
        for t in range(len(h)):
            qs = _per_user_covariances(h[t], powers[t])
            assert np.max(np.abs(sum(qs) - sigma[t])) <= 1e-8 * p_c
            assert _dpc_rate(h[t], qs) == pytest.approx(mac_rate[t], abs=1e-8)


class TestBatchRate:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(2)
        h = (rng.standard_normal((64, 2, 2))
             + 1j * rng.standard_normal((64, 2, 2))) / np.sqrt(2.0)
        batch = dl_sum_rate_batch(h, 3.0)
        single = [dl_sum_rate(h[i], 3.0) for i in range(64)]
        assert np.allclose(batch, single, atol=1e-9)

    def test_single_user(self):
        h = np.zeros((4, 2, 1), dtype=complex)
        h[:, 0, 0] = [1.0, 2.0, 0.5, 3.0]
        expect = np.log2(1.0 + 2.0 * np.abs(h[:, 0, 0]) ** 2)
        assert np.allclose(dl_sum_rate_batch(h, 2.0), expect)


class TestDuality:
    def test_single_user_beamforming(self):
        h = np.array([[1.0], [2.0]], dtype=complex)
        sigma = mac_to_bc_covariance(h, dual_mac_power_alloc(h, 3.0), 3.0)
        expect = 3.0 * np.outer(h[:, 0], h[:, 0].conj()) / 5.0
        assert np.allclose(sigma, expect, atol=1e-9)

    def test_decoupled_users(self):
        h = np.eye(2, dtype=complex)
        sigma = mac_to_bc_covariance(h, dual_mac_power_alloc(h, 2.0), 2.0)
        assert np.allclose(sigma, np.eye(2), atol=1e-9)

    def test_trace_and_rate_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            h = (rng.standard_normal((2, 2))
                 + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
            p_c = float(rng.uniform(0.5, 20.0))
            powers = dual_mac_power_alloc(h, p_c)
            sigma = mac_to_bc_covariance(h, powers, p_c)
            assert np.trace(sigma).real == pytest.approx(powers.sum(), abs=1e-6)
            assert np.min(np.linalg.eigvalsh(sigma)) > -1e-9
            qs = _per_user_covariances(h, powers)
            assert np.allclose(sum(qs), sigma, atol=1e-8)
            assert _dpc_rate(h, qs) == pytest.approx(
                dl_sum_rate(h, p_c), abs=1e-6)

    @pytest.mark.parametrize("k_users", [1, 2, 3, 4])
    def test_batched_matches_single_channel_calls(self, k_users):
        rng = np.random.default_rng(40 + k_users)
        m = max(2, k_users)
        h = (rng.standard_normal((6, m, k_users))
             + 1j * rng.standard_normal((6, m, k_users))) / np.sqrt(2.0)
        if k_users > 1:
            h[1, :, 1] = (0.7 - 0.2j) * h[1, :, 0]  # rank-deficient: gamma = 0
        alloc = dual_mac_power_alloc(h, 5.0)
        powers = alloc.copy()
        powers[2, 0] = 0.0  # a zero-power user
        sigma = mac_to_bc_covariance(h, powers, 5.0)
        assert alloc.shape == (6, k_users) and sigma.shape == (6, m, m)
        for t in range(6):
            single = dual_mac_power_alloc(h[t], 5.0)
            assert np.max(np.abs(single - alloc[t])) <= 1e-12
            one = mac_to_bc_covariance(h[t], powers[t], 5.0)
            oracle = sum(_per_user_covariances(h[t], powers[t]))
            assert np.max(np.abs(sigma[t] - one)) <= 1e-12
            assert np.max(np.abs(sigma[t] - oracle)) <= 1e-12

    def test_rejects_infeasible_alloc(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ModelError, match="budget"):
            mac_to_bc_covariance(h, [2.0, 2.0], 1.0)
        with pytest.raises(ModelError, match="match"):
            mac_to_bc_covariance(h, [1.0, 0.0, 0.0], 1.0)  # one power per user
        with pytest.raises(ModelError, match="match"):
            mac_to_bc_covariance(h, [1.0, -0.5], 1.0)


class TestLayoutBytes:
    # a block is a trial-minor view (channel.sample_channel_block); every
    # kernel returns the bytes it returns on a C-contiguous copy of it
    @pytest.mark.parametrize("m, k_users",
                             [(m, k) for m in range(1, 5) for k in range(1, m + 1)])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.999])
    def test_kernels_ignore_the_layout(self, m, k_users, rho):
        count = 1024 if k_users <= 2 else 128
        h = chan.sample_channel_block(matrix_sqrt_psd(chan.exp_correlation(m, rho)),
                                      k_users, 7, 0, chan.STREAM_COVARIANCE, count)
        copy = np.ascontiguousarray(h)
        assert h.strides[0] == h.itemsize
        for p_c in (1e-2, 1.0, 1e2, 1e6):
            assert dl_sum_rate_batch(h, p_c).tobytes() == \
                dl_sum_rate_batch(copy, p_c).tobytes()
            powers = dual_mac_power_alloc(h, p_c)
            assert powers.tobytes() == dual_mac_power_alloc(copy, p_c).tobytes()
            assert mac_to_bc_covariance(h, powers, p_c).tobytes() == \
                mac_to_bc_covariance(copy, powers, p_c).tobytes()


class TestMeanCovariance:
    def test_trace_equals_budget(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=3)
        est = estimate_mean_covariance(cfg, p_c=4.0, trials=2000)
        assert np.trace(est.sigma_matrix).real == pytest.approx(4.0, abs=1e-9)
        assert np.min(np.linalg.eigvalsh(est.sigma_matrix)) > -1e-9

    @pytest.mark.parametrize("m, k_users, block", [
        (2, 1, chan.BLOCK_SIZE), (2, 2, chan.BLOCK_SIZE),
        (3, 3, 64),  # the reference solves one trial at a time: keep the block small
    ])
    def test_matches_per_trial_loop(self, monkeypatch, m, k_users, block):
        monkeypatch.setattr(chan, "BLOCK_SIZE", block)
        monkeypatch.setattr(dl, "_sigma_cache", {})
        cfg = SimConfig(M=m, N=m, K=k_users, L=4, seed=5)
        trials = block + 37  # crosses a block boundary
        est = estimate_mean_covariance(cfg, p_c=4.0, trials=trials)
        blocks = [chan.sample_channel_block(matrix_sqrt_psd(cfg.r_cu()), k_users,
                                            cfg.seed, b, chan.STREAM_COVARIANCE)
                  for b in range(2)]
        acc = np.zeros((m, m), dtype=complex)
        for t in range(trials):
            h = blocks[t // block][t % block]
            acc += sum(_per_user_covariances(h, dual_mac_power_alloc(h, 4.0)))
        assert est.trials_used == trials
        assert np.max(np.abs(est.sigma_matrix - acc / trials)) <= 1e-12

    def test_draws_one_block_per_block_size(self, drawn):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=3)
        size, cov = chan.BLOCK_SIZE, chan.STREAM_COVARIANCE
        for trials, counts in ((1, [1]), (size, [size]),
                               (2 * size + 1, [size, size, 1])):
            drawn.clear()
            estimate_mean_covariance(cfg, p_c=4.0, trials=trials)
            assert drawn == [(b, cov, n) for b, n in enumerate(counts)]

    def test_zero_power_needs_no_trial(self, monkeypatch):
        monkeypatch.setattr(chan, "sample_channel_block", None)  # never drawn
        monkeypatch.setattr(dl, "_sigma_cache", {})
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=3)
        est = estimate_mean_covariance(cfg, p_c=0.0)
        assert est.trials_used == 0
        assert np.array_equal(est.sigma_matrix, np.zeros((2, 2)))

    def test_cached(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=3)
        a = estimate_mean_covariance(cfg, p_c=4.0, trials=2000)
        b = estimate_mean_covariance(cfg, p_c=4.0, trials=2000)
        assert a is b


class TestOutage:
    @staticmethod
    def link(cfg):
        return Link(cfg, chan.STREAM_DOWNLINK)

    def test_scalar_rayleigh_oracle(self):
        # P(log2(1 + g) < 1) = 1 - exp(-1) for g ~ Exp(1)
        cfg = scalar_cfg(seed=4)
        est = dl_outage_prob(self.link(cfg), 1.0, 1.0, min_events=2000)
        assert est.mean == pytest.approx(1.0 - math.exp(-1.0), abs=0.02)
        assert est.std_error > 0.0

    def test_edge_cases(self):
        link = self.link(scalar_cfg())
        assert dl_outage_prob(link, 0.0, 1.0).mean == 0.0
        assert dl_outage_prob(link, 1.0, 0.0).mean == 1.0

    def test_monotone_in_power(self):
        link = self.link(SimConfig(M=2, N=2, K=2, L=4, seed=6))
        lo = dl_outage_prob(link, 5.0, 10.0, min_events=500).mean
        hi = dl_outage_prob(link, 5.0, 100.0, min_events=500).mean
        assert hi < lo

    def test_fdsac_alpha_one_matches_isac(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=6)
        a = dl_outage_prob(self.link(cfg), 5.0, 10.0, min_events=500)
        b = dl_outage_prob_fdsac(self.link(cfg), 5.0, 1.0, 10.0, min_events=500)
        assert a.mean == b.mean


class TestErgodicRate:
    def test_scalar_rayleigh_oracle(self):
        # E[log2(1 + g)] = e * E1(1) / ln 2 for g ~ Exp(1)
        cfg = scalar_cfg(seed=8)
        est = dl_ecr(Link(cfg, chan.STREAM_DOWNLINK), 1.0)
        expect = math.e * float(exp1(1.0)) / math.log(2.0)
        assert est.mean == pytest.approx(expect, abs=3.5 * est.std_error)

    def test_fdsac_alpha_limits(self):
        cfg = SimConfig(M=2, N=2, K=2, L=4, seed=9, trials=5000)
        link = Link(cfg, chan.STREAM_DOWNLINK)
        assert dl_ecr_fdsac(link, 0.0, 10.0).mean == 0.0
        full = dl_ecr_fdsac(link, 1.0, 10.0)
        plain = dl_ecr(link, 10.0)
        assert full.mean == pytest.approx(plain.mean, abs=1e-12)

    def test_ed_closed_form_values(self):
        expect_22 = (1.0 - 2.0 * EULER_GAMMA) / math.log(2.0)
        expect_21 = (1.0 - EULER_GAMMA) / math.log(2.0)
        assert ed_closed_form_iid(2, 2) == pytest.approx(expect_22, abs=1e-12)
        assert ed_closed_form_iid(2, 1) == pytest.approx(expect_21, abs=1e-12)
        assert ed_closed_form_iid(2, 2) == pytest.approx(-0.2228, abs=5e-4)
        assert ed_closed_form_iid(2, 1) == pytest.approx(0.6100, abs=5e-4)

    def test_asymptote_formula(self):
        e_d = ed_closed_form_iid(2, 2)
        assert dl_ecr_asymptote(100.0, 2, e_d) == pytest.approx(
            2.0 * math.log2(50.0) + e_d)

    def test_rejects_bad_alpha(self):
        link = Link(scalar_cfg(), chan.STREAM_DOWNLINK)
        with pytest.raises(ModelError):
            dl_ecr_fdsac(link, 1.5, 1.0)
