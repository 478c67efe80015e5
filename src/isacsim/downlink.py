"""Downlink communication performance.

Sum rate of the dirty-paper-coded broadcast link via its dual multiple
access problem, outage probability and ergodic rate by Monte Carlo, the
high-SNR ergodic-rate asymptote, the bandwidth-split baseline, and the
mean transmit covariance that feeds the sensing-noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .numerics import ModelError

__all__ = [
    "PowerAllocation",
    "MeanInputCovariance",
    "MonteCarloEstimate",
    "dual_mac_power_alloc",
    "dl_sum_rate",
    "dl_sum_rate_batch",
    "mac_to_bc_covariance",
    "estimate_mean_covariance",
    "dl_outage_prob",
    "dl_outage_prob_fdsac",
    "dl_ecr",
    "ed_closed_form_iid",
    "dl_ecr_asymptote",
    "dl_ecr_fdsac",
]

EULER_GAMMA = float(np.euler_gamma)
LN2 = math.log(2.0)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user powers of the dual multiple-access problem: (K,) or (..., K)."""

    powers: np.ndarray
    sum_budget: float


@dataclass(frozen=True)
class MeanInputCovariance:
    """Average downlink input covariance over channel realizations."""

    sigma_matrix: np.ndarray
    trials_used: int
    p_c: float


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Return contract of every stochastic operation."""

    mean: float
    std_error: float
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# Dual-MAC sum-rate optimization
# ---------------------------------------------------------------------------

def _objective(h, powers):
    m = h.shape[0]
    a = np.eye(m, dtype=complex) + (h * powers) @ h.conj().T
    sign, ld = np.linalg.slogdet(a)
    return ld / LN2


def _two_user_terms(h, p_c):
    # det(I + p1 h1 h1^H + p2 h2 h2^H) = 1 + p1 a + p2 b + p1 p2 gamma is
    # quadratic in p1 along p1 + p2 = p_c, so the optimum is closed form.
    # h is (..., M, 2); returns p1, a, b, gamma, each of shape (...).
    h1, h2 = h[..., 0], h[..., 1]
    a = np.sum(np.abs(h1) ** 2, axis=-1)
    b = np.sum(np.abs(h2) ** 2, axis=-1)
    cross = np.abs(np.sum(h1.conj() * h2, axis=-1)) ** 2
    gamma = np.maximum(a * b - cross, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (p_c * gamma + a - b) / (2.0 * gamma)
    t = np.where(gamma > 0.0, t, np.where(a >= b, p_c, 0.0))
    return np.clip(t, 0.0, p_c), a, b, gamma


def _project_simplex(v, budget):
    # Euclidean projection onto {p >= 0, sum(p) = budget}
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - budget
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _alloc_pgd(h, p_c, tol=1e-10, max_iter=500):
    # Projected gradient ascent on the power simplex with backtracking.
    # The objective is concave, so this meets the 1e-7 optimality contract.
    k = h.shape[1]
    m = h.shape[0]
    p = np.full(k, p_c / k)
    obj = _objective(h, p)
    step = max(p_c, 1.0)
    for _ in range(max_iter):
        a = np.eye(m, dtype=complex) + (h * p) @ h.conj().T
        sol = np.linalg.solve(a, h)
        grad = np.real(np.sum(h.conj() * sol, axis=0)) / LN2
        improved = False
        while step > 1e-16:
            cand = _project_simplex(p + step * grad, p_c)
            cand_obj = _objective(h, cand)
            if cand_obj > obj:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        gain = cand_obj - obj
        p, obj = cand, cand_obj
        step *= 2.0
        if gain < tol:
            break
    return p


def dual_mac_power_alloc(h_d, p_c) -> PowerAllocation:
    """Sum-rate maximizing powers for the dual multiple-access problem.

    Maximizes log2 det(I_M + sum_k p_k h_k h_k^H) over p_k >= 0 with
    sum(p_k) <= p_c.  ``h_d`` is one channel (M, K) or a stack (..., M, K);
    the powers are (K,) or (..., K).  K = 1 and K = 2 are solved in closed
    form over the whole stack; larger K uses projected gradient ascent on
    the simplex, one channel at a time.
    """
    h = np.asarray(h_d, dtype=complex)
    if p_c < 0.0:
        raise ModelError("p_c must be nonnegative")
    shape = h.shape[:-2] + h.shape[-1:]
    k = shape[-1]
    if p_c == 0.0:
        powers = np.zeros(shape)
    elif k == 1:
        powers = np.full(shape, float(p_c))
    elif k == 2:
        t = _two_user_terms(h, p_c)[0]
        powers = np.stack([t, p_c - t], axis=-1)
    else:
        flat = h.reshape((-1,) + h.shape[-2:])
        powers = np.array([_alloc_pgd(x, p_c) for x in flat]).reshape(shape)
    return PowerAllocation(powers=powers, sum_budget=float(p_c))


def dl_sum_rate(h_d, p_c) -> float:
    """Maximal downlink sum rate (bits) for one channel realization."""
    alloc = dual_mac_power_alloc(h_d, p_c)
    return _objective(np.asarray(h_d, dtype=complex), alloc.powers)


def dl_sum_rate_batch(h_batch, p_c):
    """Vectorized dl_sum_rate over a batch of channels (T, M, K)."""
    h = np.asarray(h_batch, dtype=complex)
    k = h.shape[2]
    if p_c == 0.0:
        return np.zeros(h.shape[0])
    if k == 1:
        g = np.sum(np.abs(h[:, :, 0]) ** 2, axis=1)
        return np.log2(1.0 + p_c * g)
    if k == 2:
        t, a, b, gamma = _two_user_terms(h, p_c)
        return np.log2(1.0 + t * a + (p_c - t) * b + t * (p_c - t) * gamma)
    return np.array([dl_sum_rate(h[i], p_c) for i in range(h.shape[0])])


# ---------------------------------------------------------------------------
# Duality transformation and the mean input covariance
# ---------------------------------------------------------------------------

def _herm(x):
    return x.conj().swapaxes(-1, -2)


def mac_to_bc_covariance(h_d, alloc: PowerAllocation):
    """Downlink input covariance realizing the dual-MAC sum rate.

    Standard MAC-to-broadcast duality recursion over users in index order:
    user k's rank-one downlink covariance is built from the dual powers
    with interference B_k = I + sum_{l>k} p_l h_l h_l^H on the uplink side
    and the already-placed covariances on the downlink side.  Total trace
    equals the total dual power.

    Leading axes are batch axes: channels (..., M, K) with powers (..., K)
    give covariances (..., M, M), each from its own recursion; one (M, K)
    channel gives one M x M matrix.
    """
    h = np.asarray(h_d, dtype=complex)
    m, k_users = h.shape[-2:]
    powers = np.asarray(alloc.powers, dtype=float)
    if powers.shape != h.shape[:-2] + (k_users,) or np.any(powers < -1e-12):
        raise ModelError("allocation does not match the channel")
    if np.any(powers.sum(axis=-1) > alloc.sum_budget + 1e-9):
        raise ModelError("allocation exceeds its budget")

    sigma = np.zeros(h.shape[:-1] + (m,), dtype=complex)
    for k in range(k_users):
        hk, rest = h[..., k:k + 1], h[..., k + 1:]
        b = np.eye(m) + (rest * powers[..., None, k + 1:]) @ _herm(rest)
        b_inv_h = np.linalg.solve(b, hk)
        a_k = 1.0 + np.real(_herm(hk) @ sigma @ hk)
        quad = np.real(_herm(hk) @ b_inv_h)
        p_k = powers[..., k, None, None]
        keep = (p_k > 0.0) & (quad > 0.0)
        scale = np.where(keep, p_k * a_k / np.where(keep, quad, 1.0), 0.0)
        sigma += scale * (b_inv_h @ _herm(b_inv_h))
    return 0.5 * (sigma + _herm(sigma))


_sigma_cache: dict = {}


def estimate_mean_covariance(cfg: chan.SimConfig, p_c=None,
                             trials=10_000) -> MeanInputCovariance:
    """Average of the per-realization downlink covariance over channel draws.

    Each block of draws is allocated and mapped through the duality in one
    batched call.  Cached per (config, p_c, trials): the result feeds every
    downlink sensing-rate evaluation.
    """
    p_c = cfg.p_c if p_c is None else float(p_c)
    key = (cfg, p_c, int(trials))
    if key in _sigma_cache:
        return _sigma_cache[key]
    if trials < 1:
        raise ModelError("trials must be positive")

    m = cfg.M
    if p_c == 0.0:
        result = MeanInputCovariance(np.zeros((m, m), dtype=complex), trials, p_c)
        _sigma_cache[key] = result
        return result

    corr = cfg.r_cu()
    acc = np.zeros((m, m), dtype=complex)
    done = 0
    block = 0
    while done < trials:
        h_block = chan.sample_channel_block(corr, cfg.K, cfg.seed, block,
                                            chan.STREAM_COVARIANCE)
        take = min(chan.BLOCK_SIZE, trials - done)
        h = h_block[:take]
        acc += np.sum(mac_to_bc_covariance(h, dual_mac_power_alloc(h, p_c)), axis=0)
        done += take
        block += 1
    sigma = acc / trials
    result = MeanInputCovariance(sigma_matrix=sigma, trials_used=trials, p_c=p_c)
    _sigma_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------

def _dl_blocks(cfg, trials):
    """Yield (rates-ready channel blocks, count) covering trial indices 0..trials."""
    corr = cfg.r_cu()
    done = 0
    block = 0
    while done < trials:
        h_block = chan.sample_channel_block(corr, cfg.K, cfg.seed, block,
                                            chan.STREAM_DOWNLINK)
        take = min(chan.BLOCK_SIZE, trials - done)
        yield h_block[:take], take
        done += take
        block += 1


def _adaptive_outage(cfg, rate_fn, r_target, min_events, max_trials):
    events = 0
    done = 0
    for h_block, take in _dl_blocks(cfg, max_trials):
        rates = rate_fn(h_block)
        events += int(np.count_nonzero(rates < r_target))
        done += take
        if events >= min_events:
            break
    p = events / done
    se = math.sqrt(max(p * (1.0 - p), 0.0) / done)
    return MonteCarloEstimate(mean=p, std_error=se, trials=done, seed=cfg.seed)


def dl_outage_prob(cfg: chan.SimConfig, r_target, p_c, min_events=200,
                   max_trials=10_000_000) -> MonteCarloEstimate:
    """Probability that the downlink sum rate falls below ``r_target``.

    Adaptive trial policy: whole blocks are processed until at least
    ``min_events`` outages have been seen or ``max_trials`` is reached,
    whichever comes first.  The binomial standard error is reported.
    """
    if r_target < 0.0:
        raise ModelError("target rate must be nonnegative")
    if r_target == 0.0:
        return MonteCarloEstimate(0.0, 0.0, cfg.trials, cfg.seed)
    if p_c == 0.0:
        return MonteCarloEstimate(1.0, 0.0, cfg.trials, cfg.seed)
    return _adaptive_outage(cfg, lambda h: dl_sum_rate_batch(h, p_c),
                            r_target, min_events, max_trials)


def dl_outage_prob_fdsac(cfg: chan.SimConfig, r_target, alpha, p_c,
                         min_events=200, max_trials=10_000_000) -> MonteCarloEstimate:
    """Outage of the bandwidth-split baseline rate alpha * R_d(p_c / alpha)."""
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    if r_target == 0.0:
        return MonteCarloEstimate(0.0, 0.0, cfg.trials, cfg.seed)
    if alpha == 0.0 or p_c == 0.0:
        return MonteCarloEstimate(1.0, 0.0, cfg.trials, cfg.seed)
    return _adaptive_outage(
        cfg, lambda h: alpha * dl_sum_rate_batch(h, p_c / alpha),
        r_target, min_events, max_trials)


def _mc_from_rates(cfg, trials, rate_fn):
    total = 0.0
    total_sq = 0.0
    done = 0
    for h_block, take in _dl_blocks(cfg, trials):
        rates = rate_fn(h_block)
        total += float(np.sum(rates))
        total_sq += float(np.sum(rates * rates))
        done += take
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    se = math.sqrt(var / done)
    return MonteCarloEstimate(mean=mean, std_error=se, trials=done, seed=cfg.seed)


def dl_ecr(cfg: chan.SimConfig, p_c, trials=None) -> MonteCarloEstimate:
    """Ergodic downlink sum rate."""
    trials = cfg.trials if trials is None else int(trials)
    if p_c == 0.0:
        return MonteCarloEstimate(0.0, 0.0, trials, cfg.seed)
    return _mc_from_rates(cfg, trials, lambda h: dl_sum_rate_batch(h, p_c))


def ed_closed_form_iid(m_antennas, k_users) -> float:
    """High-SNR ergodic-rate constant for i.i.d. Rayleigh channels.

    (1/ln 2) * sum_{t=0}^{K-1} (sum_{a=1}^{M-t-1} 1/a - EulerGamma);
    empty inner sums are zero.  Requires M >= K >= 1.
    """
    if k_users < 1 or m_antennas < k_users:
        raise ModelError("need M >= K >= 1")
    total = 0.0
    for t in range(k_users):
        total += sum(1.0 / a for a in range(1, m_antennas - t)) - EULER_GAMMA
    return total / LN2


def dl_ecr_asymptote(p_c, k_users, e_d) -> float:
    """High-SNR ergodic-rate line: K * log2(p_c / K) + E_d."""
    return k_users * math.log2(p_c / k_users) + e_d


def dl_ecr_fdsac(cfg: chan.SimConfig, alpha, p_c, trials=None) -> MonteCarloEstimate:
    """Ergodic rate of the bandwidth-split baseline with fraction ``alpha``.

    Per trial: alpha * dl_sum_rate(H, p_c / alpha); alpha = 0 gives 0 by
    the continuity convention.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    trials = cfg.trials if trials is None else int(trials)
    if alpha == 0.0 or p_c == 0.0:
        return MonteCarloEstimate(0.0, 0.0, trials, cfg.seed)
    return _mc_from_rates(
        cfg, trials, lambda h: alpha * dl_sum_rate_batch(h, p_c / alpha))
