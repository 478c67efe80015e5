"""Downlink communication performance.

Sum rate of the dirty-paper-coded broadcast link via its dual multiple
access problem, outage probability and ergodic rate by Monte Carlo, the
high-SNR ergodic-rate asymptote, the bandwidth-split baseline, and the
mean transmit covariance that feeds the sensing-noise level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import mc
from .mc import MonteCarloEstimate
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


# ---------------------------------------------------------------------------
# Dual-MAC sum-rate optimization
# ---------------------------------------------------------------------------

# Shortfall from the optimum (bits) below which a K >= 3 allocation is
# returned, and the iteration cap after which an uncertified one raises.
_GAP_TOL = 1e-9
_MAX_ITER = 50_000


def _herm(x):
    return x.conj().swapaxes(-1, -2)


def _mac_matrix(h, powers):
    # A = I + sum_k p_k h_k h_k^H of a channel (M, K) or a stack (..., M, K)
    return np.eye(h.shape[-2]) + (h * powers[..., None, :]) @ _herm(h)


def _objective(h, powers):
    return np.linalg.slogdet(_mac_matrix(h, powers))[1] / LN2


def _two_user_terms(h, p_c):
    # det(I + p1 h1 h1^H + p2 h2 h2^H) = 1 + p1 a + p2 b + p1 p2 gamma is
    # quadratic in p1 along p1 + p2 = p_c, so the optimum is closed form.
    # h is (..., M, 2); returns p1, a, b, gamma, each of shape (...).
    h1, h2 = h[..., 0], h[..., 1]
    a = np.sum(np.abs(h1) ** 2, axis=-1)
    b = np.sum(np.abs(h2) ** 2, axis=-1)
    # gamma = a b - |h1^H h2|^2 summed as 2 x 2 minors (Binet-Cauchy): the
    # difference cancels for nearly parallel users, the sum does not
    gamma = sum((np.abs(h1[..., i] * h2[..., j] - h1[..., j] * h2[..., i]) ** 2
                 for i, j in itertools.combinations(range(h.shape[-2]), 2)),
                np.zeros_like(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (p_c * gamma + a - b) / (2.0 * gamma)
    t = np.where(gamma > 0.0, t, np.where(a >= b, p_c, 0.0))
    return np.clip(t, 0.0, p_c), a, b, gamma


def _gram(h, p):
    # Q = H^H A^-1 H from one batched solve.  Its diagonal q_k / ln 2 is the
    # gradient of the objective (bits per unit power of user k).
    return _herm(h) @ np.linalg.solve(_mac_matrix(h, p), h)


def _fw_gap(q, p, p_c):
    # Frank-Wolfe gap p_c max_k grad_k - sum_k p_k grad_k (bits): the objective
    # is concave, so it bounds the shortfall of p from the optimum.
    return (p_c * np.max(q, axis=-1) - np.sum(p * q, axis=-1)) / LN2


def _alloc_pairwise(h, p_c):
    # Greedy two-user water-filling (the 2-coordinate ascent of A. Beck,
    # J. Optim. Theory Appl. 162(3), 2014) over a stack of channels.  Each
    # step moves power s from user b, the smallest gradient among users with
    # power, to user a, the largest, and solves that two-user problem
    # exactly: det A(s) / det A = 1 + s (Q_aa - Q_bb) - s^2 c with
    # c = Q_aa Q_bb - |Q_ab|^2 >= 0 is concave in s, so
    # s = min(p_b, (Q_aa - Q_bb) / 2c).  Trials leave the active set once
    # their gap is at most _GAP_TOL; an uncertified trial raises.
    k = h.shape[-1]
    flat = h.reshape((-1,) + h.shape[-2:])
    powers = np.empty((flat.shape[0], k))
    active = np.arange(flat.shape[0])
    p = np.full(powers.shape, p_c / k)
    for _ in range(_MAX_ITER):
        gram = _gram(flat, p)
        q = np.diagonal(gram, axis1=-2, axis2=-1).real
        gap = _fw_gap(q, p, p_c)
        done = gap <= _GAP_TOL
        if np.any(done):
            powers[active[done]] = p[done]
            keep = ~done
            active, flat, p, q, gram = (active[keep], flat[keep], p[keep],
                                        q[keep], gram[keep])
        if not active.size:
            return powers.reshape(h.shape[:-2] + (k,))
        rows = np.arange(active.size)
        a = np.argmax(q, axis=-1)
        b = np.argmin(np.where(p > 0.0, q, np.inf), axis=-1)
        q_a, q_b = q[rows, a], q[rows, b]
        curv = q_a * q_b - np.abs(gram[rows, a, b]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(curv > 0.0, (q_a - q_b) / (2.0 * curv), np.inf)
        s = np.minimum(s, p[rows, b])
        p[rows, a] += s
        p[rows, b] -= s
    raise ArithmeticError(
        f"dual-MAC solve left {active.size} allocation(s) uncertified after "
        f"{_MAX_ITER} iterations (worst gap {np.max(gap):.3e} bits)")


def dual_mac_power_alloc(h_d, p_c) -> PowerAllocation:
    """Sum-rate maximizing powers for the dual multiple-access problem.

    Maximizes log2 det(I_M + sum_k p_k h_k h_k^H) over p_k >= 0 with
    sum(p_k) = p_c.  ``h_d`` is one channel (M, K) or a stack (..., M, K);
    the powers are (K,) or (..., K).  K = 1 and K = 2 are solved in closed
    form.  Larger K is solved for the whole stack at once by greedy
    two-user water-filling: each step moves power between the users with
    the largest and the smallest gradient by the exact two-user optimum.
    Every returned allocation is certified by its Frank-Wolfe gap to lie
    within 1e-9 bits of the optimum; ArithmeticError is raised if any
    channel is not certified within 50,000 steps.
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
        powers = _alloc_pairwise(h, p_c)
    return PowerAllocation(powers=powers, sum_budget=float(p_c))


def dl_sum_rate(h_d, p_c):
    """Maximal downlink sum rate (bits) over the dual-MAC powers.

    A float for one channel (M, K); an array (...) for a stack (..., M, K),
    allocated in one ``dual_mac_power_alloc`` call.
    """
    h = np.asarray(h_d, dtype=complex)
    rate = _objective(h, dual_mac_power_alloc(h, p_c).powers)
    return float(rate) if h.ndim == 2 else rate


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
    return dl_sum_rate(h, p_c)


# ---------------------------------------------------------------------------
# Duality transformation and the mean input covariance
# ---------------------------------------------------------------------------

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

    acc = np.zeros((m, m), dtype=complex)
    for h in mc.blocks(cfg.r_cu(), cfg.K, cfg.seed, chan.STREAM_COVARIANCE, trials):
        acc += np.sum(mac_to_bc_covariance(h, dual_mac_power_alloc(h, p_c)), axis=0)
    sigma = acc / trials
    result = MeanInputCovariance(sigma_matrix=sigma, trials_used=trials, p_c=p_c)
    _sigma_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def dl_outage_prob(cfg: chan.SimConfig, r_target, p_c, min_events=200,
                   max_trials=10_000_000) -> MonteCarloEstimate:
    """Probability that the downlink sum rate falls below ``r_target``.

    Adaptive trial policy: whole blocks are processed until at least
    ``min_events`` outages have been seen or ``max_trials`` is reached,
    whichever comes first.  The binomial standard error is reported.
    """
    return mc.outage(cfg, chan.STREAM_DOWNLINK, dl_sum_rate_batch, r_target,
                     p_c, 1.0, min_events, max_trials)


def dl_outage_prob_fdsac(cfg: chan.SimConfig, r_target, alpha, p_c,
                         min_events=200, max_trials=10_000_000) -> MonteCarloEstimate:
    """Outage of the bandwidth-split baseline rate alpha * R_d(p_c / alpha)."""
    return mc.outage(cfg, chan.STREAM_DOWNLINK, dl_sum_rate_batch, r_target,
                     p_c, alpha, min_events, max_trials)


def dl_ecr(cfg: chan.SimConfig, p_c, trials=None) -> MonteCarloEstimate:
    """Ergodic downlink sum rate."""
    return mc.ergodic(cfg, chan.STREAM_DOWNLINK, dl_sum_rate_batch, p_c, 1.0, trials)


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
    return mc.ergodic(cfg, chan.STREAM_DOWNLINK, dl_sum_rate_batch, p_c, alpha, trials)
