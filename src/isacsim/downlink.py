"""Downlink communication performance.

Sum rate of the dirty-paper-coded broadcast link via its dual multiple
access problem, outage probability and ergodic rate by Monte Carlo, the
high-SNR ergodic-rate asymptote, the bandwidth-split baseline, and the
mean transmit covariance with the downlink sensing noise it sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import mc
from .mc import MonteCarloEstimate
from .numerics import ModelError, nonnegative_power

__all__ = [
    "MeanInputCovariance",
    "MonteCarloEstimate",
    "dual_mac_power_alloc",
    "dl_sum_rate",
    "dl_sum_rate_batch",
    "mac_to_bc_covariance",
    "estimate_mean_covariance",
    "sensing_noise",
    "dl_outage_prob",
    "dl_outage_prob_fdsac",
    "dl_ecr",
    "ed_closed_form_iid",
    "dl_ecr_asymptote",
    "dl_ecr_fdsac",
]

EULER_GAMMA = float(np.euler_gamma)
LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
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
    # h is (..., M, 2) and p_c a power or an array of shape (...); returns
    # p1, a, b, gamma, each of shape (...).
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


def _newton_point(gram, q, p, support, a):
    # Newton step of the objective on each row's support S under sum d = 0,
    # with d_a = -(sum of the others) for user a, the largest gradient: the
    # reduced gradient is q_k - q_a and the reduced Hessian is
    # -(G_kl - G_ka - G_al + G_aa) with G = |Q|^2, shifted by 1e-12 q_a^2 on
    # the diagonal so that it is never singular; users off S keep d = 0.
    # The step is cut so p stays >= 0 (the blocking user lands on 0).
    # Returns the point and the step's gain ln det(I + E), E = diag(d) Q,
    # with det(I + E) - 1 summed from E's principal minors: each is accurate
    # to its own size, so the gain is resolved however small it is.
    n, k = q.shape
    rows, diag = np.arange(n), np.arange(k)
    g = np.abs(gram) ** 2
    g_a = g[rows, a]
    reduced = support.copy()
    reduced[rows, a] = False
    q_a = q[rows, a][:, None]
    hess = g - g_a[:, :, None] - g_a[:, None, :] + g[rows, a, a][:, None, None]
    kkt = np.where(reduced[:, :, None] & reduced[:, None, :], hess, 0.0)
    kkt[:, diag, diag] += np.where(reduced, 1e-12 * q_a ** 2, 1.0)
    rhs = np.where(reduced, q - q_a, 0.0)
    d = np.linalg.solve(kkt, rhs[..., None])[..., 0]
    d[rows, a] = -np.sum(d, axis=-1)
    with np.errstate(all="ignore"):
        ratio = np.where(d < 0.0, p / -d, np.inf)
    block = np.argmin(ratio, axis=-1)
    t = np.minimum(ratio[rows, block], 1.0)
    d *= t[:, None]
    new = np.maximum(p + d, 0.0)
    new[rows, block] = np.where(t < 1.0, 0.0, new[rows, block])
    # det(I + E) - 1 = sum over nonempty user sets S of prod_S d_k det(Q_SS),
    # with det(Q_SS) in closed form up to three users
    i, j = np.triu_indices(k, 1)
    terms = [d * q, d[:, i] * d[:, j] * (q[:, i] * q[:, j] - g[:, i, j])]
    i, j, l = np.array(list(itertools.combinations(range(k), 3))).T
    terms.append(d[:, i] * d[:, j] * d[:, l] * (
        q[:, i] * q[:, j] * q[:, l] - q[:, i] * g[:, j, l]
        - q[:, j] * g[:, i, l] - q[:, l] * g[:, i, j]
        + 2.0 * (gram[:, i, j] * gram[:, j, l] * gram[:, l, i]).real))
    for r in range(4, k + 1):
        sub = np.array(list(itertools.combinations(range(k), r)))
        terms.append(np.prod(d[:, sub], axis=-1)
                     * np.linalg.det(gram[:, sub[:, :, None], sub[:, None, :]]).real)
    return new, np.log1p(sum(np.sum(x, axis=-1) for x in terms))


def _alloc_pairwise(h, p_c):
    # Greedy two-user water-filling (the 2-coordinate ascent of A. Beck,
    # J. Optim. Theory Appl. 162(3), 2014) over a stack of channels.  Each
    # step moves power s from user b, the smallest gradient among users with
    # power, to user a, the largest, and solves that two-user problem
    # exactly: det A(s) / det A = 1 + s (Q_aa - Q_bb) - s^2 c with
    # c = Q_aa Q_bb - |Q_ab|^2 >= 0 is concave in s, so
    # s = min(p_b, (Q_aa - Q_bb) / 2c).  Where that step leaves p_b > 0 and
    # the support S = {k : p_k > 0} + {a} holds three or more users, the
    # trial also gets the Newton point on S (_newton_point) and takes it
    # where its gain is at least the pair step's, log(1 + s (Q_aa - Q_bb)
    # - s^2 c), so no step gains less than the pair step.  On two users the
    # pair step is already the optimum of the face; where it empties user b
    # the trial is still shedding users, and the Newton point seldom wins.
    # Trials leave the active set once their gap is at most _GAP_TOL; an
    # uncertified trial raises.  Each trial carries its own budget p_c (a
    # power, or an array of shape h.shape[:-2]) through the active set.
    k = h.shape[-1]
    flat = h.reshape((-1,) + h.shape[-2:])
    budget = np.broadcast_to(p_c, h.shape[:-2]).reshape(-1)
    powers = np.empty((flat.shape[0], k))
    active = np.arange(flat.shape[0])
    p = np.repeat(budget[:, None] / k, k, axis=1)
    for _ in range(_MAX_ITER):
        gram = _gram(flat, p)
        q = np.diagonal(gram, axis1=-2, axis2=-1).real
        gap = _fw_gap(q, p, budget)
        done = gap <= _GAP_TOL
        if np.any(done):
            powers[active[done]] = p[done]
            keep = ~done
            active, flat, p, q, gram, budget = (
                active[keep], flat[keep], p[keep], q[keep], gram[keep],
                budget[keep])
        if not active.size:
            return powers.reshape(h.shape[:-2] + (k,))
        rows = np.arange(active.size)
        a = np.argmax(q, axis=-1)
        b = np.argmin(np.where(p > 0.0, q, np.inf), axis=-1)
        q_a, q_b = q[rows, a], q[rows, b]
        curv = q_a * q_b - np.abs(gram[rows, a, b]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(curv > 0.0, (q_a - q_b) / (2.0 * curv), np.inf)
        support = p > 0.0
        support[rows, a] = True
        newton = np.flatnonzero((np.sum(support, axis=-1) > 2) & (s < p[rows, b]))
        s = np.minimum(s, p[rows, b])
        start = p[newton]
        p[rows, a] += s
        p[rows, b] -= s
        if newton.size:
            cand, gain = _newton_point(gram[newton], q[newton], start,
                                       support[newton], a[newton])
            take = gain >= np.log1p(s * (q_a - q_b) - s * s * curv)[newton]
            p[newton[take]] = cand[take]
    raise ArithmeticError(
        f"dual-MAC solve left {active.size} allocation(s) uncertified after "
        f"{_MAX_ITER} iterations (worst gap {np.max(gap):.3e} bits)")


def dual_mac_power_alloc(h_d, p_c) -> np.ndarray:
    """Sum-rate maximizing powers for the dual multiple-access problem.

    Maximizes log2 det(I_M + sum_k p_k h_k h_k^H) over p_k >= 0 with
    sum(p_k) = p_c.  ``h_d`` is one channel (M, K) or a stack (..., M, K),
    and ``p_c`` one budget or an array (...) of one per channel; returns
    the powers as an array (K,) or (..., K), each channel's bit for bit
    those of a call at its budget alone.  K = 1 and K = 2 are solved in
    closed form.  Larger K is solved for the whole stack at once
    by greedy two-user water-filling: each step moves power between the
    users with the largest and the smallest gradient by the exact two-user
    optimum, or, where it gains at least as much, takes the Newton step on
    the users with power, cut to keep every power nonnegative.  Every
    returned allocation is certified by its Frank-Wolfe gap to lie within
    1e-9 bits of the optimum; ArithmeticError is raised if any channel is
    not certified within 50,000 steps.
    """
    h = np.asarray(h_d, dtype=complex)
    p_c = nonnegative_power(p_c, "p_c")
    shape = h.shape[:-2] + h.shape[-1:]
    k = shape[-1]
    if not p_c.any():
        return np.zeros(shape)
    if k == 1:
        return np.broadcast_to(p_c[..., None], shape).copy()
    if k == 2:
        t = _two_user_terms(h, p_c)[0]
        return np.stack([t, p_c - t], axis=-1)
    return _alloc_pairwise(h, p_c)


def dl_sum_rate(h_d, p_c):
    """Maximal downlink sum rate (bits) over the dual-MAC powers.

    A float for one channel (M, K); an array (...) for a stack (..., M, K)
    at one budget p_c or one per channel (...), allocated in one
    ``dual_mac_power_alloc`` call.
    """
    h = np.asarray(h_d, dtype=complex)
    rate = _objective(h, dual_mac_power_alloc(h, p_c))
    return float(rate) if h.ndim == 2 else rate


def dl_sum_rate_batch(h_batch, p_c):
    """Vectorized dl_sum_rate over a batch of channels (T, M, K) at one
    power p_c or an array (T,) of one per trial; each trial's rate is bit
    for bit that of a call at its power alone."""
    h = np.asarray(h_batch, dtype=complex)
    k = h.shape[2]
    p_c = nonnegative_power(p_c, "p_c")
    if not p_c.any():
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

def mac_to_bc_covariance(h_d, powers, p_c):
    """Downlink input covariance realizing the dual-MAC sum rate of the
    powers (``dual_mac_power_alloc``) that share the budget p_c.

    The MAC-to-broadcast duality of Vishwanath, Jindal and Goldsmith (IEEE
    T-IT 49(10), 2003), over users in index order: user k's rank-one
    downlink covariance is s_k w_k w_k^H, where w_k = B_k^-1 h_k with the
    uplink-side interference B_k = I + sum_{l>k} p_l h_l h_l^H, and
    s_k = p_k (1 + h_k^H Sigma_k h_k) / h_k^H w_k with Sigma_k the sum of the
    covariances already placed.  Total trace equals the total dual power.

    The w_k come from rank-one (Sherman-Morrison) updates, last user first:
    w_k = h_k - sum_{l>k} p_l w_l (w_l^H h_k) / (1 + p_l h_l^H w_l), where
    every denominator is >= 1 since B_l is I plus a PSD matrix, and
    h_k^H Sigma_k h_k = sum_{j<k} s_j |w_j^H h_k|^2.  Each quadratic form is
    an elementwise sum over the M antennas of (..., ) planes, so the result
    takes no solve and does not depend on the memory layout of the channels.

    Leading axes are batch axes: channels (..., M, K) with powers (..., K)
    give covariances (..., M, M), each from its own recursion; one (M, K)
    channel gives one M x M matrix.
    """
    h = np.asarray(h_d, dtype=complex)
    m, k_users = h.shape[-2:]
    powers = np.asarray(powers, dtype=float)
    if powers.shape != h.shape[:-2] + (k_users,) or np.any(powers < -1e-12):
        raise ModelError("allocation does not match the channel")
    p = [powers[..., k] for k in range(k_users)]
    if np.any(sum(p) > p_c + 1e-9):
        raise ModelError("allocation exceeds its budget")

    cols = [[h[..., i, k] for i in range(m)] for k in range(k_users)]
    w, quad = [None] * k_users, [None] * k_users
    for k in reversed(range(k_users)):
        w_k = cols[k]
        for l in range(k + 1, k_users):
            c = p[l] * _inner(w[l], cols[k]) / (1.0 + p[l] * quad[l])
            w_k = [x - c * y for x, y in zip(w_k, w[l])]
        w[k], quad[k] = w_k, _inner(cols[k], w_k).real
    scale = []
    for k in range(k_users):
        a_k = 1.0
        for j in range(k):
            a_k = a_k + scale[j] * _abs2(_inner(w[j], cols[k]))
        keep = (p[k] > 0.0) & (quad[k] > 0.0)
        scale.append(np.divide(p[k] * a_k, quad[k], out=np.zeros(keep.shape),
                               where=keep))

    # (..., M, M) as a view of an (M, M, ...) buffer: each entry is a plane
    sigma = np.moveaxis(np.empty((m, m) + h.shape[:-2], dtype=complex),
                        (0, 1), (-2, -1))
    for i in range(m):
        sigma[..., i, i] = sum(s * _abs2(w_k[i]) for s, w_k in zip(scale, w))
        for j in range(i + 1, m):
            entry = sum(s * (w_k[i] * w_k[j].conj()) for s, w_k in zip(scale, w))
            sigma[..., i, j] = entry
            sigma[..., j, i] = entry.conj()
    return sigma


def _inner(x, y):
    # x^H y of two vectors given as lists of M planes, summed in antenna order
    total = x[0].conj() * y[0]
    for a, b in zip(x[1:], y[1:]):
        total = total + a.conj() * b
    return total


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


_sigma_cache: dict = {}


def estimate_mean_covariance(cfg: chan.SimConfig, p_c=None,
                             trials=10_000) -> MeanInputCovariance:
    """Average of the per-realization downlink covariance over channel draws.

    Each block of draws is allocated and mapped through the duality in one
    batched call.  Cached per (config, p_c, trials): the result feeds every
    downlink sensing-noise evaluation.  At p_c = 0 the covariance is 0 and
    no trial is drawn: trials_used = 0.
    """
    p_c = cfg.p_c if p_c is None else float(p_c)
    key = (cfg, p_c, int(trials))
    if key in _sigma_cache:
        return _sigma_cache[key]
    if trials < 1:
        raise ModelError("trials must be positive")

    m = cfg.M
    if p_c == 0.0:
        result = MeanInputCovariance(np.zeros((m, m), dtype=complex), 0, p_c)
        _sigma_cache[key] = result
        return result

    acc = np.zeros((m, m), dtype=complex)
    for h in mc.Link(cfg, chan.STREAM_COVARIANCE).blocks(trials):
        powers = dual_mac_power_alloc(h, p_c)
        acc += np.sum(mac_to_bc_covariance(h, powers, p_c), axis=0)
    sigma = acc / trials
    result = MeanInputCovariance(sigma_matrix=sigma, trials_used=trials, p_c=p_c)
    _sigma_cache[key] = result
    return result


def sensing_noise(cfg: chan.SimConfig, p_c) -> float:
    """Downlink sensing noise 1 + tr(R_T Sigma) at communication power p_c.

    Sigma is the mean input covariance over 10,000 channel draws: the
    sensing receiver sees the communication signal as Gaussian noise.
    """
    sigma = estimate_mean_covariance(cfg, p_c=p_c).sigma_matrix
    val = 1.0 + float(np.real(np.trace(cfg.r_target() @ sigma)))
    if val < 1.0 - 1e-9:
        raise ModelError("mean covariance must be PSD")
    return max(val, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def dl_outage_prob(link, r_target, p_c, min_events=200,
                   max_trials=10_000_000) -> MonteCarloEstimate:
    """Probability that the downlink sum rate falls below ``r_target``, over
    a downlink ``mc.Link(cfg, chan.STREAM_DOWNLINK)``: ``mc.outage`` counts
    blocks until ``min_events`` outages or ``max_trials`` trials."""
    return mc.outage(link, chan.STREAM_DOWNLINK, dl_sum_rate_batch, r_target,
                     p_c, 1.0, min_events, max_trials)


def dl_outage_prob_fdsac(link, r_target, alpha, p_c, min_events=200,
                         max_trials=10_000_000) -> MonteCarloEstimate:
    """Outage of the bandwidth-split baseline rate alpha * R_d(p_c / alpha)
    over a downlink ``mc.Link``."""
    return mc.outage(link, chan.STREAM_DOWNLINK, dl_sum_rate_batch, r_target,
                     p_c, alpha, min_events, max_trials)


def dl_ecr(link, p_c) -> MonteCarloEstimate:
    """Ergodic downlink sum rate over the draw set of a downlink
    ``mc.Link(cfg, chan.STREAM_DOWNLINK)``."""
    return mc.ergodic(link, chan.STREAM_DOWNLINK, dl_sum_rate_batch, p_c, 1.0)


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


def dl_ecr_fdsac(link, alpha, p_c) -> MonteCarloEstimate:
    """Ergodic rate of the bandwidth-split baseline with fraction ``alpha``
    over the draw set of a downlink ``mc.Link``.

    Per trial: alpha * dl_sum_rate(H, p_c / alpha); alpha = 0 gives 0 by
    the continuity convention.
    """
    return mc.ergodic(link, chan.STREAM_DOWNLINK, dl_sum_rate_batch, p_c, alpha)
