"""Uplink communication performance under radar-waveform interference.

MMSE-SIC sum rate, outage probability, ergodic rate, its high-SNR
asymptote, and the bandwidth-split baseline.  The users are decoded under
the radar echo, which raises the noise of slot l to 1 + s_l^H R_T s_l.  The
one waveform built here (``sensing.build_waveform``) spreads its power
evenly over the slots, so every slot carries the same
rho2 = 1 + tr(S^H R_T S) / L, and the ISAC rate is the interference-free
log det at power p_c / rho2.  One kernel, ``ul_rate_batch(h, p)``, computes
every uplink rate: the ISAC rate at p = p_c / rho2, and the FDSAC rate, on
a sub-band free of radar interference, at p = p_c / alpha.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel as chan
from . import mc
from .downlink import ed_closed_form_iid
from .mc import MonteCarloEstimate
from .numerics import ModelError, nonnegative_power
from .sensing import build_waveform, ul_sr

__all__ = [
    "sensing_profile",
    "ul_rate_batch",
    "ul_outage_prob",
    "ul_outage_prob_fdsac",
    "ul_ecr",
    "ul_ecr_asymptote",
    "ul_ecr_fdsac",
]


def sensing_profile(r_target, n_rx, n_slots, p_s) -> tuple[float, float]:
    """The maximal uplink sensing rate and the slot noise rho2 of the
    waveform that reaches it, from one solve.

    rho2 = 1 + tr(S^H R_T S) / L: the mean of the slots' 1 + s_l^H R_T s_l,
    which the evenly spread waveform makes equal.  The trace is real and
    nonnegative for PSD R_T.
    """
    sr, alloc = ul_sr(r_target, n_rx, n_slots, p_s)
    s = build_waveform(r_target, alloc, n_slots)
    rt = np.asarray(r_target, dtype=complex)
    return sr, 1.0 + float(np.real(np.vdot(s, rt @ s))) / n_slots


def ul_rate_batch(h_batch, p):
    """Vectorized uplink sum rate over a batch of channels (T, N, K): the
    interference-free log2 det(I_N + p H H^H) at power p, one power or an
    array (T,) of one per trial; each trial's rate is bit for bit that of
    a call at its power alone.

    For N = 2 the Gram entries are formed in real arithmetic, x * conj(y)
    as (xr*yr - xi*(-yi), xr*(-yi) + xi*yr) and |g12| by np.abs of the
    complex sum: these round exactly as the einsum Gram of the other
    branches, which numpy's ``x * y.conj()`` and ``np.hypot`` do not.
    """
    p = nonnegative_power(p)
    h = np.asarray(h_batch, dtype=complex)
    if not p.any():
        return np.zeros(h.shape[0])
    n = h.shape[1]
    if n == 2:
        xr, xi = h[:, 0].real, h[:, 0].imag
        yr, yi = h[:, 1].real, h[:, 1].imag
        g11 = _sum_columns(xr * xr - xi * -xi)
        g22 = _sum_columns(yr * yr - yi * -yi)
        g12 = np.empty(len(h), dtype=complex)
        g12.real = _sum_columns(xr * yr - xi * -yi)
        g12.imag = _sum_columns(xr * -yi + xi * yr)
        cross = np.abs(g12) ** 2
        return np.log2((1.0 + p * g11) * (1.0 + p * g22) - p * p * cross)
    gram = np.einsum("tik,tjk->tij", h, h.conj())
    if n == 1:
        return np.log2(1.0 + p * np.real(gram[:, 0, 0]))
    eye = np.eye(n, dtype=complex)
    return (np.linalg.slogdet(eye[None, :, :] + p[..., None, None] * gram)[1]
            / math.log(2.0))


def _sum_columns(terms):
    # the sum over k of a (T, K) array, in the order of k
    total = terms[:, 0]
    for k in range(1, terms.shape[1]):
        total = total + terms[:, k]
    return total


def _isac_power(p_c, rho2):
    # the power of the interference-free kernel that gives the ISAC rate
    if rho2 < 1.0:
        raise ModelError("slot noise must be >= 1")
    return p_c / rho2


def ul_outage_prob(link, r_target, p_c, rho2, min_events=200,
                   max_trials=10_000_000) -> MonteCarloEstimate:
    """Probability that the uplink ISAC sum rate at slot noise rho2 falls
    below target, over an uplink ``mc.Link(cfg, chan.STREAM_UPLINK)``."""
    return mc.outage(link, chan.STREAM_UPLINK, ul_rate_batch, r_target,
                     _isac_power(p_c, rho2), 1.0, min_events, max_trials)


def ul_outage_prob_fdsac(link, r_target, alpha, p_c, min_events=200,
                         max_trials=10_000_000) -> MonteCarloEstimate:
    """Outage of the bandwidth-split uplink baseline (interference-free,
    rho2 = 1) over an uplink ``mc.Link``."""
    return mc.outage(link, chan.STREAM_UPLINK, ul_rate_batch, r_target, p_c,
                     alpha, min_events, max_trials)


def ul_ecr(link, p_c, rho2) -> MonteCarloEstimate:
    """Ergodic uplink ISAC sum rate at slot noise rho2 over the draw set of
    an uplink ``mc.Link(cfg, chan.STREAM_UPLINK)``."""
    return mc.ergodic(link, chan.STREAM_UPLINK, ul_rate_batch,
                      _isac_power(p_c, rho2), 1.0)


def ul_ecr_asymptote(p_c, k_users, n_antennas, rho2) -> float:
    """High-SNR uplink ergodic-rate line.

    K log2 p_c + E(N, K) - K log2 rho2: the interference-free line at power
    p_c / rho2, where E is the i.i.d. Rayleigh constant evaluated at the
    uplink channel dimension N.
    """
    return (k_users * math.log2(p_c) + ed_closed_form_iid(n_antennas, k_users)
            - k_users * math.log2(rho2))


def ul_ecr_fdsac(link, alpha, p_c) -> MonteCarloEstimate:
    """Ergodic rate of the bandwidth-split uplink baseline over the draw set
    of an uplink ``mc.Link``.

    Per trial: alpha * log2 det(I_N + (p_c / alpha) H_u H_u^H); the
    communication sub-band sees no radar interference.
    """
    return mc.ergodic(link, chan.STREAM_UPLINK, ul_rate_batch, p_c, alpha)
