"""Uplink communication performance under radar-waveform interference.

Per-slot MMSE-SIC sum rate, slot-averaged rate, outage probability,
ergodic rate, its high-SNR asymptote, and the bandwidth-split baseline.
The radar waveform raises the per-slot noise to rho2_l = 1 + s_l^H R_T s_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import mc
from .downlink import ed_closed_form_iid
from .mc import MonteCarloEstimate
from .numerics import ModelError
from .sensing import build_waveform, ul_sr

__all__ = [
    "SlotNoiseProfile",
    "slot_noise_powers",
    "sensing_profile",
    "ul_rate_batch",
    "ul_outage_prob",
    "ul_outage_prob_fdsac",
    "ul_ecr",
    "ul_ecr_asymptote",
    "ul_ecr_fdsac",
]


@dataclass(frozen=True)
class SlotNoiseProfile:
    """Per-slot interference-plus-noise powers rho2_l >= 1."""

    rho2: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rho2, dtype=float)
        if np.any(arr < 1.0 - 1e-9):
            raise ModelError("slot noise powers must be >= 1")
        object.__setattr__(self, "rho2", np.maximum(arr, 1.0))


def slot_noise_powers(s, r_target) -> SlotNoiseProfile:
    """rho2_l = 1 + s_l^H R_T s_l for each slot of a waveform S (M, L).

    The quadratic form is real and nonnegative for PSD R_T, so no absolute
    value is needed.
    """
    rt = np.asarray(r_target, dtype=complex)
    quad = np.real(np.einsum("ml,mn,nl->l", s.conj(), rt, s))
    return SlotNoiseProfile(rho2=1.0 + quad)


def sensing_profile(r_target, n_rx, n_slots, p_s) -> tuple[float, SlotNoiseProfile]:
    """The maximal uplink sensing rate and the slot noise of the waveform
    that reaches it, from one solve."""
    sr, alloc = ul_sr(r_target, n_rx, n_slots, p_s)
    wf = build_waveform(r_target, alloc, n_slots)
    return sr, slot_noise_powers(wf, r_target)


def _logdet_fn(h_batch):
    """The map scale -> log2 det(I_N + scale * H H^H) over a batch (T, N, K).

    The Gram matrix H H^H does not depend on the scale, so it is built
    once and every scale costs only the determinant.  For N = 2 its entries
    are formed in real arithmetic, x * conj(y) as (xr*yr - xi*(-yi),
    xr*(-yi) + xi*yr) and |g12| by np.abs of the complex sum: these round
    exactly as the einsum Gram of the other branches, which numpy's
    ``x * y.conj()`` and ``np.hypot`` do not.
    """
    h = np.asarray(h_batch, dtype=complex)
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
        return lambda scale: np.log2((1.0 + scale * g11) * (1.0 + scale * g22)
                                     - scale * scale * cross)
    gram = np.einsum("tik,tjk->tij", h, h.conj())
    if n == 1:
        return lambda scale: np.log2(1.0 + scale * np.real(gram[:, 0, 0]))
    eye = np.eye(n, dtype=complex)
    return lambda scale: (np.linalg.slogdet(eye[None, :, :] + scale * gram)[1]
                          / math.log(2.0))


def _sum_columns(terms):
    # the sum over k of a (T, K) array, in the order of k
    total = terms[:, 0]
    for k in range(1, terms.shape[1]):
        total = total + terms[:, k]
    return total


def _logdet_batch(h_batch, scale):
    """log2 det(I_N + scale * H H^H) over a batch (T, N, K)."""
    return _logdet_fn(h_batch)(scale)


def ul_rate_batch(h_batch, p_c, profile: SlotNoiseProfile):
    """Vectorized slot-averaged uplink rate over a batch of channels."""
    if p_c < 0.0:
        raise ModelError("p_c must be nonnegative")
    if p_c == 0.0:
        return np.zeros(np.asarray(h_batch).shape[0])
    logdet = _logdet_fn(h_batch)
    rho2_vals, counts = np.unique(profile.rho2, return_counts=True)
    total = 0.0
    for r2, cnt in zip(rho2_vals, counts):
        total = total + cnt * logdet(p_c / r2)
    return total / profile.rho2.size


def ul_outage_prob(cfg: chan.SimConfig, r_target, p_c, profile: SlotNoiseProfile,
                   min_events=200, max_trials=10_000_000) -> MonteCarloEstimate:
    """Probability that the slot-averaged uplink sum rate falls below target."""
    return mc.outage(cfg, chan.STREAM_UPLINK,
                     lambda h, p: ul_rate_batch(h, p, profile), r_target, p_c,
                     1.0, min_events, max_trials)


def ul_outage_prob_fdsac(cfg: chan.SimConfig, r_target, alpha, p_c,
                         min_events=200, max_trials=10_000_000) -> MonteCarloEstimate:
    """Outage of the bandwidth-split uplink baseline (interference-free)."""
    return mc.outage(cfg, chan.STREAM_UPLINK, _logdet_batch, r_target, p_c,
                     alpha, min_events, max_trials)


def ul_ecr(cfg: chan.SimConfig, p_c, profile: SlotNoiseProfile) -> MonteCarloEstimate:
    """Ergodic slot-averaged uplink sum rate."""
    return mc.ergodic(cfg, chan.STREAM_UPLINK,
                      lambda h, p: ul_rate_batch(h, p, profile), p_c, 1.0)


def ul_ecr_asymptote(p_c, k_users, n_antennas, profile: SlotNoiseProfile) -> float:
    """High-SNR uplink ergodic-rate line.

    K log2 p_c + E(N, K) - (K/L) sum_l log2 rho2_l, where E is the i.i.d.
    Rayleigh constant evaluated at the uplink channel dimension N.
    """
    base = k_users * math.log2(p_c) + ed_closed_form_iid(n_antennas, k_users)
    penalty = (k_users / profile.rho2.size) * float(np.sum(np.log2(profile.rho2)))
    return base - penalty


def ul_ecr_fdsac(cfg: chan.SimConfig, alpha, p_c) -> MonteCarloEstimate:
    """Ergodic rate of the bandwidth-split uplink baseline.

    Per trial: alpha * log2 det(I_N + (p_c / alpha) H_u H_u^H); the
    communication sub-band sees no radar interference.
    """
    return mc.ergodic(cfg, chan.STREAM_UPLINK, _logdet_batch, p_c, alpha)
