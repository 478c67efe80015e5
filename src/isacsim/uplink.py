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
from .sensing import Waveform, build_waveform, ul_sr

__all__ = [
    "SlotNoiseProfile",
    "slot_noise_powers",
    "sensing_profile",
    "ul_slot_rate",
    "ul_avg_rate",
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

    @classmethod
    def clean(cls, n_slots) -> "SlotNoiseProfile":
        return cls(rho2=np.ones(n_slots))


def slot_noise_powers(waveform, r_target) -> SlotNoiseProfile:
    """rho2_l = 1 + s_l^H R_T s_l for each waveform slot.

    The quadratic form is real and nonnegative for PSD R_T, so no absolute
    value is needed.
    """
    s = waveform.s_matrix if isinstance(waveform, Waveform) else np.asarray(waveform)
    rt = np.asarray(getattr(r_target, "matrix", r_target), dtype=complex)
    quad = np.real(np.einsum("ml,mn,nl->l", s.conj(), rt, s))
    return SlotNoiseProfile(rho2=1.0 + quad)


def sensing_profile(r_target, n_rx, n_slots, p_s) -> SlotNoiseProfile:
    """Slot noise produced by the sensing-rate-optimal uplink waveform."""
    _, sol = ul_sr(r_target, n_rx, n_slots, p_s)
    wf = build_waveform(r_target, sol, n_slots)
    return slot_noise_powers(wf, r_target)


def ul_slot_rate(h_u, p_c, rho2_l) -> float:
    """Sum rate of one slot: log2 det(I_N + (p_c / rho2_l) H_u H_u^H)."""
    if rho2_l < 1.0:
        raise ModelError("rho2 must be >= 1")
    h = np.asarray(h_u, dtype=complex)
    n = h.shape[0]
    a = np.eye(n, dtype=complex) + (p_c / rho2_l) * (h @ h.conj().T)
    sign, ld = np.linalg.slogdet(a)
    return ld / math.log(2.0)


def ul_avg_rate(h_u, p_c, profile: SlotNoiseProfile) -> float:
    """Arithmetic mean of the per-slot rates over the frame."""
    return float(np.mean([ul_slot_rate(h_u, p_c, r2) for r2 in profile.rho2]))


def _logdet_batch(h_batch, scale):
    """log2 det(I_N + scale * H H^H) over a batch (T, N, K)."""
    h = np.asarray(h_batch, dtype=complex)
    n = h.shape[1]
    gram = np.einsum("tik,tjk->tij", h, h.conj())
    if n == 1:
        return np.log2(1.0 + scale * np.real(gram[:, 0, 0]))
    if n == 2:
        g11 = np.real(gram[:, 0, 0])
        g22 = np.real(gram[:, 1, 1])
        cross = np.abs(gram[:, 0, 1]) ** 2
        det = (1.0 + scale * g11) * (1.0 + scale * g22) - scale * scale * cross
        return np.log2(det)
    eye = np.eye(n, dtype=complex)
    sign, ld = np.linalg.slogdet(eye[None, :, :] + scale * gram)
    return ld / math.log(2.0)


def ul_rate_batch(h_batch, p_c, profile: SlotNoiseProfile):
    """Vectorized slot-averaged uplink rate over a batch of channels."""
    if p_c == 0.0:
        return np.zeros(np.asarray(h_batch).shape[0])
    rho2_vals, counts = np.unique(profile.rho2, return_counts=True)
    total = 0.0
    for r2, cnt in zip(rho2_vals, counts):
        total = total + cnt * _logdet_batch(h_batch, p_c / r2)
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


def ul_ecr(cfg: chan.SimConfig, p_c, profile: SlotNoiseProfile,
           trials=None) -> MonteCarloEstimate:
    """Ergodic slot-averaged uplink sum rate."""
    return mc.ergodic(cfg, chan.STREAM_UPLINK,
                      lambda h, p: ul_rate_batch(h, p, profile), p_c, 1.0, trials)


def ul_ecr_asymptote(p_c, k_users, n_antennas, profile: SlotNoiseProfile) -> float:
    """High-SNR uplink ergodic-rate line.

    K log2 p_c + E(N, K) - (K/L) sum_l log2 rho2_l, where E is the i.i.d.
    Rayleigh constant evaluated at the uplink channel dimension N.
    """
    base = k_users * math.log2(p_c) + ed_closed_form_iid(n_antennas, k_users)
    penalty = (k_users / profile.rho2.size) * float(np.sum(np.log2(profile.rho2)))
    return base - penalty


def ul_ecr_fdsac(cfg: chan.SimConfig, alpha, p_c, trials=None) -> MonteCarloEstimate:
    """Ergodic rate of the bandwidth-split uplink baseline.

    Per trial: alpha * log2 det(I_N + (p_c / alpha) H_u H_u^H); the
    communication sub-band sees no radar interference.
    """
    return mc.ergodic(cfg, chan.STREAM_UPLINK, _logdet_batch, p_c, alpha, trials)
