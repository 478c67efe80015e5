"""Sensing-rate computation and waveform synthesis.

Every sensing rate here is (N share / L) * sum_m log2(1 + lambda_m s_m /
noise), with s water-filled over the eigen-modes lambda_m of the target
correlation R_T: the mutual-information waveform design of Yang and Blum
(IEEE T-AES 43(1), 2007).  Downlink sensing sees the communication signal
as extra Gaussian noise (noise sigma2 >= 1), uplink sensing is clean
(sigma2 = 1), and the bandwidth-split baseline keeps a share 1 - alpha of
the band at noise 1 - alpha.  Rates are bits per time slot.
"""

from __future__ import annotations

import numpy as np

from .numerics import ModelError, hermitian_eig, waterfill

__all__ = [
    "sensing_mi",
    "dl_sr",
    "build_waveform",
    "ul_sr",
    "sr_highsnr",
    "fdsac_sr",
]


def _eigenvalues(r_target, n_rx, n_slots):
    # descending eigenvalues of a strictly PD R_T whose M and the N receive
    # antennas both fit in n_slots
    lam = hermitian_eig(r_target)[0]
    if n_slots < lam.size or n_slots < n_rx:
        raise ModelError("waveform length must cover both arrays")
    if lam[-1] <= 0.0:
        raise ModelError("target correlation must be strictly PD")
    return lam


def _rate(r_target, n_rx, n_slots, p_s, noise, share):
    # the water-filled sensing rate and its eigen-mode allocation
    if p_s < 0.0:
        raise ModelError("p_s must be nonnegative")
    lam = _eigenvalues(r_target, n_rx, n_slots)
    alloc = waterfill(lam, np.full(lam.size, noise), p_s)
    rate = (n_rx * share / n_slots) * float(
        np.sum(np.log2(1.0 + lam * alloc / noise)))
    return rate, alloc


def sensing_mi(r_target, n_rx, sigma2, s) -> float:
    """Mutual information (bits over all slots) of one waveform S (M, L).

    N * log2 det(I_L + sigma2^-1 S^H R_T S); equal to the I_M form by the
    determinant identity, which the tests exercise.
    """
    rt = np.asarray(r_target, dtype=complex)
    inner = np.eye(s.shape[1], dtype=complex) + (s.conj().T @ rt @ s) / sigma2
    return n_rx * np.linalg.slogdet(inner)[1] / np.log(2.0)


def dl_sr(r_target, n_rx, n_slots, p_s, sigma2):
    """Maximal downlink sensing rate and its eigen-mode allocation.

    (N/L) * sum_m log2(1 + lambda_m s_m / sigma2) with s_m water-filled
    over the eigenvalues of R_T at noise sigma2 >= 1 and budget p_s.
    """
    if sigma2 < 1.0:
        raise ModelError("sigma2 must be >= 1")
    return _rate(r_target, n_rx, n_slots, p_s, sigma2, 1.0)


def build_waveform(r_target, alloc, n_slots) -> np.ndarray:
    """Waveform S (M, n_slots) whose Gram matches an eigen-mode allocation.

    S = U sqrt(diag(alloc)) V with U the eigenbasis of R_T and V the first
    M rows of the unitary L-point DFT.  The DFT rows spread power evenly,
    so every slot carries trace(S S^H) / L.
    """
    lam, basis = hermitian_eig(r_target)
    m = lam.size
    if n_slots < m:
        raise ModelError("waveform length must be >= number of transmit antennas")
    idx_m = np.arange(m)[:, None]
    idx_l = np.arange(n_slots)[None, :]
    v = np.exp(-2j * np.pi * idx_m * idx_l / n_slots) / np.sqrt(n_slots)
    return (basis * np.sqrt(alloc)) @ v


def ul_sr(r_target, n_rx, n_slots, p_s):
    """Maximal uplink sensing rate: the downlink form at sigma2 = 1."""
    return dl_sr(r_target, n_rx, n_slots, p_s, 1.0)


def sr_highsnr(r_target, n_rx, n_slots, p_s, sigma2=1.0):
    """High-budget sensing-rate approximation and its validity flag.

    (N M / L) * (log2 p_s + (1/M) sum_m log2(lambda_m / (M sigma2))).
    The flag is True when the water level actually covers every mode at
    this budget; callers should not trust the value otherwise.
    """
    lam = _eigenvalues(r_target, n_rx, n_slots)
    m = lam.size
    value = (n_rx * m / n_slots) * (
        np.log2(p_s) + np.mean(np.log2(lam / (m * sigma2))))
    # all modes active iff 1/nu = (p_s + sigma2 sum 1/lam) / M exceeds the
    # largest inverse-gain floor sigma2 / lam_min
    level = (p_s + sigma2 * np.sum(1.0 / lam)) / m
    all_active = bool(level > sigma2 / lam[-1])
    return float(value), all_active


def fdsac_sr(r_target, n_rx, n_slots, p_s, alpha):
    """Sensing rate of the bandwidth-split baseline.

    The sensing sub-band keeps fraction (1 - alpha) of the bandwidth:
    (N (1-alpha) / L) * sum_m log2(1 + lambda_m s_m / (1-alpha)) with
    water-filling at noise (1 - alpha).  alpha = 1 gives 0 by convention.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    share = 1.0 - alpha
    # at alpha = 1 the zero share gives the rate 0, and unit noise keeps the
    # water-fill, with its input checks, defined
    return _rate(r_target, n_rx, n_slots, p_s, share or 1.0, share)[0]
