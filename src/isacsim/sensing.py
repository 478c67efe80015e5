"""Sensing-rate computation and waveform synthesis.

Downlink sensing sees the communication signal as extra Gaussian noise
(effective variance sigma2 >= 1); uplink sensing is clean (sigma2 = 1).
Both reduce to water-filling over the eigen-modes of the target
correlation matrix.  Rates are bits per time slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CorrelationMatrix
from .numerics import ModelError, WaterfillSolution, hermitian_eig, waterfill

__all__ = [
    "SensingScenario",
    "Waveform",
    "sigma2_effective",
    "sensing_mi",
    "dl_sr",
    "build_waveform",
    "ul_sr",
    "sr_highsnr",
    "fdsac_sr",
]


def _target_matrix(r_target):
    if isinstance(r_target, CorrelationMatrix):
        return r_target.matrix
    return np.asarray(r_target, dtype=complex)


@dataclass(frozen=True)
class SensingScenario:
    """Inputs of a sensing-rate evaluation.

    sigma2 is the effective per-sample noise power: 1 for uplink sensing,
    1 + tr(R_T Sigma) for downlink sensing under communication interference.
    """

    r_target: np.ndarray
    n_rx: int
    n_slots: int
    sigma2: float = 1.0
    p_s: float = 0.0

    def __post_init__(self):
        mat = _target_matrix(self.r_target)
        object.__setattr__(self, "r_target", mat)
        if self.sigma2 < 1.0:
            raise ModelError("sigma2 must be >= 1")
        if self.n_slots < mat.shape[0] or self.n_slots < self.n_rx:
            raise ModelError("waveform length must cover both arrays")
        if self.p_s < 0.0:
            raise ModelError("p_s must be nonnegative")


@dataclass(frozen=True)
class Waveform:
    """Radar waveform matrix, one column per time slot."""

    s_matrix: np.ndarray


def sigma2_effective(r_target, mean_cov) -> float:
    """Effective downlink sensing noise 1 + tr(R_T Sigma)."""
    rt = _target_matrix(r_target)
    sigma = getattr(mean_cov, "sigma_matrix", mean_cov)
    sigma = np.asarray(sigma, dtype=complex)
    val = 1.0 + float(np.real(np.trace(rt @ sigma)))
    if val < 1.0 - 1e-9:
        raise ModelError("mean covariance must be PSD")
    return max(val, 1.0)


def sensing_mi(scenario: SensingScenario, waveform) -> float:
    """Mutual information (bits over all slots) of one waveform.

    N * log2 det(I_L + sigma2^-1 S^H R_T S); equal to the I_M form by the
    determinant identity, which the tests exercise.
    """
    s = waveform.s_matrix if isinstance(waveform, Waveform) else np.asarray(waveform)
    rt = scenario.r_target
    ll = s.shape[1]
    inner = np.eye(ll, dtype=complex) + (s.conj().T @ rt @ s) / scenario.sigma2
    sign, ld = np.linalg.slogdet(inner)
    return scenario.n_rx * ld / np.log(2.0)


def dl_sr(scenario: SensingScenario):
    """Maximal downlink sensing rate and its eigen-mode allocation.

    (N/L) * sum_m log2(1 + lambda_m s_m / sigma2) with s_m water-filled
    over the eigenvalues of R_T at noise sigma2 and budget p_s.
    """
    es = hermitian_eig(scenario.r_target)
    if es.values[-1] <= 0.0:
        raise ModelError("target correlation must be strictly PD")
    noise = np.full(es.values.size, scenario.sigma2)
    sol = waterfill(es.values, noise, scenario.p_s)
    rate = (scenario.n_rx / scenario.n_slots) * float(
        np.sum(np.log2(1.0 + es.values * sol.allocation / scenario.sigma2)))
    return rate, sol


def build_waveform(r_target, alloc: WaterfillSolution, n_slots) -> Waveform:
    """Realize a waveform whose Gram matches an eigen-mode allocation.

    S = U sqrt(diag(alloc)) V with U the eigenbasis of R_T and V the first
    M rows of the unitary L-point DFT.  The DFT rows spread power evenly,
    so every slot carries trace(S S^H) / L.
    """
    rt = _target_matrix(r_target)
    m = rt.shape[0]
    if n_slots < m:
        raise ModelError("waveform length must be >= number of transmit antennas")
    es = hermitian_eig(rt)
    idx_m = np.arange(m)[:, None]
    idx_l = np.arange(n_slots)[None, :]
    v = np.exp(-2j * np.pi * idx_m * idx_l / n_slots) / np.sqrt(n_slots)
    s = (es.basis * np.sqrt(alloc.allocation)) @ v
    return Waveform(s_matrix=s)


def ul_sr(r_target, n_rx, n_slots, p_s):
    """Maximal uplink sensing rate: the downlink form at sigma2 = 1."""
    scenario = SensingScenario(r_target=_target_matrix(r_target), n_rx=n_rx,
                               n_slots=n_slots, sigma2=1.0, p_s=p_s)
    return dl_sr(scenario)


def sr_highsnr(r_target, n_rx, n_slots, p_s, sigma2=1.0):
    """High-budget sensing-rate approximation and its validity flag.

    (N M / L) * (log2 p_s + (1/M) sum_m log2(lambda_m / (M sigma2))).
    The flag is True when the water level actually covers every mode at
    this budget; callers should not trust the value otherwise.
    """
    es = hermitian_eig(_target_matrix(r_target))
    if es.values[-1] <= 0.0:
        raise ModelError("target correlation must be strictly PD")
    m = es.values.size
    lam = es.values
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
    if alpha == 1.0 or p_s == 0.0:
        return 0.0
    es = hermitian_eig(_target_matrix(r_target))
    if es.values[-1] <= 0.0:
        raise ModelError("target correlation must be strictly PD")
    noise = np.full(es.values.size, 1.0 - alpha)
    sol = waterfill(es.values, noise, p_s)
    return (n_rx * (1.0 - alpha) / n_slots) * float(
        np.sum(np.log2(1.0 + es.values * sol.allocation / (1.0 - alpha))))
