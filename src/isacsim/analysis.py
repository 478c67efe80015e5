"""Slope and diversity-order estimation from simulated curves."""

from __future__ import annotations

import warnings

import numpy as np

from .numerics import ModelError

__all__ = ["fit_highsnr_slope", "fit_diversity"]


def _least_squares(x, y):
    # (slope, r_squared) of the least-squares line
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), min(r2, 1.0)


def fit_highsnr_slope(snr_db, rate, window_db) -> tuple[float, float]:
    """Rate growth in bits per doubling of SNR over a dB window.

    Fits rate against log2 of the linear SNR for points with
    window_db[0] <= snr_db <= window_db[1], and returns (slope, r_squared).
    """
    snr_db = np.asarray(snr_db, dtype=float)
    rate = np.asarray(rate, dtype=float)
    lo, hi = window_db
    mask = (snr_db >= lo) & (snr_db <= hi)
    if np.count_nonzero(mask) < 3:
        raise ModelError("need at least 3 points inside the fit window")
    x = snr_db[mask] * (np.log2(10.0) / 10.0)  # log2 of the linear SNR
    return _least_squares(x, rate[mask])


def fit_diversity(p_db, op) -> tuple[float, float]:
    """Diversity order from the log-log decay of outage vs SNR.

    Fits log10(op) against log10 of the linear SNR, restricted to points
    with 1e-4 <= op <= 1e-1, and returns (slope, r_squared); the diversity
    estimate is -slope.
    Zero-probability bins (no observed events) are dropped with a warning,
    never imputed.
    """
    p_db = np.asarray(p_db, dtype=float)
    op = np.asarray(op, dtype=float)
    nonzero = op > 0.0
    if np.count_nonzero(~nonzero):
        warnings.warn("dropping outage bins with zero observed events",
                      stacklevel=2)
    mask = nonzero & (op >= 1e-4) & (op <= 1e-1)
    if np.count_nonzero(mask) < 3:
        raise ModelError("need at least 3 outage points inside the window")
    x = p_db[mask] / 10.0  # log10 of the linear SNR
    return _least_squares(x, np.log10(op[mask]))
