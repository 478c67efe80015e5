"""Achievable communication-sensing rate regions and their dominance gaps.

Each region is a one-parameter sweep of (ECR, SR) operating points: the
power split (ISAC) or the bandwidth share alpha (FDSAC).  A sweep takes
its link's draw set (``mc.link_draws``), which the ISAC and FDSAC sweeps of
a link can share, and every point's ECR averages the same draws, each as
its own estimate would.  The region is
the downward-closed union of the rectangles [0, cr_i] x [0, sr_i], so
containment reduces to corner dominance (``corner_gaps``).

The corners are achievable, not Pareto-optimal: the model can beat them.
At the paper's operating point (p_c = 5 dB, sensing budget 10) the uplink
corner at p_s = 5 is (2.802, 1.672); a waveform that spends the whole
budget of 10 as (2.8, 7.2) on the target eigenmodes, weighted toward the
weak one, leaves the same slot noise and reaches (2.803, 2.093).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import downlink as dl
from . import sensing as sn
from . import uplink as ul
from .channel import SimConfig
from .numerics import ModelError

__all__ = [
    "RatePoint",
    "RateRegion",
    "dl_isac_region",
    "ul_isac_region",
    "dl_fdsac_region",
    "ul_fdsac_region",
    "corner_gaps",
    "fdsac_escapes",
]

DEFAULT_GRID = 41


@dataclass(frozen=True)
class RatePoint:
    """One (communication rate, sensing rate) corner; cr_se tracks the
    Monte Carlo standard error of the stochastic coordinate."""

    cr: float
    sr: float
    cr_se: float = 0.0


@dataclass(frozen=True)
class RateRegion:
    """Corners of one sweep: ``sweep_points[i]`` is the corner at
    ``sweep_param`` = ``grid[i]``."""

    sweep_points: tuple
    sweep_param: str
    grid: np.ndarray


def _check_grid(grid_size):
    if grid_size < 2:
        raise ModelError("grid_size must be >= 2")


def dl_isac_region(cfg: SimConfig, draws, p_c_max, p_s_max,
                   grid_size=DEFAULT_GRID) -> RateRegion:
    """Downlink region: sweep p_c in [0, p_c_max] at fixed p_s = p_s_max,
    over the downlink draw set ``draws`` of cfg.

    Higher communication power raises the sensing interference through the
    mean input covariance, so sr falls as cr grows along the sweep.
    """
    _check_grid(grid_size)
    grid = np.linspace(0.0, p_c_max, grid_size)
    rt = cfg.r_target()
    points = []
    for p_c in grid:
        est = dl.dl_ecr(draws, p_c)
        noise = dl.sensing_noise(cfg, p_c)
        sr, _ = sn.dl_sr(rt, cfg.N, cfg.L, p_s_max, noise)
        points.append(RatePoint(cr=est.mean, sr=sr, cr_se=est.std_error))
    return RateRegion(tuple(points), "p_c", grid)


def ul_isac_region(cfg: SimConfig, draws, p_c_max, p_s_max,
                   grid_size=DEFAULT_GRID) -> RateRegion:
    """Uplink region: sweep p_s in [0, p_s_max] at fixed p_c = p_c_max,
    over the uplink draw set ``draws`` of cfg.

    Higher sensing power raises the slot noise seen by the uplink decoder,
    so cr falls as sr grows along the sweep.
    """
    _check_grid(grid_size)
    grid = np.linspace(0.0, p_s_max, grid_size)
    rt = cfg.r_target()
    points = []
    for p_s in grid:
        sr, rho2 = ul.sensing_profile(rt, cfg.N, cfg.L, p_s)
        est = ul.ul_ecr(draws, p_c_max, rho2)
        points.append(RatePoint(cr=est.mean, sr=sr, cr_se=est.std_error))
    return RateRegion(tuple(points), "p_s", grid)


def _fdsac_region(ecr_fdsac, cfg, draws, p_c, p_s, grid_size) -> RateRegion:
    # sweep the bandwidth share alpha in [0, 1] of one link's baseline
    _check_grid(grid_size)
    grid = np.linspace(0.0, 1.0, grid_size)
    rt = cfg.r_target()
    points = []
    for alpha in grid:
        est = ecr_fdsac(draws, alpha, p_c)
        sr = sn.fdsac_sr(rt, cfg.N, cfg.L, p_s, alpha)
        points.append(RatePoint(cr=est.mean, sr=sr, cr_se=est.std_error))
    return RateRegion(tuple(points), "alpha", grid)


def dl_fdsac_region(cfg: SimConfig, draws, p_c, p_s,
                    grid_size=DEFAULT_GRID) -> RateRegion:
    """Downlink bandwidth-split region: sweep alpha in [0, 1] over the
    downlink draw set ``draws``."""
    return _fdsac_region(dl.dl_ecr_fdsac, cfg, draws, p_c, p_s, grid_size)


def ul_fdsac_region(cfg: SimConfig, draws, p_c, p_s,
                    grid_size=DEFAULT_GRID) -> RateRegion:
    """Uplink bandwidth-split region: sweep alpha in [0, 1] over the uplink
    draw set ``draws``."""
    return _fdsac_region(ul.ul_ecr_fdsac, cfg, draws, p_c, p_s, grid_size)


def corner_gaps(outer: RateRegion, points, cr_slack=0.0) -> np.ndarray:
    """Dominance shortfall of each point against the outer region.

    A point's gap is min over outer corners q of
    max(cr - q.cr - cr_slack, sr - q.sr): <= 0 when some corner dominates
    it, otherwise the distance it pokes outside along the cheaper axis.
    """
    return np.array([
        min(max(p.cr - q.cr - cr_slack, p.sr - q.sr) for q in outer.sweep_points)
        for p in points
    ], dtype=float)


def fdsac_escapes(isac: RateRegion, fdsac: RateRegion):
    """The FDSAC corners outside the ISAC region beyond Monte Carlo noise.

    The CR slack is three times the largest ``cr_se`` of either sweep.
    Returns the slack, each FDSAC corner's gap against the ISAC region
    (``corner_gaps``) and the number of corners whose gap exceeds 1e-6.
    """
    slack = 3.0 * max(p.cr_se for p in isac.sweep_points + fdsac.sweep_points)
    gaps = corner_gaps(isac, fdsac.sweep_points, cr_slack=slack)
    return slack, gaps, int(np.count_nonzero(gaps > 1e-6))
