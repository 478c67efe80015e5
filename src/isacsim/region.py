"""Achievable communication-sensing rate regions and containment tests.

Each region is a one-parameter sweep of (ECR, SR) operating points: the
power split (ISAC) or the bandwidth share alpha (FDSAC).  The region is
the downward-closed union of the rectangles [0, cr_i] x [0, sr_i], so
containment reduces to corner dominance.

The corners are achievable, not Pareto-optimal: the model can beat them.
At the paper's operating point (p_c = 5 dB, sensing budget 10) the uplink
corner at p_s = 5 is (2.802, 1.672); a waveform that spends the whole
budget of 10 as (2.8, 7.2) on the target eigenmodes, weighted toward the
weak one, leaves the same slot noise and reaches (2.803, 2.093).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "region_contains",
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
    """Staircase region: corners sorted by cr nondecreasing.

    ``sweep_points`` keeps the same corners in sweep-grid order, aligned
    with ``grid``, for serialization.
    """

    corners: tuple
    sweep_param: str
    grid: np.ndarray
    sweep_points: tuple = ()

    def area(self) -> float:
        """Area of the union of corner rectangles."""
        pts = sorted(self.corners, key=lambda p: p.cr)
        # max sr over corners with cr >= x, evaluated right to left
        area = 0.0
        best_sr = 0.0
        prev_cr = None
        for p in reversed(pts):
            if prev_cr is not None:
                area += (prev_cr - p.cr) * best_sr
            best_sr = max(best_sr, p.sr)
            prev_cr = p.cr
        if prev_cr is not None:
            area += prev_cr * best_sr
        return area

    def contains_point(self, cr, sr, tol=1e-9) -> bool:
        return any(p.cr >= cr - tol and p.sr >= sr - tol for p in self.corners)


def _sorted_region(points, sweep_param, grid) -> RateRegion:
    corners = tuple(sorted(points, key=lambda p: (p.cr, p.sr)))
    return RateRegion(corners=corners, sweep_param=sweep_param,
                      grid=np.asarray(grid, dtype=float),
                      sweep_points=tuple(points))


def _check_grid(grid_size):
    if grid_size < 2:
        raise ModelError("grid_size must be >= 2")


def dl_isac_region(cfg: SimConfig, p_c_max, p_s_max, grid_size=DEFAULT_GRID,
                   ecr_trials=None, sigma_trials=10_000) -> RateRegion:
    """Downlink region: sweep p_c in [0, p_c_max] at fixed p_s = p_s_max.

    Higher communication power raises the sensing interference through the
    mean input covariance, so sr falls as cr grows along the sweep.
    """
    _check_grid(grid_size)
    grid = np.linspace(0.0, p_c_max, grid_size)
    rt = cfg.r_target()
    points = []
    for p_c in grid:
        est = dl.dl_ecr(cfg, p_c, trials=ecr_trials)
        sigma = dl.estimate_mean_covariance(cfg, p_c=p_c, trials=sigma_trials)
        s2 = sn.sigma2_effective(rt, sigma)
        scenario = sn.SensingScenario(r_target=rt.matrix, n_rx=cfg.N,
                                      n_slots=cfg.L, sigma2=s2, p_s=p_s_max)
        sr, _ = sn.dl_sr(scenario)
        points.append(RatePoint(cr=est.mean, sr=sr, cr_se=est.std_error))
    return _sorted_region(points, "p_c", grid)


def ul_isac_region(cfg: SimConfig, p_c_max, p_s_max, grid_size=DEFAULT_GRID,
                   ecr_trials=None) -> RateRegion:
    """Uplink region: sweep p_s in [0, p_s_max] at fixed p_c = p_c_max.

    Higher sensing power raises the slot noise seen by the uplink decoder,
    so cr falls as sr grows along the sweep.
    """
    _check_grid(grid_size)
    grid = np.linspace(0.0, p_s_max, grid_size)
    rt = cfg.r_target()
    points = []
    for p_s in grid:
        sr, sol = sn.ul_sr(rt.matrix, cfg.N, cfg.L, p_s)
        wf = sn.build_waveform(rt.matrix, sol, cfg.L)
        profile = ul.slot_noise_powers(wf, rt.matrix)
        est = ul.ul_ecr(cfg, p_c_max, profile, trials=ecr_trials)
        points.append(RatePoint(cr=est.mean, sr=sr, cr_se=est.std_error))
    return _sorted_region(points, "p_s", grid)


def _fdsac_region(ecr_fdsac, cfg, p_c, p_s, grid_size, ecr_trials) -> RateRegion:
    # sweep the bandwidth share alpha in [0, 1] of one link's baseline
    _check_grid(grid_size)
    grid = np.linspace(0.0, 1.0, grid_size)
    rt = cfg.r_target()
    points = []
    for alpha in grid:
        est = ecr_fdsac(cfg, alpha, p_c, trials=ecr_trials)
        sr = sn.fdsac_sr(rt.matrix, cfg.N, cfg.L, p_s, alpha)
        points.append(RatePoint(cr=est.mean, sr=sr, cr_se=est.std_error))
    return _sorted_region(points, "alpha", grid)


def dl_fdsac_region(cfg: SimConfig, p_c, p_s, grid_size=DEFAULT_GRID,
                    ecr_trials=None) -> RateRegion:
    """Downlink bandwidth-split region: sweep alpha in [0, 1]."""
    return _fdsac_region(dl.dl_ecr_fdsac, cfg, p_c, p_s, grid_size, ecr_trials)


def ul_fdsac_region(cfg: SimConfig, p_c, p_s, grid_size=DEFAULT_GRID,
                    ecr_trials=None) -> RateRegion:
    """Uplink bandwidth-split region: sweep alpha in [0, 1]."""
    return _fdsac_region(ul.ul_ecr_fdsac, cfg, p_c, p_s, grid_size, ecr_trials)


def corner_gaps(outer: RateRegion, points, cr_slack=0.0) -> np.ndarray:
    """Dominance shortfall of each point against the outer region.

    A point's gap is min over outer corners q of
    max(cr - q.cr - cr_slack, sr - q.sr): <= 0 when some corner dominates
    it, otherwise the distance it pokes outside along the cheaper axis.
    """
    return np.array([
        min(max(p.cr - q.cr - cr_slack, p.sr - q.sr) for q in outer.corners)
        for p in points
    ], dtype=float)


def region_contains(outer: RateRegion, inner: RateRegion, tol=1e-6,
                    cr_slack=0.0):
    """True iff every inner corner is dominated by some outer corner.

    ``cr_slack`` widens the communication-rate comparison (Monte Carlo
    corners are stochastic; callers typically pass 3 standard errors).
    Returns (contained, worst_gap): the gap is the largest dominance
    shortfall over inner corners, <= tol when contained.
    """
    worst = float(np.max(corner_gaps(outer, inner.corners, cr_slack),
                         initial=-np.inf))
    return bool(worst <= tol), worst
