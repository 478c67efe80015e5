"""Achievable communication-sensing rate regions and their dominance gaps.

Each region is a one-parameter sweep of (ECR, SR) operating points: the
power split (ISAC) or the bandwidth share alpha (FDSAC).  A sweep takes
an ``mc.Link``, which the ISAC and FDSAC sweeps of a link can share, and
declares its grid's points on it, so the ECRs of a sweep come from one
pass over the link's one draw set, each as its own estimate would.  A
region holds its corners as columns over the sweep grid; it is the
downward-closed union of the rectangles [0, cr_i] x [0, sr_i], so
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
from .numerics import ModelError

__all__ = [
    "RateRegion",
    "dl_isac_region",
    "ul_isac_region",
    "dl_fdsac_region",
    "ul_fdsac_region",
    "corner_gaps",
    "fdsac_escapes",
    "sr_curves",
]

DEFAULT_GRID = 41


@dataclass(frozen=True, eq=False)
class RateRegion:
    """Corners of one sweep as columns: the corner at ``sweep_param`` =
    ``grid[i]`` has communication rate ``cr[i]``, with Monte Carlo standard
    error ``cr_se[i]``, and sensing rate ``sr[i]``."""

    sweep_param: str
    grid: np.ndarray
    cr: np.ndarray
    cr_se: np.ndarray
    sr: np.ndarray


def _sweep(link, param, hi, grid_size, corner) -> RateRegion:
    # one corner per grid value x in [0, hi]: corner(x) -> (point, ecr, sr),
    # where ecr() estimates the ECR at the link point (alpha, p_c), and the
    # link declares the points of the whole grid before the first estimate
    if grid_size < 2:
        raise ModelError("grid_size must be >= 2")
    grid = np.linspace(0.0, hi, grid_size)
    corners = [corner(x) for x in grid]
    link.declare([point for point, _, _ in corners])
    columns = [(est.mean, est.std_error, sr)
               for est, sr in ((ecr(), sr) for _, ecr, sr in corners)]
    return RateRegion(param, grid, *np.array(columns).T)


def dl_isac_region(link, p_c_max, p_s_max, grid_size=DEFAULT_GRID) -> RateRegion:
    """Downlink region: sweep p_c in [0, p_c_max] at fixed p_s = p_s_max,
    over a downlink ``mc.Link``.

    Higher communication power raises the sensing interference through the
    mean input covariance, so sr falls as cr grows along the sweep.
    """
    cfg = link.cfg
    rt = cfg.r_target()
    return _sweep(link, "p_c", p_c_max, grid_size, lambda p_c: (
        (1.0, p_c), lambda: dl.dl_ecr(link, p_c),
        sn.dl_sr(rt, cfg.N, cfg.L, p_s_max, dl.sensing_noise(cfg, p_c))[0]))


def ul_isac_region(link, p_c_max, p_s_max, grid_size=DEFAULT_GRID) -> RateRegion:
    """Uplink region: sweep p_s in [0, p_s_max] at fixed p_c = p_c_max,
    over an uplink ``mc.Link``.

    Higher sensing power raises the slot noise seen by the uplink decoder,
    so cr falls as sr grows along the sweep.
    """
    cfg = link.cfg
    rt = cfg.r_target()

    def corner(p_s):
        sr, rho2 = ul.sensing_profile(rt, cfg.N, cfg.L, p_s)
        return ((1.0, ul._isac_power(p_c_max, rho2)),
                lambda: ul.ul_ecr(link, p_c_max, rho2), sr)

    return _sweep(link, "p_s", p_s_max, grid_size, corner)


def dl_fdsac_region(link, p_c, p_s, grid_size=DEFAULT_GRID) -> RateRegion:
    """Downlink bandwidth-split region: sweep alpha in [0, 1] over a
    downlink ``mc.Link``."""
    cfg = link.cfg
    rt = cfg.r_target()
    return _sweep(link, "alpha", 1.0, grid_size, lambda alpha: (
        (alpha, p_c), lambda: dl.dl_ecr_fdsac(link, alpha, p_c),
        sn.fdsac_sr(rt, cfg.N, cfg.L, p_s, alpha)))


def ul_fdsac_region(link, p_c, p_s, grid_size=DEFAULT_GRID) -> RateRegion:
    """Uplink bandwidth-split region: sweep alpha in [0, 1] over an uplink
    ``mc.Link``."""
    cfg = link.cfg
    rt = cfg.r_target()
    return _sweep(link, "alpha", 1.0, grid_size, lambda alpha: (
        (alpha, p_c), lambda: ul.ul_ecr_fdsac(link, alpha, p_c),
        sn.fdsac_sr(rt, cfg.N, cfg.L, p_s, alpha)))


def sr_curves(cfg, p_s, alpha) -> np.ndarray:
    """The sensing rates at each sensing power of ``p_s``, as three rows:
    downlink ISAC (sensing noise at cfg.p_c), uplink ISAC and FDSAC at
    bandwidth share alpha."""
    rt = cfg.r_target()
    noise = dl.sensing_noise(cfg, cfg.p_c)
    return np.array([(sn.dl_sr(rt, cfg.N, cfg.L, p, noise)[0],
                      sn.ul_sr(rt, cfg.N, cfg.L, p)[0],
                      sn.fdsac_sr(rt, cfg.N, cfg.L, p, alpha)) for p in p_s]).T


def corner_gaps(outer: RateRegion, cr, sr, cr_slack=0.0) -> np.ndarray:
    """Dominance shortfall of each point (cr[i], sr[i]) against the outer
    region.

    A point's gap is the min over outer corners j of
    max(cr[i] - outer.cr[j] - cr_slack, sr[i] - outer.sr[j]): <= 0 when
    some corner dominates it, otherwise the distance it pokes outside along
    the cheaper axis.
    """
    return np.min(np.maximum(cr[:, None] - outer.cr - cr_slack,
                             sr[:, None] - outer.sr), axis=1)


def fdsac_escapes(isac: RateRegion, fdsac: RateRegion):
    """The FDSAC corners outside the ISAC region beyond Monte Carlo noise.

    The CR slack is three times the largest ``cr_se`` of either sweep.
    Returns the slack, each FDSAC corner's gap against the ISAC region
    (``corner_gaps``) and the number of corners whose gap exceeds 1e-6.
    """
    slack = 3.0 * max(isac.cr_se.max(), fdsac.cr_se.max())
    gaps = corner_gaps(isac, fdsac.cr, fdsac.sr, cr_slack=slack)
    return slack, gaps, int(np.count_nonzero(gaps > 1e-6))
