from dataclasses import replace

import numpy as np
import pytest

from isacsim import channel as chan
from isacsim import downlink as dl
from isacsim import sensing as sn
from isacsim import uplink as ul
from isacsim.channel import STREAM_COVARIANCE, STREAM_DOWNLINK, STREAM_UPLINK, SimConfig
from isacsim.downlink import dl_ecr_fdsac
from isacsim.mc import Link
from isacsim.numerics import ModelError
from isacsim.region import (
    RateRegion,
    corner_gaps,
    dl_fdsac_region,
    dl_isac_region,
    fdsac_escapes,
    ul_fdsac_region,
    ul_isac_region,
)
from isacsim.sensing import fdsac_sr
from isacsim.uplink import ul_ecr_fdsac


def make_region(cr, sr, cr_se=None):
    cr, sr = np.asarray(cr, dtype=float), np.asarray(sr, dtype=float)
    cr_se = np.zeros_like(cr) if cr_se is None else cr_se
    return RateRegion("x", np.arange(len(cr), dtype=float), cr, cr_se, sr)


def worst_gap(outer, inner, cr_slack=0.0):
    return float(np.max(corner_gaps(outer, inner.cr, inner.sr, cr_slack)))


def loop_gaps(outer, cr, sr, cr_slack=0.0):
    # oracle: the pairwise loop over corners in Python floats, min over outer
    # corners q of max(cr - q.cr - cr_slack, sr - q.sr)
    corners = list(zip(outer.cr.tolist(), outer.sr.tolist()))
    return np.array([min(max(c - q_cr - cr_slack, s - q_sr) for q_cr, q_sr in corners)
                     for c, s in zip(cr.tolist(), sr.tolist())], dtype=float)


def random_region(rng, n, tied):
    # unsorted corners; tied ones take few distinct values, so differences
    # and the two coordinates' shortfalls often tie exactly
    if tied:
        cr, sr = 0.5 * rng.integers(0, 4, (2, n))
    else:
        cr, sr = 3.0 * rng.random((2, n))
    return make_region(cr, sr, 0.01 * rng.random(n))


class TestStaircaseGeometry:
    def test_contains_point(self):
        reg = make_region([1.0, 2.0], [2.0, 1.0])
        gaps = corner_gaps(reg, np.array([1.5, 0.5, 1.5]), np.array([0.9, 1.8, 1.5]))
        assert gaps[0] <= 0.0 and gaps[1] <= 0.0
        assert gaps[2] == pytest.approx(0.5)

    def test_gap_ignores_point_order(self):
        cr, sr = np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0, 0.0])
        forward = corner_gaps(make_region(cr, sr), cr + 0.3, sr + 0.1)
        backward = corner_gaps(make_region(cr[::-1], sr[::-1]), cr + 0.3, sr + 0.1)
        assert np.array_equal(forward, backward)


class TestDominanceOracle:
    # the broadcast dominance gives the pairwise loop's bytes
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_outer", [1, 2, 41])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("cr_slack", [0.0, 0.25, 0.0123])
    def test_corner_gaps_match_the_loop(self, seed, n_outer, tied, cr_slack):
        rng = np.random.default_rng(seed)
        outer = random_region(rng, n_outer, tied)
        inner = random_region(rng, 17, tied)
        gaps = corner_gaps(outer, inner.cr, inner.sr, cr_slack)
        assert gaps.tobytes() == loop_gaps(outer, inner.cr, inner.sr, cr_slack).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tied", [False, True])
    def test_fdsac_escapes_match_the_loop(self, seed, tied):
        rng = np.random.default_rng(seed)
        isac, fdsac = random_region(rng, 41, tied), random_region(rng, 41, tied)
        slack, gaps, outside = fdsac_escapes(isac, fdsac)
        expect = 3.0 * max(isac.cr_se.tolist() + fdsac.cr_se.tolist())
        assert slack == expect
        oracle = loop_gaps(isac, fdsac.cr, fdsac.sr, expect)
        assert gaps.tobytes() == oracle.tobytes()
        assert outside == sum(g > 1e-6 for g in oracle.tolist())


class TestContainment:
    def test_nested(self):
        outer = make_region([2.0], [2.0])
        inner = make_region([1.0, 1.5], [1.5, 1.0])
        assert worst_gap(outer, inner) <= 0.0

    def test_violation_reports_gap(self):
        outer = make_region([1.0], [1.0])
        inner = make_region([1.0], [1.4])
        assert worst_gap(outer, inner) == pytest.approx(0.4)

    def test_cr_slack_forgives_stochastic_overshoot(self):
        outer = make_region([1.0], [1.0])
        inner = make_region([1.05], [0.9])
        assert worst_gap(outer, inner) > 0.0
        assert worst_gap(outer, inner, cr_slack=0.1) <= 0.0


@pytest.fixture(scope="module")
def cfg():
    return SimConfig(M=2, N=2, K=2, L=4, trials=4000, seed=41)


class TestSweeps:
    def test_dl_tradeoff_direction(self, cfg):
        reg = dl_isac_region(Link(cfg, STREAM_DOWNLINK), 10.0, 10.0, grid_size=5)
        assert np.all(np.diff(reg.cr) >= 0.0)  # more comm power, more rate
        assert np.all(np.diff(reg.sr) <= 0.0)  # and more interference
        assert reg.cr[0] == 0.0

    def test_ul_tradeoff_direction(self, cfg):
        reg = ul_isac_region(Link(cfg, STREAM_UPLINK), 10.0, 10.0, grid_size=5)
        assert np.all(np.diff(reg.sr) >= 0.0)  # sweep raises sensing power
        assert np.all(np.diff(reg.cr) <= 0.0)
        assert reg.sr[0] == 0.0

    def test_ul_solves_each_point_once(self, cfg, monkeypatch):
        # one water-fill gives a point's sensing rate and its slot noise
        calls = []
        waterfill = sn.waterfill

        def counting(*args):
            calls.append(args)
            return waterfill(*args)

        monkeypatch.setattr(sn, "waterfill", counting)
        cfg = replace(cfg, trials=100)
        ul_isac_region(Link(cfg, STREAM_UPLINK), 10.0, 10.0, grid_size=5)
        assert len(calls) == 5

    def test_fdsac_endpoints(self, cfg):
        reg = dl_fdsac_region(Link(cfg, STREAM_DOWNLINK), 10.0, 10.0, grid_size=5)
        assert reg.cr[0] == 0.0   # alpha = 0: no communication
        assert reg.sr[-1] == 0.0  # alpha = 1: no sensing

    def test_dl_regions_share_endpoints(self, cfg):
        # p_c = 0 and alpha = 0 both mean interference-free sensing only;
        # p_c = p_c_max and alpha = 1 both mean full-band communication.
        cfg = replace(cfg, trials=20_000)
        link = Link(cfg, STREAM_DOWNLINK)
        isac = dl_isac_region(link, 10.0, 10.0, grid_size=5)
        fdsac = dl_fdsac_region(link, 10.0, 10.0, grid_size=5)
        assert isac.sr[0] == pytest.approx(fdsac.sr[0], abs=1e-9)
        assert isac.cr[-1] == pytest.approx(fdsac.cr[-1], abs=1e-9)

    def test_ul_fdsac_region_runs(self, cfg):
        reg = ul_fdsac_region(Link(cfg, STREAM_UPLINK), 10.0, 10.0, grid_size=5)
        assert len(reg.grid) == len(reg.cr) == len(reg.cr_se) == len(reg.sr) == 5
        assert np.all(np.diff(reg.cr) >= 0.0) and np.all(np.diff(reg.sr) <= 0.0)

    def test_rejects_tiny_grid(self, cfg):
        with pytest.raises(ModelError):
            dl_isac_region(Link(cfg, STREAM_DOWNLINK), 10.0, 10.0, grid_size=1)


# Shared draws.  A sweep averages the one draw set of the link it is given,
# drawn once; every point's estimate is bit for bit the one-point estimate
# over a fresh link.
TWO_BLOCKS = SimConfig(M=2, N=2, K=2, L=4, trials=chan.BLOCK_SIZE + 37, seed=43)

# sweep, the stream of its ergodic set, and the one-point estimate of each
# corner: estimate(link, cfg, p_max, grid value) at p_max = 10, p_s = 10
SWEEPS = {
    "dl_isac": (dl_isac_region, STREAM_DOWNLINK,
                lambda link, cfg, p, g: dl.dl_ecr(link, g)),
    "ul_isac": (ul_isac_region, STREAM_UPLINK,
                lambda link, cfg, p, g: ul.ul_ecr(
                    link, p, ul.sensing_profile(cfg.r_target(), cfg.N, cfg.L, g)[1])),
    "dl_fdsac": (dl_fdsac_region, STREAM_DOWNLINK,
                 lambda link, cfg, p, g: dl.dl_ecr_fdsac(link, g, p)),
    "ul_fdsac": (ul_fdsac_region, STREAM_UPLINK,
                 lambda link, cfg, p, g: ul.ul_ecr_fdsac(link, g, p)),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_a_sweep_draws_its_ergodic_set_once(sweep, drawn):
    region, stream, _ = SWEEPS[sweep]
    region(Link(TWO_BLOCKS, stream), 10.0, 10.0, grid_size=5)
    size = chan.BLOCK_SIZE
    assert [k for k in drawn if k[1] != STREAM_COVARIANCE] == \
        [(0, stream, size), (1, stream, 37)]


@pytest.mark.parametrize("sweep", SWEEPS)
def test_each_corner_is_the_one_point_estimate(sweep):
    region, stream, estimate = SWEEPS[sweep]
    cfg = replace(TWO_BLOCKS, seed=44)
    reg = region(Link(cfg, stream), 10.0, 10.0, grid_size=5)
    for g, cr, cr_se in zip(reg.grid, reg.cr, reg.cr_se):
        est = estimate(Link(cfg, stream), cfg, 10.0, g)
        assert (cr.hex(), cr_se.hex()) == (est.mean.hex(), est.std_error.hex())


def test_every_mean_covariance_draws_its_own_blocks(drawn, monkeypatch):
    # The benchmark counts a p_c > 0 mean-covariance estimate that draws no
    # covariance block as a cache hit: shared ergodic draws must not feed it.
    calls = []
    estimate = dl.estimate_mean_covariance

    def counting(cfg, p_c=None, trials=10_000):
        start = len(drawn)
        result = estimate(cfg, p_c, trials)
        calls.append((p_c, [k for k in drawn[start:] if k[1] == STREAM_COVARIANCE]))
        return result

    monkeypatch.setattr(dl, "estimate_mean_covariance", counting)
    reg = dl_isac_region(Link(TWO_BLOCKS, STREAM_DOWNLINK), 10.0, 10.0, grid_size=5)
    size, cov = chan.BLOCK_SIZE, STREAM_COVARIANCE
    assert [p_c for p_c, _ in calls] == list(reg.grid)
    for p_c, blocks in calls:
        assert blocks == ([] if p_c == 0.0 else
                          [(0, cov, size), (1, cov, 10_000 - size)])


# As alpha halves toward a shared endpoint the FDSAC rate gained per bit
# of the other rate lost grows without bound (dCR/dalpha -> inf at
# alpha -> 0 in the downlink, dSR/dalpha -> -inf at alpha -> 1 in the
# uplink), while the ISAC sweep's ratio tends to a finite limit.  So the
# FDSAC boundary leaves the ISAC region near that endpoint at any SNR.
HALVINGS = 2.0 ** -np.arange(2, 9)


def _assert_unbounded(ratios):
    steps = np.diff(ratios)
    assert np.all(steps > 0.0)               # strictly increasing
    assert np.all(steps > 0.9 * steps[0])    # log-like growth, no decay


def _assert_converges(ratios):
    steps = np.abs(np.diff(ratios))
    assert np.all(steps[1:] < steps[:-1])
    assert steps[-1] < 0.6 * steps[-2]       # geometric tail: finite limit


class TestEscapeCause:
    P = 10.0

    def test_dl_fdsac_slope_unbounded_isac_finite(self, cfg):
        rt = cfg.r_target()
        sr_max = fdsac_sr(rt, cfg.N, cfg.L, self.P, 0.0)
        # shared draws: CR(alpha) / alpha = E[R(p_c / alpha)] exactly
        link = Link(cfg, STREAM_DOWNLINK)
        fd = np.divide(
            [dl_ecr_fdsac(link, a, self.P).mean for a in HALVINGS],
            [sr_max - fdsac_sr(rt, cfg.N, cfg.L, self.P, a) for a in HALVINGS])
        _assert_unbounded(fd)
        ends = [dl_isac_region(link, p_c, self.P, grid_size=2)
                for p_c in HALVINGS]
        isac = np.divide([r.cr[-1] for r in ends], [r.sr[0] - r.sr[-1] for r in ends])
        _assert_converges(isac)
        assert fd[-1] > isac[-1]

    def test_ul_fdsac_slope_unbounded_isac_finite(self, cfg):
        rt = cfg.r_target()
        alphas = 1.0 - HALVINGS
        link = Link(cfg, STREAM_UPLINK)
        cr_max = ul_ecr_fdsac(link, 1.0, self.P).mean
        fd = np.divide(
            [fdsac_sr(rt, cfg.N, cfg.L, self.P, a) for a in alphas],
            [cr_max - ul_ecr_fdsac(link, a, self.P).mean for a in alphas])
        _assert_unbounded(fd)
        ends = [ul_isac_region(link, self.P, p_s, grid_size=2)
                for p_s in HALVINGS]
        isac = np.divide([r.sr[-1] for r in ends], [r.cr[0] - r.cr[-1] for r in ends])
        _assert_converges(isac)
        assert fd[-1] > isac[-1]
