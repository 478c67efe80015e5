"""Acceptance criteria for the whole toolkit, runnable from tests or the CLI.

Each criterion returns (passed, value, detail); ``run_all`` times it and
gates it on its wall-time limit in ``CRITERIA``.  Independent oracles
(grid search, random-allocation sampling, Monte Carlo cross-checks) live
here next to the checks that use them, never sharing code with the
solvers they validate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import analysis as an
from . import downlink as dl
from . import mc
from . import region as rg
from . import sensing as sn
from . import uplink as ul
from .channel import STREAM_DOWNLINK, STREAM_UPLINK, SimConfig
from .numerics import matrix_sqrt_psd, waterfill

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

DEFAULT_SEED = 1234


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's verdict, value, detail and wall time (s)."""

    name: str
    passed: bool
    value: float
    detail: str
    elapsed: float


def _paper_cfg(seed) -> SimConfig:
    # p_c = 0 dB and p_s = 10 dB: the operating point the criteria read
    return SimConfig(M=2, N=2, K=2, L=4, rho_target=0.7, rho_cu=0.8,
                     p_c=1.0, p_s=10.0, trials=100_000, seed=seed)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _wf_objective(gains, noise, alloc):
    return np.sum(np.log2(1.0 + gains * alloc / noise), axis=-1)


def grid_search_waterfill(gains, noise, budget):
    """Best objective over a simplex grid of allocations, step 1e-3 budget.

    Exhaustive for two modes; for three or more modes the full grid is
    infeasible (1.7e8 points at M = 4), so the search proceeds coarse to
    fine: each stage shrinks the step eightfold and scans a window around
    the incumbent.  The objective is concave, so the refinement reaches the
    best point of the final grid.
    """
    gains = np.asarray(gains, dtype=float)
    noise = np.asarray(noise, dtype=float)
    m = gains.size
    if budget == 0.0:
        return 0.0
    target_step = 1e-3 * budget

    if m == 2:
        x = np.arange(0.0, budget + target_step / 2, target_step)
        allocs = np.stack([x, budget - x], axis=1)
        return float(np.max(_wf_objective(gains, noise, allocs)))

    center = np.full(m, budget / m)
    step = budget / 10.0
    best_val = -np.inf
    first = True
    while True:
        # concavity keeps the refined optimum within two previous steps
        half = budget if first else 16.0 * step
        first = False
        axes = []
        for i in range(m - 1):
            lo = max(0.0, center[i] - half)
            hi = min(budget, center[i] + half)
            axes.append(np.arange(lo, hi + step / 2, step))
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in mesh], axis=1)
        last = budget - cand.sum(axis=1)
        keep = last >= -1e-12
        cand = np.column_stack([cand[keep], np.maximum(last[keep], 0.0)])
        vals = _wf_objective(gains, noise, cand)
        idx = int(np.argmax(vals))
        best_val = max(best_val, float(vals[idx]))
        center = cand[idx]
        if step <= target_step:
            return best_val
        step = max(step / 8.0, target_step)


def _random_simplex(rng, count, dim, budget):
    w = rng.dirichlet(np.ones(dim), size=count)
    return w * budget


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_waterfill_oracle(seed=DEFAULT_SEED):
    """Solver objective >= 1e-3 grid-search objective - 1e-6 bits."""
    rng = np.random.default_rng((seed, 101))
    worst = np.inf
    for i in range(100):
        m = int(rng.integers(2, 5))
        gains = rng.uniform(0.1, 5.0, m)
        noise = rng.uniform(0.5, 3.0, m)
        budget = float(rng.uniform(0.2, 10.0))
        solver = float(_wf_objective(gains, noise, waterfill(gains, noise, budget)))
        oracle = grid_search_waterfill(gains, noise, budget)
        worst = min(worst, solver - oracle)
    return worst >= -1e-6, worst, f"worst solver-grid margin {worst:.3e} bits"


def criterion_dual_mac_optimality(seed=DEFAULT_SEED):
    """dl_sum_rate >= best of 1e4 random simplex allocations - 1e-6.

    100 M = K = 2 channels check the closed form, then 100 M = K = 3
    channels from the same stream check the iterative solver.
    """
    cfg = _paper_cfg(seed)
    rng = np.random.default_rng((seed, 102))
    root = matrix_sqrt_psd(cfg.r_cu())
    worst2 = np.inf
    p_c = 10.0
    for i in range(100):
        w = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        h = root @ (w / np.sqrt(2.0))
        solver = dl.dl_sum_rate(h, p_c)
        allocs = _random_simplex(rng, 10_000, 2, p_c)
        h1, h2 = h[:, 0], h[:, 1]
        a = float(np.real(h1.conj() @ h1))
        b = float(np.real(h2.conj() @ h2))
        gamma = a * b - abs(h1.conj() @ h2) ** 2
        det = (1.0 + allocs[:, 0] * a + allocs[:, 1] * b
               + allocs[:, 0] * allocs[:, 1] * gamma)
        worst2 = min(worst2, solver - float(np.max(np.log2(det))))
    root3 = matrix_sqrt_psd(replace(cfg, M=3, N=3, K=3).r_cu())
    w = rng.standard_normal((100, 3, 3)) + 1j * rng.standard_normal((100, 3, 3))
    hs = root3 @ (w / np.sqrt(2.0))
    solvers = dl.dl_sum_rate(hs, p_c)
    worst3 = np.inf
    for h, solver in zip(hs, solvers):
        allocs = _random_simplex(rng, 10_000, 3, p_c)
        mats = np.eye(3) + (h * allocs[:, None, :]) @ h.conj().T
        best = float(np.max(np.linalg.slogdet(mats)[1])) / math.log(2.0)
        worst3 = min(worst3, float(solver) - best)
    worst = min(worst2, worst3)
    return (worst >= -1e-6, worst, f"worst solver-random margin {worst:.3e} "
            f"bits (K=2 {worst2:.3e}, K=3 {worst3:.3e})")


def criterion_ecr_constant(seed=DEFAULT_SEED):
    """Closed-form high-SNR constant vs Wishart log-det Monte Carlo."""
    rng = np.random.default_rng((seed, 103))
    results = []
    for m, k in ((2, 2), (2, 1)):
        h = (rng.standard_normal((100_000, m, k))
             + 1j * rng.standard_normal((100_000, m, k))) / np.sqrt(2.0)
        gram = np.einsum("tik,til->tkl", h.conj(), h)
        sign, ld = np.linalg.slogdet(gram)
        sample = float(np.mean(ld)) / math.log(2.0)
        closed = dl.ed_closed_form_iid(m, k)
        results.append((closed, sample))
    err = max(abs(c - m) for c, m in results)
    ok_values = (abs(results[0][0] - (-0.2228)) < 5e-4
                 and abs(results[1][0] - 0.6100) < 5e-4)
    return (err <= 0.02 and ok_values, err,
            f"(2,2): {results[0][0]:.4f} vs MC {results[0][1]:.4f}; "
            f"(2,1): {results[1][0]:.4f} vs MC {results[1][1]:.4f}")


# Grid placement for the diversity fits: the outage window [1e-4, 1e-1]
# is mandated, and the asymptotic decay is only approached at its deep
# end, so the SNR grids sit at that end and past it.  At seed 1234 the
# downlink grid's outages run from 7.0e-4 down to 6.1e-5 and the uplink's
# from 6.6e-4 down to 5.2e-5: the two deepest points of each lie below
# 1e-4, where ``fit_diversity`` drops them, so each fit runs over five.
_DL_DIVERSITY_GRID_DB = np.arange(21.0, 24.01, 0.5)
_UL_DIVERSITY_GRID_DB = np.arange(22.5, 25.51, 0.5)
_DIVERSITY_EVENTS = 8000
_DIVERSITY_CAP = 60_000_000


def _diversity(grid_db, outage):
    """Outage decay order = 4 within +-0.5 over ``grid_db``, where
    ``outage(p, **stopping)`` estimates the outage at power p."""
    ops = [outage(p, min_events=_DIVERSITY_EVENTS, max_trials=_DIVERSITY_CAP).mean
           for p in _powers(grid_db)]
    slope, r2 = an.fit_diversity(grid_db, ops)
    div = -slope
    return abs(div - 4.0) <= 0.5, div, f"fitted {div:.3f}, r2 {r2:.4f}"


def _powers(grid_db):
    return [10 ** (g / 10.0) for g in grid_db]


def _rho2(cfg):
    # the uplink slot noise of the p_s waveform
    return ul.sensing_profile(cfg.r_target(), cfg.N, cfg.L, cfg.p_s)[1]


def criterion_dl_diversity(seed=DEFAULT_SEED):
    """Downlink outage decay order = MK = 4 within +-0.5."""
    link = mc.Link(_paper_cfg(seed), STREAM_DOWNLINK, outages=[
        (dl.dl_sum_rate_batch, 1.0, 5.0, _DIVERSITY_CAP, p, _DIVERSITY_EVENTS)
        for p in _powers(_DL_DIVERSITY_GRID_DB)])
    return _diversity(_DL_DIVERSITY_GRID_DB,
                      lambda p, **kw: dl.dl_outage_prob(link, 5.0, p, **kw))


def criterion_ul_diversity(seed=DEFAULT_SEED):
    """Uplink outage decay order = NK = 4 within +-0.5."""
    cfg = _paper_cfg(seed)
    rho2 = _rho2(cfg)
    link = mc.Link(cfg, STREAM_UPLINK, outages=[
        (ul.ul_rate_batch, 1.0, 5.0, _DIVERSITY_CAP, ul._isac_power(p, rho2),
         _DIVERSITY_EVENTS) for p in _powers(_UL_DIVERSITY_GRID_DB)])
    return _diversity(_UL_DIVERSITY_GRID_DB,
                      lambda p, **kw: ul.ul_outage_prob(link, 5.0, p, rho2, **kw))


def criterion_ecr_slopes(seed=DEFAULT_SEED):
    """Downlink and uplink ECR gain over a 10 dB step = K log2(10) +- 2%."""
    cfg = _paper_cfg(seed)
    target = 2.0 * math.log2(10.0)
    down = mc.Link(cfg, STREAM_DOWNLINK)
    d = dl.dl_ecr(down, 1e4).mean - dl.dl_ecr(down, 1e3).mean
    rho2 = _rho2(cfg)
    up = mc.Link(cfg, STREAM_UPLINK)
    u = ul.ul_ecr(up, 1e4, rho2).mean - ul.ul_ecr(up, 1e3, rho2).mean
    err = max(abs(d - target), abs(u - target)) / target
    return (err <= 0.02, err,
            f"dl step {d:.4f}, ul step {u:.4f}, target {target:.4f}")


def criterion_ecr_asymptote(seed=DEFAULT_SEED):
    """ECR at 40 dB matches its high-SNR line within 0.1 on three links.

    The lines are K log2(p_c / K) + E for the i.i.d. downlink; the same
    with E raised by log2 det R_cu for the correlated downlink, which holds
    for M = K only (the high-SNR power offset of Lozano, Tulino and Verdu,
    IEEE T-IT 2005); and the uplink line with its slot-noise penalty at
    the p_s = 10 dB waveform.
    """
    cfg = _paper_cfg(seed)
    e_iid = dl.ed_closed_form_iid(cfg.M, cfg.K)
    log_det = float(np.linalg.slogdet(cfg.r_cu())[1]) / math.log(2.0)
    rho2 = _rho2(cfg)
    iid = mc.Link(replace(cfg, rho_cu=0.0), STREAM_DOWNLINK)
    checks = (
        ("iid dl", dl.dl_ecr(iid, 1e4).mean,
         dl.dl_ecr_asymptote(1e4, cfg.K, e_iid)),
        (f"dl rho_cu {cfg.rho_cu:g}",
         dl.dl_ecr(mc.Link(cfg, STREAM_DOWNLINK), 1e4).mean,
         dl.dl_ecr_asymptote(1e4, cfg.K, e_iid + log_det)),
        ("ul", ul.ul_ecr(mc.Link(cfg, STREAM_UPLINK), 1e4, rho2).mean,
         ul.ul_ecr_asymptote(1e4, cfg.K, cfg.N, rho2)),
    )
    gap = max(abs(est - line) for _, est, line in checks)
    return gap <= 0.1, gap, "; ".join(
        f"{name} MC {est:.4f} vs line {line:.4f}" for name, est, line in checks)


def criterion_sr_brute_force(seed=DEFAULT_SEED):
    """Closed-form sensing rates beat 1e4 random feasible waveforms at
    p_s = 10 dB, with the downlink sensing noise evaluated at p_c = 0 dB."""
    cfg = _paper_cfg(seed)
    rt = cfg.r_target()
    p_s = cfg.p_s
    sr_u, _ = sn.ul_sr(rt, cfg.N, cfg.L, p_s)
    s2 = dl.sensing_noise(cfg, cfg.p_c)
    sr_d, _ = sn.dl_sr(rt, cfg.N, cfg.L, p_s, s2)

    rng = np.random.default_rng((seed, 108))
    worst = np.inf
    for _ in range(10_000):
        s = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        s *= math.sqrt(p_s / np.sum(np.abs(s) ** 2))
        worst = min(worst,
                    sr_d - sn.sensing_mi(rt, cfg.N, s2, s) / cfg.L,
                    sr_u - sn.sensing_mi(rt, cfg.N, 1.0, s) / cfg.L)
    hand_gap = abs(sr_u - 2.3137)
    return (worst >= -1e-9 and hand_gap <= 1e-3, worst,
            f"worst margin {worst:.3e}; ul_sr {sr_u:.5f} (hand 2.3137)")


def _sr_curves(cfg, grid_db):
    """The downlink ISAC, uplink ISAC and alpha = 0.5 FDSAC sensing rates
    at each p_s of ``grid_db``, and the downlink sensing noise at p_c."""
    rt = cfg.r_target()
    s2 = dl.sensing_noise(cfg, cfg.p_c)
    rows = []
    for g in grid_db:
        p_s = 10 ** (g / 10.0)
        rows.append((sn.dl_sr(rt, cfg.N, cfg.L, p_s, s2)[0],
                     sn.ul_sr(rt, cfg.N, cfg.L, p_s)[0],
                     sn.fdsac_sr(rt, cfg.N, cfg.L, p_s, 0.5)))
    return np.array(rows).T, s2


def criterion_sr_slopes(seed=DEFAULT_SEED):
    """Sensing-rate slopes NM/L = 1, split baseline 0.5, high-SNR form,
    with the downlink sensing noise evaluated at p_c = 0 dB."""
    cfg = _paper_cfg(seed)
    rt = cfg.r_target()
    grid_db = np.arange(30.0, 50.01, 2.5)
    curves, s2 = _sr_curves(cfg, grid_db)
    s_dl, s_ul, s_fd = (an.fit_highsnr_slope(grid_db, c, (30.0, 50.0))[0]
                        for c in curves)
    approx, valid = sn.sr_highsnr(rt, cfg.N, cfg.L, 1e4, sigma2=s2)
    gap = abs(approx - sn.dl_sr(rt, cfg.N, cfg.L, 1e4, s2)[0])
    err = max(abs(s_dl - 1.0), abs(s_ul - 1.0), abs(s_fd - 0.5) * 2.0)
    passed = (abs(s_dl - 1.0) <= 0.02 and abs(s_ul - 1.0) <= 0.02
              and abs(s_fd - 0.5) <= 0.02 and valid and gap <= 0.05)
    return passed, err, (f"dl {s_dl:.4f}, ul {s_ul:.4f}, fdsac {s_fd:.4f}, "
                         f"highsnr gap {gap:.4f}")


def criterion_sr_orderings(seed=DEFAULT_SEED):
    """Sensing-rate crossover (downlink) and uniform dominance (uplink),
    with the downlink sensing noise evaluated at p_c = 0 dB."""
    grid_db = np.arange(0.0, 30.01, 5.0)
    curves, _ = _sr_curves(_paper_cfg(seed), grid_db)
    notes = []
    for g, d_isac, u_isac, fdsac in zip(grid_db, *curves):
        if g <= 5.0 and not fdsac > d_isac:
            notes.append(f"low-SNR crossover violated at {g} dB")
        if g >= 25.0 and not d_isac > fdsac:
            notes.append(f"high-SNR crossover violated at {g} dB")
        if not u_isac > fdsac:
            notes.append(f"uplink dominance violated at {g} dB")
    ok = not notes
    return ok, float(ok), "; ".join(notes) or "all orderings hold"


def _rise_error(lo, hi, coord, predicted):
    """Worst relative error of each sweep point's rise in ``coord``.

    ``lo`` and ``hi`` are the same sweep at two powers.  A point whose
    predicted rise is 0 must not move at all.
    """
    rise = getattr(hi, coord) - getattr(lo, coord)
    predicted = np.broadcast_to(np.asarray(predicted, dtype=float), rise.shape)
    scale = np.where(predicted > 0.0, predicted, 1.0)
    err = np.where(predicted > 0.0, np.abs(rise - predicted) / scale,
                   np.where(rise == 0.0, 0.0, np.inf))
    return float(np.max(err))


def _link_regions(regions_at, p0, rising, still, dof, fdsac_share):
    """One link's checks for ``criterion_regions``.

    ``regions_at(p)`` returns the link's (isac, fdsac) regions with the
    stepped power at p.  At the operating power p0 the far ISAC corner
    must lie outside FDSAC by more than the 3-SE slack; the detail names
    the worst FDSAC corner outside ISAC.  Over a 30 -> 40 dB step every
    ISAC point must gain ``dof`` in ``rising`` and every FDSAC corner
    ``fdsac_share(alpha) * dof``; ``still`` must not move, as the draws
    are the same.  Returns (worst relative error of the step, whether the
    far corner escapes and ``still`` holds, detail).
    """
    isac, fdsac = regions_at(p0)
    slack, gaps, escaping = rg.fdsac_escapes(isac, fdsac)
    far = float(rg.corner_gaps(fdsac, isac.cr[-1:], isac.sr[-1:],
                               cr_slack=slack)[0])
    i = int(np.argmax(gaps))
    (i_lo, f_lo), (i_hi, f_hi) = regions_at(1e3), regions_at(1e4)
    err = max(_rise_error(i_lo, i_hi, rising, dof),
              _rise_error(f_lo, f_hi, rising, fdsac_share(f_lo.grid) * dof))
    fixed = all(np.array_equal(getattr(lo, still), getattr(hi, still))
                for lo, hi in ((i_lo, i_hi), (f_lo, f_hi)))
    return err, fixed and far > slack, (
        f"{rising} dof err {err:.4f}, {still} fixed {fixed}, "
        f"far corner gap {far:.3f} (slack {slack:.3f}); "
        f"fdsac contained {escaping == 0} ({escaping}/{len(gaps)} "
        f"corners escape), worst alpha {fdsac.grid[i]:.3f} "
        f"(cr {fdsac.cr[i]:.3f}, sr {fdsac.sr[i]:.3f}, gap {gaps[i]:.3f})")


def criterion_regions(seed=DEFAULT_SEED):
    """ISAC regions have the DoF of FDSAC everywhere and reach beyond it.

    The region-level form of the paper's degree-of-freedom claim, taken
    from the operating point p_c = 5 dB, p_s = 10 dB:

    - downlink, p_c held at 5 dB, p_s stepped 30 -> 40 dB: every ISAC
      sweep point's SR rises by NM/L log2(10) and every FDSAC corner's by
      (1 - alpha) NM/L log2(10), within 2%; no CR moves;
    - uplink, p_s held at 10 dB, p_c stepped 30 -> 40 dB: every ISAC sweep
      point's CR rises by K log2(10) and every FDSAC corner's by
      alpha K log2(10), within 2%; no SR moves;
    - at 5/10 dB the far ISAC corner (full power to the swept function)
      lies outside the FDSAC region by more than the 3-SE slack.

    FDSAC-in-ISAC containment at 5/10 dB is reported but not gated: with
    interference treated as noise, and an endpoint shared with FDSAC's
    interference-free sub-bands, the FDSAC boundary leaves the ISAC
    region near that endpoint at every finite SNR (see README.md).
    """
    cfg = _paper_cfg(seed)
    p_c, p_s = 10 ** 0.5, 10.0
    decade = math.log2(10.0)

    # every region of a link averages the same draws
    down = mc.Link(cfg, STREAM_DOWNLINK)
    d_err, d_ok, d_note = _link_regions(
        lambda g: (rg.dl_isac_region(down, p_c, g),
                   rg.dl_fdsac_region(down, p_c, g)),
        p_s, "sr", "cr", cfg.N * cfg.M / cfg.L * decade, lambda a: 1.0 - a)
    up = mc.Link(cfg, STREAM_UPLINK)
    u_err, u_ok, u_note = _link_regions(
        lambda g: (rg.ul_isac_region(up, g, p_s),
                   rg.ul_fdsac_region(up, g, p_s)),
        p_c, "cr", "sr", cfg.K * decade, lambda a: a)
    err = max(d_err, u_err)
    return err <= 0.02 and d_ok and u_ok, err, f"dl {d_note}; ul {u_note}"


def criterion_determinism(seed=DEFAULT_SEED):
    """Identical (config, seed) reruns produce byte-identical CSV."""
    import os
    import tempfile

    from . import cli

    raw = {"trials": 5000, "seed": seed, "max_trials": 100_000,
           "sweep_db": [0.0, 10.0, 20.0]}
    cfg, params = cli.parse_config(raw)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(2):
            path = os.path.join(tmp, f"run{i}.csv")
            status = cli.run("op_vs_snr", cfg, params, path)
            if status != 0:
                return False, 0.0, f"op_vs_snr exited {status}"
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    same = outputs[0] == outputs[1] and len(outputs[0]) > 0
    return (bool(same), float(same),
            "byte-identical rerun" if same else "outputs differ")


# Every criterion in run order, with its wall-time limit (s): it fails if
# slower.
CRITERIA = {
    criterion_waterfill_oracle: 10.0,
    criterion_dual_mac_optimality: 30.0,
    criterion_ecr_constant: 30.0,
    criterion_dl_diversity: 600.0,
    criterion_ul_diversity: 600.0,
    criterion_ecr_slopes: 300.0,
    criterion_ecr_asymptote: math.inf,
    criterion_sr_brute_force: 60.0,
    criterion_sr_slopes: math.inf,
    criterion_sr_orderings: math.inf,
    criterion_regions: 900.0,
    criterion_determinism: math.inf,
}


def run_all(seed=DEFAULT_SEED):
    """Run every criterion, printing one pass/fail line per criterion."""
    results = []
    for fn, limit in CRITERIA.items():
        start = time.perf_counter()
        passed, value, detail = fn(seed=seed)
        elapsed = time.perf_counter() - start
        res = CriterionResult(fn.__name__.removeprefix("criterion_"),
                              passed and elapsed < limit, value, detail, elapsed)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail} ({res.elapsed:.1f}s)")
    return results
