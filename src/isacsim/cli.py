"""Experiment orchestration: JSON config in, CSV out.

Every experiment result is a pure function of (config, seed); reruns
produce byte-identical CSV files.  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import downlink as dl
from . import region as rg
from . import sensing as sn
from . import uplink as ul
from .channel import SimConfig
from .numerics import ModelError

__all__ = ["ExperimentSpec", "run", "main", "EXPERIMENTS"]

log = logging.getLogger("isacsim")

EXPERIMENTS = ("op_vs_snr", "ecr_vs_snr", "sr_vs_snr",
               "region_dl", "region_ul", "acceptance")

DEFAULT_CONFIG = {
    "M": 2, "N": 2, "K": 2, "L": 4,
    "rho_target": 0.7, "rho_cu": 0.8,
    "p_c_db": 5.0, "p_s_db": 10.0,
    "trials": 100_000, "seed": 1234,
    "target_rate": 5.0, "alpha": 0.5,
    "grid_size": 41,
    "max_trials": 10_000_000, "min_events": 200,
}


def db_to_linear(x_db) -> float:
    return float(10.0 ** (x_db / 10.0))


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment over one configuration."""

    name: str
    config: SimConfig
    params: dict = field(default_factory=dict)
    output_path: str = "out.csv"

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ModelError(f"unknown experiment {self.name!r}; "
                             f"choose from {EXPERIMENTS}")


def parse_config(raw: dict):
    """Build (SimConfig, params) from a raw JSON document."""
    merged = dict(DEFAULT_CONFIG)
    unknown = set(raw) - set(DEFAULT_CONFIG) - {"sweep_db"}
    if unknown:
        raise ModelError(f"unknown config keys: {sorted(unknown)}")
    merged.update(raw)
    cfg = SimConfig(
        M=int(merged["M"]), N=int(merged["N"]),
        K=int(merged["K"]), L=int(merged["L"]),
        rho_target=float(merged["rho_target"]),
        rho_cu=float(merged["rho_cu"]),
        p_c=db_to_linear(float(merged["p_c_db"])),
        p_s=db_to_linear(float(merged["p_s_db"])),
        trials=int(merged["trials"]), seed=int(merged["seed"]),
    )
    params = {
        "p_c_db": float(merged["p_c_db"]),
        "p_s_db": float(merged["p_s_db"]),
        "target_rate": float(merged["target_rate"]),
        "alpha": float(merged["alpha"]),
        "grid_size": int(merged["grid_size"]),
        "max_trials": int(merged["max_trials"]),
        "min_events": int(merged["min_events"]),
        "sweep_db": [float(x) for x in merged.get("sweep_db", [])],
    }
    return cfg, params


def serialize_config(cfg: SimConfig, params: dict) -> dict:
    """Inverse of parse_config (round-trips to the identical pair)."""
    doc = {
        "M": cfg.M, "N": cfg.N, "K": cfg.K, "L": cfg.L,
        "rho_target": cfg.rho_target, "rho_cu": cfg.rho_cu,
        "p_c_db": params["p_c_db"], "p_s_db": params["p_s_db"],
        "trials": cfg.trials, "seed": cfg.seed,
        "target_rate": params["target_rate"], "alpha": params["alpha"],
        "grid_size": params["grid_size"],
        "max_trials": params["max_trials"], "min_events": params["min_events"],
    }
    if params.get("sweep_db"):
        doc["sweep_db"] = params["sweep_db"]
    return doc


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    log.info("wrote %s (%d rows)", path, len(rows))


def _sweep(params, default_stop, default_step):
    if params["sweep_db"]:
        return list(params["sweep_db"])
    return [round(x, 10) for x in
            np.arange(0.0, default_stop + 1e-9, default_step)]


def _uplink_profile(cfg):
    return ul.sensing_profile(cfg.r_target().matrix, cfg.N, cfg.L, cfg.p_s)


def _run_vs_snr(cfg, params, experiment):
    # outage (op_vs_snr) or ergodic rate (ecr_vs_snr) of the four systems
    alpha, target = params["alpha"], params["target_rate"]
    kw = dict(min_events=params["min_events"], max_trials=params["max_trials"])
    profile = _uplink_profile(cfg)
    if experiment == "op_vs_snr":
        systems = {
            "disac": lambda p: dl.dl_outage_prob(cfg, target, p, **kw),
            "dfdsac": lambda p: dl.dl_outage_prob_fdsac(cfg, target, alpha, p, **kw),
            "uisac": lambda p: ul.ul_outage_prob(cfg, target, p, profile, **kw),
            "ufdsac": lambda p: ul.ul_outage_prob_fdsac(cfg, target, alpha, p, **kw),
        }
    else:
        systems = {
            "disac": lambda p: dl.dl_ecr(cfg, p),
            "dfdsac": lambda p: dl.dl_ecr_fdsac(cfg, alpha, p),
            "uisac": lambda p: ul.ul_ecr(cfg, p, profile),
            "ufdsac": lambda p: ul.ul_ecr_fdsac(cfg, alpha, p),
        }
    rows = []
    for p_db in _sweep(params, 40.0, 2.5):
        p_c = db_to_linear(p_db)
        for name, estimate in systems.items():
            est = estimate(p_c)
            rows.append((p_db, name, est.mean, est.std_error, est.trials))
        log.info("%s p_c=%.3g dB done", experiment, p_db)
    column = experiment.split("_")[0]
    return ["p_c_db", "system", column, "std_err", "trials"], rows


def _run_sr_vs_snr(cfg, params):
    sweep = _sweep(params, 30.0, 2.5)
    alpha = params["alpha"]
    rt = cfg.r_target()
    sigma = dl.estimate_mean_covariance(cfg)
    s2 = sn.sigma2_effective(rt, sigma)
    rows = []
    for p_db in sweep:
        p_s = db_to_linear(p_db)
        scenario = sn.SensingScenario(r_target=rt.matrix, n_rx=cfg.N,
                                      n_slots=cfg.L, sigma2=s2, p_s=p_s)
        d_sr, _ = sn.dl_sr(scenario)
        u_sr, _ = sn.ul_sr(rt.matrix, cfg.N, cfg.L, p_s)
        f_sr = sn.fdsac_sr(rt.matrix, cfg.N, cfg.L, p_s, alpha)
        for name, val in (("disac", d_sr), ("dfdsac", f_sr),
                          ("uisac", u_sr), ("ufdsac", f_sr)):
            rows.append((p_db, name, val))
    return ["p_s_db", "system", "sr"], rows


def _region_rows(isac, fdsac):
    rows = []
    for system, reg in (("isac", isac), ("fdsac", fdsac)):
        for value, point in zip(reg.grid, reg.sweep_points):
            rows.append((system, reg.sweep_param, float(value),
                         point.cr, point.cr_se, point.sr))
    return rows


def _log_containment(link, isac, fdsac):
    # FDSAC corners near the regions' shared endpoint escape the ISAC region
    # at finite SNR: a property of the model (README.md), not a failed check.
    se = max([p.cr_se for p in isac.corners + fdsac.corners] or [0.0])
    gaps = rg.corner_gaps(isac, fdsac.corners, cr_slack=3.0 * se)
    outside = int(np.count_nonzero(gaps > 1e-6))
    log.info("%s containment (isac >= fdsac): %s, %d/%d fdsac corners "
             "outside (worst gap %.3g); a known finite-SNR escape of the "
             "model, see README.md", link, outside == 0, outside, gaps.size,
             gaps.max(initial=-np.inf))


def _run_region(cfg, params, link):
    if link == "downlink":
        sweeps = (rg.dl_isac_region, rg.dl_fdsac_region)
    else:
        sweeps = (rg.ul_isac_region, rg.ul_fdsac_region)
    isac, fdsac = (sweep(cfg, cfg.p_c, cfg.p_s, grid_size=params["grid_size"])
                   for sweep in sweeps)
    _log_containment(link, isac, fdsac)
    return ["system", "sweep_param", "sweep_value", "cr", "cr_std_err", "sr"], \
        _region_rows(isac, fdsac)


def _run_acceptance(cfg, params):
    from . import acceptance
    results = acceptance.run_all(seed=cfg.seed)
    rows = [(r.name, int(r.passed), r.value, r.detail) for r in results]
    if not all(r.passed for r in results):
        raise ArithmeticError("one or more acceptance criteria failed")
    return ["criterion", "passed", "value", "detail"], rows


_RUNNERS = {
    "op_vs_snr": partial(_run_vs_snr, experiment="op_vs_snr"),
    "ecr_vs_snr": partial(_run_vs_snr, experiment="ecr_vs_snr"),
    "sr_vs_snr": _run_sr_vs_snr,
    "region_dl": partial(_run_region, link="downlink"),
    "region_ul": partial(_run_region, link="uplink"),
    "acceptance": _run_acceptance,
}


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment and write its CSV; returns the exit status."""
    try:
        header, rows = _RUNNERS[spec.name](spec.config, spec.params)
        _write_csv(spec.output_path, header, rows)
    except ModelError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="Joint sensing/communication performance experiments")
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="out.csv", help="output CSV path")
    args = parser.parse_args(argv)

    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        raw = {}
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        cfg, params = parse_config(raw)
        if args.seed is not None:
            cfg = SimConfig(**{**cfg.__dict__, "seed": int(args.seed)})
        spec = ExperimentSpec(name=args.experiment, config=cfg,
                              params=params, output_path=args.out)
    except (ModelError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
