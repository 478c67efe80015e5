"""Experiment orchestration: JSON config in, CSV out.

Every experiment result is a pure function of (config, seed); reruns
produce byte-identical CSV files.  Exit codes: 0 success, 2 config or
output error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from functools import partial

import numpy as np

from . import downlink as dl
from . import mc
from . import region as rg
from . import uplink as ul
from .channel import STREAM_DOWNLINK, STREAM_UPLINK, SimConfig
from .numerics import ModelError

__all__ = ["run", "main"]

log = logging.getLogger("isacsim")

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
    try:
        return float(10.0 ** (x_db / 10.0))
    except OverflowError:
        raise ModelError(f"{x_db!r} dB overflows a float") from None


def _number(key, value):
    # int() and float() would take true as 1 and "7" as 7
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{key} must be a number, got {value!r}")
    return value


def _whole(key, value) -> int:
    # int() would truncate 2.7 to 2; NaN and infinity are not whole either
    if isinstance(_number(key, value), float) and not value.is_integer():
        raise ModelError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _finite(key, value) -> float:
    # Python's json reads NaN and Infinity, and integers too long for a float
    try:
        number = float(_number(key, value))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ModelError(f"{key} must be finite, got {value!r}")
    return number


def parse_config(raw: dict):
    """Build (SimConfig, params) from a raw JSON document."""
    if not isinstance(raw, dict):
        raise ModelError(f"a config is a JSON object, got {raw!r}")
    merged = dict(DEFAULT_CONFIG)
    unknown = set(raw) - set(DEFAULT_CONFIG) - {"sweep_db"}
    if unknown:
        raise ModelError(f"unknown config keys: {sorted(unknown)}")
    merged.update(raw)
    # a key is an integer or a float as its default is
    val = {k: (_whole if isinstance(d, int) else _finite)(k, merged[k])
           for k, d in DEFAULT_CONFIG.items()}
    sweep = merged.get("sweep_db", [])
    if not isinstance(sweep, list):
        raise ModelError(f"sweep_db must be a list, got {sweep!r}")
    cfg = SimConfig(
        M=val["M"], N=val["N"], K=val["K"], L=val["L"],
        rho_target=val["rho_target"], rho_cu=val["rho_cu"],
        p_c=db_to_linear(val["p_c_db"]), p_s=db_to_linear(val["p_s_db"]),
        trials=val["trials"], seed=val["seed"],
    )
    params = {
        "target_rate": val["target_rate"],
        "alpha": val["alpha"],
        "grid_size": val["grid_size"],
        "max_trials": val["max_trials"],
        "min_events": val["min_events"],
        "sweep_db": [_finite("sweep_db", x) for x in sweep],
    }
    return cfg, params


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _write_csv(path, header, rows):
    # csv quotes the fields that hold a comma, such as an acceptance detail
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_fmt(v) for v in row] for row in rows)
    log.info("wrote %s (%d rows)", path, len(rows))


def _sweep(params, default_stop, default_step):
    if params["sweep_db"]:
        return list(params["sweep_db"])
    return [round(x, 10) for x in
            np.arange(0.0, default_stop + 1e-9, default_step)]


def _run_vs_snr(cfg, params, experiment):
    # outage (op_vs_snr) or ergodic rate (ecr_vs_snr) of the four systems,
    # each over the one Monte Carlo link of its stream, which declares
    # every point of its two systems and so computes them in one pass
    alpha, target = params["alpha"], params["target_rate"]
    events, cap = params["min_events"], params["max_trials"]
    kw = dict(min_events=events, max_trials=cap)
    outage = experiment == "op_vs_snr"
    _, rho2 = ul.sensing_profile(cfg.r_target(), cfg.N, cfg.L, cfg.p_s)
    sweep = _sweep(params, 40.0, 2.5)
    powers = [db_to_linear(p_db) for p_db in sweep]
    down, up = mc.Link(cfg, STREAM_DOWNLINK), mc.Link(cfg, STREAM_UPLINK)
    stop = (target, events, cap) if outage else None
    # the (alpha, power) of each ISAC and FDSAC point of each link
    down.declare([(a, p) for p in powers for a in (1.0, alpha)], stop)
    up.declare([point for p in powers
                for point in ((1.0, ul._isac_power(p, rho2)), (alpha, p))], stop)
    # the (outage, ergodic) estimate of each system at a power
    systems = {
        "disac": (lambda p: dl.dl_outage_prob(down, target, p, **kw),
                  lambda p: dl.dl_ecr(down, p)),
        "dfdsac": (lambda p: dl.dl_outage_prob_fdsac(down, target, alpha, p, **kw),
                   lambda p: dl.dl_ecr_fdsac(down, alpha, p)),
        "uisac": (lambda p: ul.ul_outage_prob(up, target, p, rho2, **kw),
                  lambda p: ul.ul_ecr(up, p, rho2)),
        "ufdsac": (lambda p: ul.ul_outage_prob_fdsac(up, target, alpha, p, **kw),
                   lambda p: ul.ul_ecr_fdsac(up, alpha, p)),
    }
    rows = []
    for p_db, p_c in zip(sweep, powers):
        for name, (op, ecr) in systems.items():
            est = (op if outage else ecr)(p_c)
            if outage and est.mean == 0.0 and est.trials:
                log.warning("%s at p_c=%.3g dB: no outage in %d trials; the "
                            "one-sided 95%% bound is %.3g", name, p_db,
                            est.trials, 3.0 / est.trials)
            rows.append((p_db, name, est.mean, est.std_error, est.trials))
        log.info("%s p_c=%.3g dB done", experiment, p_db)
    column = experiment.split("_")[0]
    return ["p_c_db", "system", column, "std_err", "trials"], rows


def _run_sr_vs_snr(cfg, params):
    sweep = _sweep(params, 30.0, 2.5)
    curves = rg.sr_curves(cfg, [db_to_linear(x) for x in sweep], params["alpha"])
    return ["p_s_db", "system", "sr"], [
        (p_db, name, val) for p_db, (d_sr, u_sr, f_sr) in zip(sweep, curves.T)
        for name, val in (("disac", d_sr), ("dfdsac", f_sr), ("uisac", u_sr),
                          ("ufdsac", f_sr))]


def _region_rows(isac, fdsac):
    return [(system, reg.sweep_param, *corner)
            for system, reg in (("isac", isac), ("fdsac", fdsac))
            for corner in zip(reg.grid, reg.cr, reg.cr_se, reg.sr)]


def _log_containment(link, isac, fdsac):
    # FDSAC corners near the regions' shared endpoint escape the ISAC region
    # at finite SNR: a property of the model (README.md), not a failed check.
    _, gaps, outside = rg.fdsac_escapes(isac, fdsac)
    log.info("%s containment (isac >= fdsac): %s, %d/%d fdsac corners "
             "outside (worst gap %.3g); a known finite-SNR escape of the "
             "model, see README.md", link, outside == 0, outside, gaps.size,
             gaps.max(initial=-np.inf))


def _run_region(cfg, params, link):
    if link == "downlink":
        sweeps, stream = (rg.dl_isac_region, rg.dl_fdsac_region), STREAM_DOWNLINK
    else:
        sweeps, stream = (rg.ul_isac_region, rg.ul_fdsac_region), STREAM_UPLINK
    # both sweeps average the same draws of the link
    shared = mc.Link(cfg, stream)
    isac, fdsac = (sweep(shared, cfg.p_c, cfg.p_s, grid_size=params["grid_size"])
                   for sweep in sweeps)
    _log_containment(link, isac, fdsac)
    return ["system", "sweep_param", "sweep_value", "cr", "cr_std_err", "sr"], \
        _region_rows(isac, fdsac)


def _run_acceptance(cfg, params):
    # the criteria fix their own configs: a key other than the seed would
    # change nothing
    if (cfg, params) != parse_config({"seed": cfg.seed}):
        raise ModelError("the acceptance suite takes only seed from the config")
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


def run(name, cfg: SimConfig, params: dict, output_path) -> int:
    """Execute one experiment and write its CSV; returns the exit status."""
    try:
        if name not in _RUNNERS:
            raise ModelError(f"unknown experiment {name!r}; "
                             f"choose from {tuple(_RUNNERS)}")
        header, rows = _RUNNERS[name](cfg, params)
    except ModelError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    # opened once the run has its rows: a failed run leaves the file as it was
    try:
        _write_csv(output_path, header, rows)
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="Joint sensing/communication performance experiments")
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    parser.add_argument("--experiment", required=True, choices=_RUNNERS)
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
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except (ModelError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    return run(args.experiment, cfg, params, args.out)


if __name__ == "__main__":
    sys.exit(main())
