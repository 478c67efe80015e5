"""Tests of the benchmark's tracer, output check and entry point.

Run from the root of a checkout: python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from check import check_csv  # noqa: E402

TINY = {
    "op_vs_snr": {"sweep_db": [10.0], "min_events": 5, "max_trials": 16384, "seed": 7},
    "region_dl": {"grid_size": 2, "trials": 1000, "seed": 7},
    "ecr_vs_snr": {"M": 3, "N": 3, "K": 3, "L": 4, "trials": 5, "sweep_db": [10.0],
                   "seed": 7},
}


def run_child(tmp, experiment, trace):
    config = tmp / f"{experiment}.json"
    config.write_text(json.dumps(TINY[experiment]))
    record = tmp / f"{experiment}-{trace}.record.json"
    out = tmp / f"{experiment}-{trace}.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(record), experiment,
                    str(config), str(out), str(trace)],
                   env=env, check=True, capture_output=True, timeout=120)
    return json.loads(record.read_text()), out.read_text()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    return {exp: (run_child(tmp, exp, 0), run_child(tmp, exp, 1)) for exp in TINY}


def test_every_traced_function_records_a_span(runs):
    calls = Counter()
    for _, (traced, _) in runs.values():
        for name, span in traced["spans"].items():
            calls[name] += span["calls"]
    expected = {f"{layer}.{fn}" for layer, fns in tracer.TRACED.items() for fn in fns}
    assert set(calls) == expected
    assert [name for name in sorted(expected) if calls[name] == 0] == []


def test_traced_csv_is_byte_identical(runs):
    for (plain, plain_csv), (traced, traced_csv) in runs.values():
        assert plain["rc"] == traced["rc"] == 0
        assert plain_csv and traced_csv == plain_csv


def test_counters_match_outputs(runs):
    (_, csv_text), (traced, _) = runs["op_vs_snr"]
    rows = csv_text.strip().splitlines()[1:]
    layers = traced["layers"]
    assert traced["trials_used"] == sum(int(r.split(",")[-1]) for r in rows)
    assert layers["channel.blocks_drawn"] >= layers["channel.redraw_ratio"] >= 1.0
    assert layers["channel.sample_s"] > 0.0
    for (plain, _), (rec, _) in runs.values():
        assert rec["layers"]["downlink.covariance_cache_hits"] == 0
        assert plain["covariance_cache_hits"] == rec["covariance_cache_hits"] == 0
        assert plain["trials_used"] == rec["trials_used"] > 0
    # grid_size 2: the p_c = 0 and alpha = 0 points compute no trial; the
    # other ISAC point adds a 10,000-trial mean covariance to its ECR trials
    assert runs["region_dl"][0][0]["trials_used"] == 2 * TINY["region_dl"]["trials"] + 10_000
    region = runs["region_dl"][1][0]["layers"]
    assert region["region.points"] == 2 * TINY["region_dl"]["grid_size"]
    assert region["downlink.covariance_s"] > 0.0
    k3 = runs["ecr_vs_snr"][1][0]["layers"]
    assert k3["downlink.dual_mac_calls"] == 2 * TINY["ecr_vs_snr"]["trials"]


@pytest.mark.parametrize("names", [None, tracer.COUNTED])
def test_cache_hit_is_counted(names, monkeypatch):
    from isacsim import downlink
    from isacsim.channel import SimConfig

    monkeypatch.setattr(downlink, "_sigma_cache", {})  # cold, as in a fresh process
    cfg = SimConfig(M=2, N=2, K=2, L=4, p_c=2.0, seed=11)
    tr = tracer.Tracer(names).install()
    try:
        downlink.estimate_mean_covariance(cfg, trials=3)
        downlink.estimate_mean_covariance(cfg, trials=3)
        downlink.estimate_mean_covariance(cfg, p_c=0.0, trials=5)
    finally:
        tr.uninstall()
    assert tr.covariance_cache_hits == 1
    assert tr.trials_used == tr.covariance_trials == 3  # p_c = 0 computes none
    assert tr.stats["downlink.estimate_mean_covariance"].calls == 3
    assert downlink.estimate_mean_covariance.__name__ == "estimate_mean_covariance"
    assert not hasattr(downlink.estimate_mean_covariance, "__wrapped__")


REFERENCE = ("p_c_db,system,op,std_err,trials\n"
             "10,disac,0.5,0.01,8192\n"
             "10,uisac,0.25,0,8192\n")


def test_check_accepts_identity_and_extra_columns():
    assert check_csv(REFERENCE, REFERENCE) == (2, 0, True)
    extra = ("p_c_db,system,op,std_err,trials,converged\n"
             "10,disac,0.53,0.02,8192,1\n"
             "10,uisac,0.25,0,8192,1\n")
    assert check_csv(extra, REFERENCE) == (2, 0, False)


@pytest.mark.parametrize("row", [
    "10,disac,0.55,0.01,8192",      # 5 reference standard errors away
    "10,disac,0.5,0.01,16384",      # trial count differs
    "10.000001,disac,0.5,0.01,8192",  # closed-form column moved
    "10,dfdsac,0.5,0.01,8192",      # wrong system
    "10,disac,,0.01,8192",          # missing value
])
def test_check_fails_a_bad_row(row):
    out = REFERENCE.replace("10,disac,0.5,0.01,8192", row)
    assert check_csv(out, REFERENCE)[1] == 1


REGION = ("system,sweep_param,sweep_value,cr,cr_std_err,sr\n"
          "isac,p_c,1.054092553,1.864862032,0.004900104138,1.471240086\n")


@pytest.mark.parametrize("sr, failed", [
    ("1.471240087", 0),   # last printed digit differs by one
    ("1.471240085", 0),
    ("1.471240088", 1),   # two units of the last digit
    ("1.47124009", 1),
])
def test_check_closed_form_tolerance_is_one_printed_digit(sr, failed):
    out = REGION.replace("1.471240086", sr)
    assert check_csv(out, REGION)[1] == failed


def test_check_counts_missing_rows():
    assert check_csv(REFERENCE.rsplit("10,uisac", 1)[0], REFERENCE) == (2, 1, False)
    assert check_csv("", REFERENCE) == (2, 2, False)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "op_tail",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
