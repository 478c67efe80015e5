import csv
import json
import logging
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from isacsim import acceptance
from isacsim import channel as chan
from isacsim import cli
from isacsim import downlink as dl
from isacsim import uplink as ul


DATA = Path(__file__).parent / "data"


def write_config(tmp_path, **overrides):
    doc = {"trials": 4000, "seed": 77, "max_trials": 20_000,
           "min_events": 50, "grid_size": 4, "sweep_db": [0.0, 10.0]}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ModelError):
            cli.parse_config({"bogus": 1})

    def test_db_conversion(self):
        cfg, _ = cli.parse_config({"p_c_db": 10.0})
        assert cfg.p_c == pytest.approx(10.0)

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg, params = cli.parse_config({})
        out = tmp_path / "nope.csv"
        assert cli.run("nope", cfg, params, str(out)) == 2
        assert not out.exists()


class TestMain:
    def test_op_experiment_writes_csv(self, tmp_path):
        out = tmp_path / "op.csv"
        status = cli.main(["--experiment", "op_vs_snr",
                           "--config", write_config(tmp_path),
                           "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p_c_db,system,op,std_err,trials"
        assert len(lines) == 1 + 2 * 4  # two sweep points, four systems

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli.main(["--experiment", "ecr_vs_snr", "--config", config,
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for seed in ("77", "78"):
            out = tmp_path / f"s{seed}.csv"
            assert cli.main(["--experiment", "ecr_vs_snr", "--config", config,
                             "--out", str(out), "--seed", seed]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_region_experiment(self, tmp_path):
        out = tmp_path / "region.csv"
        status = cli.main(["--experiment", "region_ul",
                           "--config", write_config(tmp_path),
                           "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("system,sweep_param,sweep_value")
        assert len(lines) == 1 + 2 * 4  # two systems, grid_size 4

    def test_region_dl_logs_containment_as_known_escape(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="isacsim")
        assert cli.main(["--experiment", "region_dl",
                         "--config", write_config(tmp_path),
                         "--out", str(tmp_path / "region.csv")]) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if "containment" in r.getMessage()]
        match = re.match(r"downlink containment \(isac >= fdsac\): (True|False), "
                         r"(\d+)/4 fdsac corners outside \(worst gap \S+\); "
                         r"a known finite-SNR escape of the model, see README.md$",
                         line)
        assert match, line
        assert (match[1] == "False") == (int(match[2]) > 0)

    def test_an_outage_with_no_event_is_logged_not_printed(self, tmp_path, caplog):
        # no trial of any system misses a 0.05-bit target at 10 dB: the CSV
        # prints the 0 it always has, and the log warns with each system's
        # one-sided 95% bound 3 / trials
        caplog.set_level(logging.INFO, logger="isacsim")
        out = tmp_path / "op.csv"

        def run(target):
            caplog.clear()
            cfg, params = cli.parse_config({"target_rate": target, "sweep_db": [10.0],
                                            "max_trials": 10000, "seed": 1})
            assert cli.run("op_vs_snr", cfg, params, str(out)) == 0
            return (out.read_text().splitlines()[1:],
                    [r.getMessage() for r in caplog.records
                     if r.levelno == logging.WARNING])

        systems = ("disac", "dfdsac", "uisac", "ufdsac")
        rows, warnings = run(0.05)
        assert rows == [f"10,{name},0,0,10000" for name in systems]
        assert warnings == [f"{name} at p_c=10 dB: no outage in 10000 trials; the "
                            f"one-sided 95% bound is 0.0003" for name in systems]
        # every system misses a 5-bit target: no warning
        rows, warnings = run(5.0)
        assert all(row.split(",")[2] != "0" for row in rows)
        assert warnings == []

    @pytest.mark.parametrize("doc", [5, None, [["M", 3]], "abc", [1, 2]],
                             ids=["number", "null", "pairs", "string", "list"])
    def test_a_config_that_is_not_an_object_is_a_config_error(
            self, tmp_path, capsys, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert cli.main(["--experiment", "sr_vs_snr", "--config", str(path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: config: a config is a JSON object, got {doc!r}\n"
        assert not out.exists()

    def test_the_acceptance_suite_takes_only_the_seed(
            self, tmp_path, capsys, monkeypatch):
        seeds = []
        monkeypatch.setattr(acceptance, "run_all",
                            lambda seed: seeds.append(seed) or [])
        out = tmp_path / "x.csv"

        def run(doc):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
            return cli.main(["--experiment", "acceptance", "--config", str(path),
                             "--out", str(out)])

        assert run({"M": 3, "N": 3, "K": 3, "trials": 10, "alpha": 0.9,
                    "seed": 5}) == 2
        assert "takes only seed" in capsys.readouterr().err
        assert seeds == [] and not out.exists()
        # a key at its default value changes nothing, and --seed is the seed
        assert run({"seed": 5, "M": 2}) == 0
        assert cli.main(["--experiment", "acceptance", "--seed", "7",
                         "--out", str(out)]) == 0
        assert seeds == [5, 7]

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}))
        status = cli.main(["--experiment", "op_vs_snr",
                           "--config", str(path), "--out", "x.csv"])
        assert status == 2

    def test_missing_config_file(self, tmp_path):
        status = cli.main(["--experiment", "op_vs_snr",
                           "--config", str(tmp_path / "nope.json"),
                           "--out", "x.csv"])
        assert status == 2

    def test_negative_seed_is_a_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        by_key = cli.main(["--experiment", "sr_vs_snr",
                           "--config", write_config(tmp_path, seed=-1),
                           "--out", str(out)])
        by_flag = cli.main(["--experiment", "sr_vs_snr", "--seed", "-5",
                            "--out", str(out)])
        assert (by_key, by_flag) == (2, 2)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("M", 2.7), ("trials", 100.5), ("seed", 1.5), ("grid_size", 4.5),
        ("min_events", math.nan), ("max_trials", math.inf),
        ("p_c_db", math.nan), ("p_s_db", math.inf), ("rho_cu", math.nan),
        ("alpha", -math.inf), ("target_rate", math.nan),
        ("sweep_db", [0.0, math.nan]), ("p_c_db", 10 ** 400)])
    def test_non_whole_or_non_finite_number_is_a_config_error(
            self, tmp_path, key, value):
        with pytest.raises(cli.ModelError):
            cli.parse_config({key: value})
        out = tmp_path / "x.csv"
        # json writes NaN and Infinity, and reads them back
        assert cli.main(["--experiment", "region_dl",
                         "--config", write_config(tmp_path, **{key: value}),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"M": True, "N": True, "K": True, "L": True}, {"trials": "7"},
        {"seed": False}, {"p_c_db": "5"}, {"alpha": True}, {"grid_size": None},
        {"rho_cu": [0.5]}, {"sweep_db": [0.0, True]}, {"sweep_db": ["10"]},
        {"sweep_db": 10.0}])
    def test_a_boolean_or_string_is_not_a_number(self, tmp_path, doc):
        # int() and float() would read true as 1 and "7" as 7
        with pytest.raises(cli.ModelError):
            cli.parse_config(doc)
        out = tmp_path / "x.csv"
        assert cli.main(["--experiment", "sr_vs_snr",
                         "--config", write_config(tmp_path, **doc),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["sr_vs_snr", "op_vs_snr", "ecr_vs_snr"])
    @pytest.mark.parametrize("doc", [{"p_c_db": 4000.0}, {"p_s_db": 3100},
                                     {"sweep_db": [0.0, 4000.0]}])
    def test_a_power_too_large_for_a_float_is_a_config_error(
            self, tmp_path, experiment, doc):
        # 10 ** 400 overflows a float: no traceback, no numerical failure
        if "sweep_db" not in doc:
            with pytest.raises(cli.ModelError, match="overflows"):
                cli.parse_config(doc)
        out = tmp_path / "x.csv"
        assert cli.main(["--experiment", experiment,
                         "--config", write_config(tmp_path, **doc),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("min_events", [0, -3])
    def test_a_min_events_below_one_is_a_config_error(self, tmp_path, capsys,
                                                      min_events):
        # an outage estimate stops once it has seen min_events outages, so
        # it needs at least one
        out = tmp_path / "x.csv"
        assert cli.main(["--experiment", "op_vs_snr", "--out", str(out),
                         "--config", write_config(tmp_path, min_events=min_events,
                                                  sweep_db=[10.0])]) == 2
        assert capsys.readouterr().err == \
            "error: config: min_events must be positive\n"
        assert not out.exists()

    def test_an_alpha_above_one_is_a_config_error_before_any_draw(
            self, tmp_path, capsys, drawn):
        # each link checks its declared points as their estimators do, so
        # the FDSAC points fail before the ISAC points walk a block
        out = tmp_path / "x.csv"
        assert cli.main(["--experiment", "op_vs_snr", "--out", str(out),
                         "--config", write_config(tmp_path, alpha=1.5)]) == 2
        assert capsys.readouterr().err == \
            "error: config: alpha must lie in [0, 1]\n"
        assert drawn == [] and not out.exists()

    def test_an_unwritable_out_is_an_output_error(self, tmp_path, capsys):
        # the CSV is opened once the run has its rows: a path inside a
        # missing directory exits 2 with one line, not a traceback, and a
        # failed run leaves an existing file as it was
        out = tmp_path / "missing" / "x.csv"
        assert cli.main(["--experiment", "sr_vs_snr", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output: ") and err.count("\n") == 1
        assert not out.parent.exists()
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        assert cli.main(["--experiment", "sr_vs_snr", "--seed", "-1",
                         "--out", str(kept)]) == 2
        assert kept.read_text() == "old\n"


    def test_ecr_vs_snr_draws_each_link_once(self, tmp_path, drawn):
        # every SNR point and system of a link shares one draw set
        size = chan.BLOCK_SIZE
        cfg, params = cli.parse_config({"trials": size + 5,
                                        "sweep_db": [0.0, 10.0, 20.0]})
        assert cli.run("ecr_vs_snr", cfg, params, str(tmp_path / "x.csv")) == 0
        down, up = chan.STREAM_DOWNLINK, chan.STREAM_UPLINK
        assert drawn == [(0, down, size), (1, down, 5), (0, up, size), (1, up, 5)]

    @pytest.mark.parametrize("experiment, stream", [
        ("region_dl", chan.STREAM_DOWNLINK), ("region_ul", chan.STREAM_UPLINK)])
    def test_both_region_sweeps_share_one_draw_set(self, tmp_path, drawn,
                                                   experiment, stream):
        size = chan.BLOCK_SIZE
        cfg, params = cli.parse_config({"trials": size + 5, "grid_size": 3})
        assert cli.run(experiment, cfg, params, str(tmp_path / "x.csv")) == 0
        assert [k for k in drawn if k[1] != chan.STREAM_COVARIANCE] == \
            [(0, stream, size), (1, stream, 5)]

    def test_op_vs_snr_rows_do_not_depend_on_the_sweep_order(self, tmp_path):
        # each link walks its declared points at once, so the order of the
        # calls changes no row
        def rows(sweep):
            out = tmp_path / "op.csv"
            assert cli.main(["--experiment", "op_vs_snr", "--out", str(out),
                             "--config", write_config(tmp_path, sweep_db=sweep)]) == 0
            lines = out.read_text().splitlines()
            return lines[0], sorted(lines[1:], key=lambda line: float(line.split(",")[0]))

        ordered = rows([0.0, 5.0, 10.0, 15.0, 20.0])
        assert rows([10.0, 20.0, 0.0, 15.0, 5.0]) == ordered
        assert rows([20.0, 15.0, 10.0, 5.0, 0.0]) == ordered

    def test_op_vs_snr_work(self, tmp_path, monkeypatch):
        # the work of an op_tail-shaped run: each link walks its declared
        # points at once, drawing each block once, and each kernel runs
        # only on the trials its link's floor leaves open (the best user's
        # rate on the downlink, log2(1 + p ||H||_F^2) on the uplink) whose
        # rate at the system's previous power in the block lay within SLACK
        # of the target.  Without the floor, the same walks run 271,703
        # downlink and 464,222 uplink kernel trials; without the declared
        # points, a walk per point draws 168 blocks
        work = Counter()

        def counting(module, name, key):
            fn = getattr(module, name)

            def counted(*args):
                out = fn(*args)
                work[key] += 1 if key == "blocks" else len(out)
                return out

            monkeypatch.setattr(module, name, counted)

        counting(chan, "sample_channel_block", "blocks")
        counting(dl, "dl_sum_rate_batch", "downlink")
        counting(ul, "ul_rate_batch", "uplink")
        cfg, params = cli.parse_config({"sweep_db": [17.5, 20.0, 22.5, 25.0],
                                        "min_events": 100, "max_trials": 250_000})
        assert cli.run("op_vs_snr", cfg, params, str(tmp_path / "op.csv")) == 0
        assert work == {"blocks": 62, "downlink": 16_276, "uplink": 40_290}

    def test_ecr_vs_snr_work(self, tmp_path, monkeypatch, drawn):
        # a k3_ecr-shaped run, one block of 150 trials per link: each system
        # at the sweep's powers runs them in one kernel call of 600 rows,
        # but the uplink ISAC points, at p_c / rho2, run one call of 150
        # each.  With a call per point, the run makes 8 dual-MAC and 8
        # uplink calls of 150 rows
        calls, rows = Counter(), Counter()
        for module, name in ((dl, "dual_mac_power_alloc"), (ul, "ul_rate_batch")):
            def counted(h, p, fn=getattr(module, name), name=name):
                out = fn(h, p)
                calls[name] += 1
                rows[name] += len(out)
                return out

            monkeypatch.setattr(module, name, counted)
        cfg, params = cli.parse_config({"M": 3, "N": 3, "K": 3, "L": 4, "trials": 150,
                                        "sweep_db": [0.0, 10.0, 20.0, 30.0]})
        assert cli.run("ecr_vs_snr", cfg, params, str(tmp_path / "x.csv")) == 0
        assert calls == {"dual_mac_power_alloc": 2, "ul_rate_batch": 5}
        assert rows == {"dual_mac_power_alloc": 1200, "ul_rate_batch": 1200}
        assert drawn == [(0, chan.STREAM_DOWNLINK, 150), (0, chan.STREAM_UPLINK, 150)]


# Small runs whose CSVs were written by an earlier version: a change meant
# to keep every output byte must reproduce them exactly.
GOLDEN = {
    "sr_vs_snr": {"trials": 2000},
    "region_dl": {"grid_size": 5, "trials": 2000},
    "region_ul": {"grid_size": 5, "trials": 2000},
    # outage points that stop in the first block, inside a later one and at
    # a cap that is not a multiple of the block size
    "op_vs_snr": {"sweep_db": [12.5, 17.5, 22.5, 27.5], "min_events": 100,
                  "max_trials": 100_000},
    # the k3_ecr bench workload at seed 1234: the only golden K >= 3 solve
    "ecr_vs_snr": {"M": 3, "N": 3, "K": 3, "L": 4, "trials": 150,
                   "sweep_db": [0.0, 10.0, 20.0, 30.0], "seed": 1234},
}


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.csv")))
def test_every_golden_row_has_the_header_columns(name):
    # a field that holds a comma, such as an acceptance detail, is quoted
    with open(DATA / name, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_csv_bytes_unchanged(tmp_path, experiment):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN[experiment]))
    out = tmp_path / "out.csv"
    assert cli.main(["--experiment", experiment, "--config", str(config),
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{experiment}.csv").read_bytes()
