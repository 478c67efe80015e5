import json
import logging
import re

import pytest

from isacsim import cli


def write_config(tmp_path, **overrides):
    doc = {"trials": 4000, "seed": 77, "max_trials": 20_000,
           "min_events": 50, "grid_size": 4, "sweep_db": [0.0, 10.0]}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg, params = cli.parse_config({})
        doc = cli.serialize_config(cfg, params)
        cfg2, params2 = cli.parse_config(doc)
        assert cfg == cfg2 and params == params2

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ModelError):
            cli.parse_config({"bogus": 1})

    def test_db_conversion(self):
        cfg, _ = cli.parse_config({"p_c_db": 10.0})
        assert cfg.p_c == pytest.approx(10.0)

    def test_unknown_experiment_rejected(self):
        cfg, params = cli.parse_config({})
        with pytest.raises(cli.ModelError):
            cli.ExperimentSpec(name="nope", config=cfg, params=params)


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

