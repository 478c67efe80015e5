"""End-to-end acceptance gate.

Runs every criterion once (expensive Monte Carlo included) and reports
one pass/fail line per criterion.  Run with -s to stream the lines as
they finish.
"""

import inspect
from pathlib import Path

import pytest

from isacsim import acceptance, cli

NAMES = [fn.__name__.replace("criterion_", "") for fn in acceptance.CRITERIA]

# `isacsim --experiment acceptance` at the default seed, written by an
# earlier version: a change meant to keep every criterion's value and
# detail must reproduce it exactly.
GOLDEN = Path(__file__).parent / "data" / "acceptance.csv"


@pytest.fixture(scope="module")
def results():
    res = acceptance.run_all(seed=acceptance.DEFAULT_SEED)
    return {r.name: r for r in res}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    res = results[name]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name}: {res.detail} ({res.elapsed:.1f}s)")
    assert res.passed, f"{res.name}: {res.detail}"


def test_rows_match_the_golden_csv(results, tmp_path, monkeypatch):
    # the CLI formats the fixture's results: the suite does not run again
    monkeypatch.setattr(acceptance, "run_all",
                        lambda seed: list(results.values()))
    cfg, params = cli.parse_config({"seed": acceptance.DEFAULT_SEED})
    out = tmp_path / "acceptance.csv"
    assert cli.run("acceptance", cfg, params, str(out)) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_every_criterion_is_in_the_table():
    # a criterion missing from CRITERIA would never run
    defined = {fn for name, fn in inspect.getmembers(acceptance, inspect.isfunction)
               if name.startswith("criterion_")}
    assert defined == set(acceptance.CRITERIA)
    assert all(limit > 0.0 for limit in acceptance.CRITERIA.values())


def test_a_failed_determinism_run_fails_its_criterion(monkeypatch):
    monkeypatch.setattr(cli, "run", lambda *args: 3)
    assert acceptance.criterion_determinism(seed=acceptance.DEFAULT_SEED) == \
        (False, 0.0, "op_vs_snr exited 3")
