"""End-to-end acceptance gate.

Runs every criterion once (expensive Monte Carlo included) and reports
one pass/fail line per criterion.  Run with -s to stream the lines as
they finish.
"""

import inspect
from pathlib import Path

import pytest

from isacsim import acceptance, cli, mc

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


@pytest.mark.parametrize("name", ["dl_diversity", "ul_diversity"])
def test_each_diversity_criterion_walks_its_grid_once(name, monkeypatch):
    # every grid point's call finds its key declared on the link, so the
    # first walks all seven points and the others take their estimates
    # from the link; a stand-in walk gives each point an outage of 1e-2
    # (p / p_0)^-4 over the lowest power p_0 it is asked for
    walks = []

    def walk(link, points):
        walks.append(len(points))
        low = min(point[4] for point in points)
        return {point: mc.MonteCarloEstimate(1e-2 * (point[4] / low) ** -4.0, 0.0, 1)
                for point in points}

    monkeypatch.setattr(mc, "_walk", walk)
    passed, value, _ = getattr(acceptance, f"criterion_{name}")(acceptance.DEFAULT_SEED)
    assert walks == [7]
    assert passed and value == pytest.approx(4.0)
