from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isacsim import channel as chan
from isacsim import downlink as dl
from isacsim import mc
from isacsim import uplink as ul
from isacsim.channel import SimConfig
from isacsim.numerics import ModelError

CFG = SimConfig(M=2, N=2, K=2, L=4, seed=21)
P_C = 10.0
ALPHA = 0.5
PROFILE = 2.0  # an uplink ISAC slot noise rho2
CLEAN = 1.0
UL_CORR = chan.CorrelationMatrix(np.eye(CFG.N, dtype=complex))


def _draws(stream, trials):
    return mc.link_draws(replace(CFG, trials=trials), stream)


# per system: its stream, its channel correlation, its per-trial rate, and
# its outage and ergodic estimators at P_C (FDSAC at bandwidth share ALPHA)
SYSTEMS = {
    "disac": (chan.STREAM_DOWNLINK, CFG.r_cu(),
              lambda h: dl.dl_sum_rate_batch(h, P_C),
              lambda r, **kw: dl.dl_outage_prob(CFG, r, P_C, **kw),
              lambda trials: dl.dl_ecr(_draws(chan.STREAM_DOWNLINK, trials), P_C)),
    "dfdsac": (chan.STREAM_DOWNLINK, CFG.r_cu(),
               lambda h: ALPHA * dl.dl_sum_rate_batch(h, P_C / ALPHA),
               lambda r, **kw: dl.dl_outage_prob_fdsac(CFG, r, ALPHA, P_C, **kw),
               lambda trials: dl.dl_ecr_fdsac(_draws(chan.STREAM_DOWNLINK, trials),
                                              ALPHA, P_C)),
    "uisac": (chan.STREAM_UPLINK, UL_CORR,
              lambda h: ul.ul_rate_batch(h, P_C, PROFILE),
              lambda r, **kw: ul.ul_outage_prob(CFG, r, P_C, PROFILE, **kw),
              lambda trials: ul.ul_ecr(_draws(chan.STREAM_UPLINK, trials), P_C, PROFILE)),
    "ufdsac": (chan.STREAM_UPLINK, UL_CORR,
               lambda h: ALPHA * ul.ul_rate_batch(h, P_C / ALPHA, CLEAN),
               lambda r, **kw: ul.ul_outage_prob_fdsac(CFG, r, ALPHA, P_C, **kw),
               lambda trials: ul.ul_ecr_fdsac(_draws(chan.STREAM_UPLINK, trials),
                                              ALPHA, P_C)),
}


def _block_rates(system, block, count=None):
    # the rates of the first ``count`` trials of one block of the system's link
    stream, corr, rate, _, _ = SYSTEMS[system]
    h = chan.sample_channel_block(corr, CFG.K, CFG.seed, block, stream)
    return rate(h[:count])


# trials requested -> trials drawn from each block: the last block is drawn
# only as far as the estimate uses it
PREFIXES = [(1, [1]), (chan.BLOCK_SIZE + 37, [chan.BLOCK_SIZE, 37])]


@pytest.mark.parametrize("system", SYSTEMS)
def test_outage_stops_after_the_first_block_with_enough_events(system, drawn):
    # about 30% of the trials are outages, so half a block of events is
    # first reached inside the second block; the estimate ends with it
    stream, _, _, outage, _ = SYSTEMS[system]
    rates = [_block_rates(system, b) for b in range(2)]
    r_target = float(np.quantile(rates[0], 0.3))
    events = [int(np.count_nonzero(r < r_target)) for r in rates]
    min_events = chan.BLOCK_SIZE // 2
    assert events[0] < min_events <= sum(events)
    drawn.clear()
    est = outage(r_target, min_events=min_events, max_trials=10 * chan.BLOCK_SIZE)
    assert est.trials == 2 * chan.BLOCK_SIZE
    assert drawn == [(0, stream, chan.BLOCK_SIZE), (1, stream, chan.BLOCK_SIZE)]
    assert est.mean == sum(events) / est.trials


@pytest.mark.parametrize("system", SYSTEMS)
def test_outage_with_rare_events_stops_at_the_trial_cap(system, drawn):
    stream, _, _, outage, _ = SYSTEMS[system]
    for trials, counts in PREFIXES:
        rates = np.concatenate([_block_rates(system, b, n) for b, n in enumerate(counts)])
        drawn.clear()
        est = outage(0.05, min_events=200, max_trials=trials)
        assert est.trials == trials
        assert drawn == [(b, stream, n) for b, n in enumerate(counts)]
        assert est.mean == np.count_nonzero(rates < 0.05) / trials < 200 / trials


@pytest.mark.parametrize("system", SYSTEMS)
def test_ergodic_runs_exactly_the_requested_trials(system, drawn):
    stream, _, _, _, ergodic = SYSTEMS[system]
    for trials, counts in PREFIXES:
        sums = [float(np.sum(_block_rates(system, b, n))) for b, n in enumerate(counts)]
        drawn.clear()
        est = ergodic(trials)
        assert est.trials == trials
        assert drawn == [(b, stream, n) for b, n in enumerate(counts)]
        assert est.mean == sum(sums) / trials


OUTAGE = dict(r_target=1.0, min_events=200, max_trials=chan.BLOCK_SIZE)
DL_DRAWS = _draws(chan.STREAM_DOWNLINK, 100)
UL_DRAWS = _draws(chan.STREAM_UPLINK, 100)
# estimator, its first argument (a config or a draw set), its other arguments
ESTIMATORS = {
    "dl_outage_prob": (dl.dl_outage_prob, CFG, dict(OUTAGE, p_c=1.0)),
    "dl_outage_prob_fdsac": (dl.dl_outage_prob_fdsac, CFG,
                             dict(OUTAGE, alpha=0.5, p_c=1.0)),
    "dl_ecr": (dl.dl_ecr, DL_DRAWS, dict(p_c=1.0)),
    "dl_ecr_fdsac": (dl.dl_ecr_fdsac, DL_DRAWS, dict(alpha=0.5, p_c=1.0)),
    "ul_outage_prob": (ul.ul_outage_prob, CFG, dict(OUTAGE, p_c=1.0, rho2=PROFILE)),
    "ul_outage_prob_fdsac": (ul.ul_outage_prob_fdsac, CFG,
                             dict(OUTAGE, alpha=0.5, p_c=1.0)),
    "ul_ecr": (ul.ul_ecr, UL_DRAWS, dict(p_c=1.0, rho2=PROFILE)),
    "ul_ecr_fdsac": (ul.ul_ecr_fdsac, UL_DRAWS, dict(alpha=0.5, p_c=1.0)),
}


def _cases(values):
    return [(name, arg, value) for name, (_, _, kwargs) in ESTIMATORS.items()
            for arg, value in values if arg in kwargs]


@pytest.mark.parametrize("name, arg, value", _cases([
    ("r_target", -1.0), ("p_c", -1.0), ("alpha", -0.5), ("alpha", 1.5)]))
def test_every_estimator_rejects_bad_input(name, arg, value):
    estimator, first, kwargs = ESTIMATORS[name]
    with pytest.raises(ModelError):
        estimator(first, **{**kwargs, arg: value})


@pytest.mark.parametrize("name, arg, value", _cases([
    ("r_target", 0.0), ("p_c", 0.0), ("alpha", 0.0)]))
def test_zero_input_needs_no_trial(name, arg, value, drawn):
    # a zero target is never missed; zero power or bandwidth carries no rate;
    # the closed-form value claims no trial
    estimator, first, kwargs = ESTIMATORS[name]
    est = estimator(first, **{**kwargs, arg: value})
    outage = "outage" in name and arg != "r_target"
    assert (est.mean, est.std_error, est.trials) == (1.0 if outage else 0.0, 0.0, 0)
    assert drawn == []


@pytest.mark.parametrize("kernel, columns", [
    (dl.dl_sum_rate_batch, 1), (dl.dl_sum_rate_batch, 2),
    (lambda h, p: ul.ul_rate_batch(h, p, PROFILE), 2)],
    ids=["dl_k1", "dl_k2", "ul"])
def test_rate_kernels_reject_negative_power(kernel, columns):
    # one scalar check per call: a negative power would give nan rates
    with pytest.raises(ModelError):
        kernel(np.ones((3, 2, columns), dtype=complex), -1.0)


@given(trial=st.integers(0, 3 * chan.BLOCK_SIZE - 1), dim=st.integers(1, 3),
       rho=st.floats(0.0, 0.999), stream=st.sampled_from(
           [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK, chan.STREAM_COVARIANCE]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_trial_does_not_depend_on_the_trials_requested(trial, dim, rho, stream, seed):
    corr = chan.exp_correlation(dim, rho)
    size = chan.BLOCK_SIZE
    draws = [np.concatenate(list(mc.blocks(corr, 2, seed, stream, trials)))[trial]
             for trials in (trial + 1, size, size + 1, 3 * size) if trials > trial]
    assert all(d.tobytes() == draws[0].tobytes() for d in draws)
