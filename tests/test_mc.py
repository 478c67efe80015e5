import numpy as np
import pytest

from isacsim import channel as chan
from isacsim import downlink as dl
from isacsim import uplink as ul
from isacsim.channel import SimConfig
from isacsim.numerics import ModelError
from isacsim.uplink import SlotNoiseProfile

CFG = SimConfig(M=2, N=2, K=2, L=4, seed=21)
P_C = 10.0
ALPHA = 0.5
PROFILE = SlotNoiseProfile(rho2=np.array([1.0, 2.0, 2.0, 3.0]))
CLEAN = SlotNoiseProfile.clean(1)
UL_CORR = chan.CorrelationMatrix(np.eye(CFG.N, dtype=complex), "receive_identity")

# per system: its stream, its channel correlation, its per-trial rate, and
# its outage and ergodic estimators at P_C (FDSAC at bandwidth share ALPHA)
SYSTEMS = {
    "disac": (chan.STREAM_DOWNLINK, CFG.r_cu(),
              lambda h: dl.dl_sum_rate_batch(h, P_C),
              lambda r, **kw: dl.dl_outage_prob(CFG, r, P_C, **kw),
              lambda trials: dl.dl_ecr(CFG, P_C, trials=trials)),
    "dfdsac": (chan.STREAM_DOWNLINK, CFG.r_cu(),
               lambda h: ALPHA * dl.dl_sum_rate_batch(h, P_C / ALPHA),
               lambda r, **kw: dl.dl_outage_prob_fdsac(CFG, r, ALPHA, P_C, **kw),
               lambda trials: dl.dl_ecr_fdsac(CFG, ALPHA, P_C, trials=trials)),
    "uisac": (chan.STREAM_UPLINK, UL_CORR,
              lambda h: ul.ul_rate_batch(h, P_C, PROFILE),
              lambda r, **kw: ul.ul_outage_prob(CFG, r, P_C, PROFILE, **kw),
              lambda trials: ul.ul_ecr(CFG, P_C, PROFILE, trials=trials)),
    "ufdsac": (chan.STREAM_UPLINK, UL_CORR,
               lambda h: ALPHA * ul.ul_rate_batch(h, P_C / ALPHA, CLEAN),
               lambda r, **kw: ul.ul_outage_prob_fdsac(CFG, r, ALPHA, P_C, **kw),
               lambda trials: ul.ul_ecr_fdsac(CFG, ALPHA, P_C, trials=trials)),
}


def _block_rates(system, block, count=None):
    # the rates of the first ``count`` trials of one block of the system's link
    stream, corr, rate, _, _ = SYSTEMS[system]
    h = chan.sample_channel_block(corr, CFG.K, CFG.seed, block, stream)
    return rate(h[:count])


@pytest.fixture
def drawn(monkeypatch):
    # (block, stream) of every block the estimators draw
    keys = []
    sample = chan.sample_channel_block

    def counting(corr, columns, seed, block, stream=chan.STREAM_GENERIC):
        keys.append((block, stream))
        return sample(corr, columns, seed, block, stream)

    monkeypatch.setattr(chan, "sample_channel_block", counting)
    return keys


@pytest.mark.parametrize("system", SYSTEMS)
def test_outage_stops_after_the_first_block_with_enough_events(system):
    # about 30% of the trials are outages, so half a block of events is
    # first reached inside the second block; the estimate ends with it
    rates = [_block_rates(system, b) for b in range(2)]
    r_target = float(np.quantile(rates[0], 0.3))
    events = [int(np.count_nonzero(r < r_target)) for r in rates]
    min_events = chan.BLOCK_SIZE // 2
    assert events[0] < min_events <= sum(events)
    _, _, _, outage, _ = SYSTEMS[system]
    est = outage(r_target, min_events=min_events, max_trials=10 * chan.BLOCK_SIZE)
    assert est.trials == 2 * chan.BLOCK_SIZE
    assert est.mean == sum(events) / est.trials


@pytest.mark.parametrize("system", SYSTEMS)
def test_outage_with_rare_events_stops_at_the_trial_cap(system, drawn):
    stream, _, _, outage, _ = SYSTEMS[system]
    trials = chan.BLOCK_SIZE + 37
    rates = np.concatenate([_block_rates(system, 0), _block_rates(system, 1, 37)])
    drawn.clear()
    est = outage(0.05, min_events=200, max_trials=trials)
    assert est.trials == trials
    assert drawn == [(0, stream), (1, stream)]
    assert est.mean == np.count_nonzero(rates < 0.05) / trials < 200 / trials


@pytest.mark.parametrize("system", SYSTEMS)
def test_ergodic_runs_exactly_the_requested_trials(system, drawn):
    stream, _, _, _, ergodic = SYSTEMS[system]
    trials = chan.BLOCK_SIZE + 37
    first, second = _block_rates(system, 0), _block_rates(system, 1, 37)
    drawn.clear()
    est = ergodic(trials)
    assert est.trials == trials
    assert drawn == [(0, stream), (1, stream)]
    assert est.mean == (float(np.sum(first)) + float(np.sum(second))) / trials


OUTAGE = dict(r_target=1.0, min_events=200, max_trials=chan.BLOCK_SIZE)
ESTIMATORS = {
    "dl_outage_prob": (dl.dl_outage_prob, dict(OUTAGE, p_c=1.0)),
    "dl_outage_prob_fdsac": (dl.dl_outage_prob_fdsac, dict(OUTAGE, alpha=0.5, p_c=1.0)),
    "dl_ecr": (dl.dl_ecr, dict(p_c=1.0, trials=1000)),
    "dl_ecr_fdsac": (dl.dl_ecr_fdsac, dict(alpha=0.5, p_c=1.0, trials=1000)),
    "ul_outage_prob": (ul.ul_outage_prob, dict(OUTAGE, p_c=1.0, profile=PROFILE)),
    "ul_outage_prob_fdsac": (ul.ul_outage_prob_fdsac, dict(OUTAGE, alpha=0.5, p_c=1.0)),
    "ul_ecr": (ul.ul_ecr, dict(p_c=1.0, profile=PROFILE, trials=1000)),
    "ul_ecr_fdsac": (ul.ul_ecr_fdsac, dict(alpha=0.5, p_c=1.0, trials=1000)),
}


def _cases(values):
    return [(name, arg, value) for name, (_, kwargs) in ESTIMATORS.items()
            for arg, value in values if arg in kwargs]


@pytest.mark.parametrize("name, arg, value", _cases([
    ("r_target", -1.0), ("p_c", -1.0), ("alpha", -0.5), ("alpha", 1.5)]))
def test_every_estimator_rejects_bad_input(name, arg, value):
    estimator, kwargs = ESTIMATORS[name]
    with pytest.raises(ModelError):
        estimator(CFG, **{**kwargs, arg: value})


@pytest.mark.parametrize("name, arg, value", _cases([
    ("r_target", 0.0), ("p_c", 0.0), ("alpha", 0.0)]))
def test_zero_input_needs_no_trial(name, arg, value, drawn):
    # a zero target is never missed; zero power or bandwidth carries no rate
    estimator, kwargs = ESTIMATORS[name]
    est = estimator(CFG, **{**kwargs, arg: value})
    outage = "outage" in name and arg != "r_target"
    assert (est.mean, est.std_error) == (1.0 if outage else 0.0, 0.0)
    assert drawn == []
