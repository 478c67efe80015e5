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
from isacsim.numerics import ModelError, matrix_sqrt_psd

CFG = SimConfig(M=2, N=2, K=2, L=4, seed=21)
P_C = 10.0
ALPHA = 0.5
PROFILE = 2.0  # an uplink ISAC slot noise rho2
DL_ROOT = matrix_sqrt_psd(CFG.r_cu())
UL_ROOT = np.eye(CFG.N, dtype=complex)


def _link(stream, trials):
    return mc.Link(replace(CFG, trials=trials), stream)


# per system: its stream, the root of its channel correlation, its per-trial
# rate, its outage estimator over a link at a power and its ergodic
# estimator at P_C (FDSAC at bandwidth share ALPHA)
SYSTEMS = {
    "disac": (chan.STREAM_DOWNLINK, DL_ROOT,
              lambda h: dl.dl_sum_rate_batch(h, P_C),
              lambda t, r, p, **kw: dl.dl_outage_prob(t, r, p, **kw),
              lambda trials: dl.dl_ecr(_link(chan.STREAM_DOWNLINK, trials), P_C)),
    "dfdsac": (chan.STREAM_DOWNLINK, DL_ROOT,
               lambda h: ALPHA * dl.dl_sum_rate_batch(h, P_C / ALPHA),
               lambda t, r, p, **kw: dl.dl_outage_prob_fdsac(t, r, ALPHA, p, **kw),
               lambda trials: dl.dl_ecr_fdsac(_link(chan.STREAM_DOWNLINK, trials),
                                              ALPHA, P_C)),
    "uisac": (chan.STREAM_UPLINK, UL_ROOT,
              lambda h: ul.ul_rate_batch(h, P_C / PROFILE),
              lambda t, r, p, **kw: ul.ul_outage_prob(t, r, p, PROFILE, **kw),
              lambda trials: ul.ul_ecr(_link(chan.STREAM_UPLINK, trials), P_C, PROFILE)),
    "ufdsac": (chan.STREAM_UPLINK, UL_ROOT,
               lambda h: ALPHA * ul.ul_rate_batch(h, P_C / ALPHA),
               lambda t, r, p, **kw: ul.ul_outage_prob_fdsac(t, r, ALPHA, p, **kw),
               lambda trials: ul.ul_ecr_fdsac(_link(chan.STREAM_UPLINK, trials),
                                              ALPHA, P_C)),
}


def _block_rates(system, block, count=None):
    # the rates of the first ``count`` trials of one block of the system's link
    stream, root, rate, _, _ = SYSTEMS[system]
    h = chan.sample_channel_block(root, CFG.K, CFG.seed, block, stream)
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
    est = outage(mc.Link(CFG, stream), r_target, P_C,
                 min_events=min_events, max_trials=10 * chan.BLOCK_SIZE)
    assert est.trials == 2 * chan.BLOCK_SIZE
    assert drawn == [(0, stream, chan.BLOCK_SIZE), (1, stream, chan.BLOCK_SIZE)]
    assert est.mean == sum(events) / est.trials


@pytest.mark.parametrize("system", SYSTEMS)
def test_outage_with_rare_events_stops_at_the_trial_cap(system, drawn):
    stream, _, _, outage, _ = SYSTEMS[system]
    for trials, counts in PREFIXES:
        rates = np.concatenate([_block_rates(system, b, n) for b, n in enumerate(counts)])
        drawn.clear()
        est = outage(mc.Link(CFG, stream), 0.05, P_C, min_events=200,
                     max_trials=trials)
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


# Outage trails.  A link keeps a trail per system, which carries the
# system's candidates from point to point; every estimate must equal, field
# for field, the one a fresh link gives.  At a target of 3 bits and 400
# events these sweeps stop every system in its first block at 8 dB and at
# the cap at 18 dB.
R_TARGET, EVENTS = 3.0, 400
CAP = 6 * chan.BLOCK_SIZE + 77  # not a multiple of the block size
TRAIL_SWEEPS = {
    "ascending": [8.0, 10.0, 12.0, 14.0, 16.0, 18.0],
    "repeated": [10.0, 10.0, 14.0, 14.0, 14.0],
    "close": [12.0, 12.0 + 1e-12, 12.0 + 2e-12, 12.0 + 3e-12],
    "descending": [18.0, 16.0, 14.0, 12.0, 10.0, 8.0],
    "shuffled": [14.0, 8.0, 18.0, 12.0, 18.0, 10.0, 16.0],
}


def _fields(est):
    return est.mean, est.std_error, est.trials


def _trail_sweep(system, cfg, r_target, points, max_trials=CAP):
    # each point (dB, min_events) over one link, and over a fresh link each
    stream, _, _, outage, _ = SYSTEMS[system]
    link = mc.Link(cfg, stream)

    def at(on, db, events):
        return _fields(outage(on, r_target, 10.0 ** (db / 10.0),
                              min_events=events, max_trials=max_trials))

    carried = [at(link, db, events) for db, events in points]
    fresh = [at(mc.Link(cfg, stream), db, events) for db, events in points]
    return carried, fresh


@pytest.mark.parametrize("sweep", TRAIL_SWEEPS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_a_trail_gives_each_point_the_fresh_estimate(system, sweep):
    points = [(db, EVENTS) for db in TRAIL_SWEEPS[sweep]]
    carried, fresh = _trail_sweep(system, CFG, R_TARGET, points)
    assert carried == fresh


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_trail_stops_inside_the_blocks_it_carries(system):
    # fewer events wanted at a higher power: the stop lies before the last
    # block the trail holds, which it must not draw again
    # and at 10 dB exactly as many events as the first block holds, so
    # the stop is at that block's end
    stream, _, _, outage, _ = SYSTEMS[system]
    first = outage(mc.Link(CFG, stream), R_TARGET, 10.0, min_events=1,
                   max_trials=chan.BLOCK_SIZE)
    exact = round(first.mean * first.trials)
    points = [(8.0, 20_000), (10.0, exact), (12.0, 5000), (14.0, 1)]
    carried, fresh = _trail_sweep(system, CFG, R_TARGET, points)
    assert carried == fresh
    assert carried[1][2] == chan.BLOCK_SIZE < carried[0][2]
    assert carried[3][2] < carried[2][2]


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_trail_matches_fresh_estimates_at_k3_near_rank_one(system):
    # the certified K = 3 solve and the generic uplink log det, users nearly
    # parallel at the BS, up to 60 dB; each target puts the 60 dB outage
    # near 1e-2
    cfg = SimConfig(M=3, N=3, K=3, L=4, rho_cu=0.999999, seed=5)
    r_target = {"disac": 21.0, "dfdsac": 11.0, "uisac": 50.0, "ufdsac": 27.0}[system]
    points = [(db, 300) for db in (40.0, 50.0, 55.0, 60.0, 60.0 + 1e-12)]
    carried, fresh = _trail_sweep(system, cfg, r_target, points,
                                  max_trials=2 * chan.BLOCK_SIZE + 5)
    assert carried == fresh
    assert 0.0 < carried[-1][0] < 0.1


@pytest.mark.parametrize("system", SYSTEMS)
def test_an_ascending_sweep_draws_each_block_once(system, drawn):
    stream, _, _, outage, _ = SYSTEMS[system]
    link = mc.Link(CFG, stream)
    trials = []
    for db in TRAIL_SWEEPS["ascending"]:
        est = outage(link, R_TARGET, 10.0 ** (db / 10.0), min_events=EVENTS,
                     max_trials=CAP)
        trials.append(est.trials)
        # fewer than min_events + BLOCK_SIZE trials carried
        (trail,) = link.trails.values()
        assert trail.carried < EVENTS + chan.BLOCK_SIZE
    assert trials[0] == chan.BLOCK_SIZE and trials[-1] == CAP
    assert len(set(trials)) >= 3
    assert drawn == [(b, stream, chan.BLOCK_SIZE) for b in range(6)] + [(6, stream, 77)]


# blocks: those the ascending half draws on one shared link, and on a link
# per system (7 blocks each)
@pytest.mark.parametrize("pair, blocks", [(("disac", "dfdsac"), (10, 14)),
                                          (("uisac", "ufdsac"), (8, 14))],
                         ids=["downlink", "uplink"])
def test_a_link_alternating_two_systems_gives_each_the_fresh_estimate(pair, blocks,
                                                                      drawn):
    # the ISAC and FDSAC systems of one link take turns over ascending, then
    # descending powers: each point is the one a fresh link gives it, and
    # over the ascending half the shared link draws fewer blocks than a link
    # per system, since each new block serves both trails
    stream = SYSTEMS[pair[0]][0]

    def sweep(link_of, powers):
        return [_fields(SYSTEMS[system][3](link_of(system), R_TARGET,
                                           10.0 ** (db / 10.0), min_events=EVENTS,
                                           max_trials=CAP))
                for db in powers for system in pair]

    def halves(link_of):
        drawn.clear()
        ascending = sweep(link_of, TRAIL_SWEEPS["ascending"])
        count = len(drawn)
        return ascending + sweep(link_of, TRAIL_SWEEPS["descending"]), count

    shared = mc.Link(CFG, stream)
    alternating, shared_blocks = halves(lambda system: shared)
    own = {system: mc.Link(CFG, stream) for system in pair}
    separate, own_blocks = halves(own.get)
    assert alternating == separate
    powers = TRAIL_SWEEPS["ascending"] + TRAIL_SWEEPS["descending"]
    assert alternating == sweep(lambda system: mc.Link(CFG, stream), powers)
    assert (shared_blocks, own_blocks) == blocks


def test_a_link_keeps_one_trail_per_system():
    # points of different systems on one link per stream, each at a higher
    # p_c than the last and each changing one thing: the kernel, alpha, the
    # target or the cap names another system, whose trail starts afresh.
    # The uplink ISAC rate is the FDSAC kernel at p_c / rho2: at rho2 = 1 it
    # is the system of FDSAC at alpha = 1 (its trail carries), and the
    # higher slot noise lowers the power (the trail starts afresh)
    down, up = chan.STREAM_DOWNLINK, chan.STREAM_UPLINK
    many = 20_000  # events: these points stop at the cap
    points = [  # estimator, link, arguments before and after p_c, target,
                # min_events, cap
        (dl.dl_outage_prob, down, (), (), 3.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (ALPHA,), (), 3.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 3.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 4.0, many, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 4.0, many, CAP + chan.BLOCK_SIZE),
        (ul.ul_outage_prob_fdsac, up, (1.0,), (), 3.0, EVENTS, CAP),
        (ul.ul_outage_prob, up, (), (1.0,), 3.0, EVENTS, CAP),
        (ul.ul_outage_prob, up, (), (PROFILE,), 3.0, EVENTS, CAP),
    ]
    shared = {s: mc.Link(CFG, s) for s in (down, up)}

    def run(link_of):
        return [_fields(estimate(link_of(stream), r, *before, 10.0 ** (db / 10.0),
                                 *after, min_events=events, max_trials=cap))
                for db, (estimate, stream, before, after, r, events, cap)
                in enumerate(points, start=10)]

    assert run(shared.get) == run(lambda s: mc.Link(CFG, s))
    assert [len(shared[s].trails) for s in (down, up)] == [5, 1]


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_point_that_fails_leaves_the_trail_whole(system, monkeypatch):
    # the third block drawn fails; the sweep goes on over the same link
    stream, _, _, outage, _ = SYSTEMS[system]
    sample, calls = chan.sample_channel_block, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("no draw")
        return sample(*args)

    link = mc.Link(CFG, stream)
    monkeypatch.setattr(chan, "sample_channel_block", failing)
    carried = []
    for db in TRAIL_SWEEPS["ascending"]:
        try:
            carried.append(_fields(outage(link, R_TARGET, 10.0 ** (db / 10.0),
                                          min_events=EVENTS, max_trials=CAP)))
        except ArithmeticError:
            carried.append(None)
    monkeypatch.undo()
    fresh = [_fields(outage(mc.Link(CFG, stream), R_TARGET, 10.0 ** (db / 10.0),
                            min_events=EVENTS, max_trials=CAP))
             for db in TRAIL_SWEEPS["ascending"]]
    assert carried.count(None) == 1
    assert [c for c in carried if c] == [f for c, f in zip(carried, fresh) if c]


# Random interleavings.  Several systems of one link (kernel, alpha, target,
# trial cap) each sweep their own powers, ascending, descending or shuffled,
# and the sweeps are interleaved at random; one draw in ten fails.  At K = 1
# both kernels equal the single-user floor, and each target lies SLACK / 2
# below the rate of a trial at its system's first power, so that trial is
# carried only by a floor with the slack.
INTERLEAVINGS = 8


def _interleaving(rng, stream, cfg):
    # the systems of one link and its points: (system, p_c, min_events)
    size = chan.BLOCK_SIZE
    kernel = dl.dl_sum_rate_batch if stream == chan.STREAM_DOWNLINK else ul.ul_rate_batch
    root = DL_ROOT if stream == chan.STREAM_DOWNLINK else UL_ROOT
    sweeps = []
    for _ in range(int(rng.integers(2, 5))):
        alpha = float(rng.choice([1.0, 1.0, 0.8, 0.5, 0.3]))
        powers = 10.0 ** (rng.uniform(0.8, 1.8, int(rng.integers(2, 5))))
        order = rng.choice(["ascending", "descending", "shuffled"])
        powers = {"ascending": np.sort(powers), "descending": np.sort(powers)[::-1],
                  "shuffled": powers}[order]
        if cfg.K == 1:
            h = chan.sample_channel_block(root, 1, cfg.seed, 0, stream)
            rates = alpha * kernel(h, powers[0] / alpha)
            target = float(rates[rng.integers(len(rates))]) - mc.SLACK / 2
        else:
            target = float(rng.uniform(2.0, 5.0))
        cap = int(rng.integers(1, 5)) * size + int(rng.integers(1, size))
        system = (kernel, alpha, target, cap)
        sweeps.append([(system, float(p), int(rng.choice([1, 30, 300, 3000])))
                       for p in powers])
    turns = rng.permutation(np.repeat(np.arange(len(sweeps)), [len(s) for s in sweeps]))
    return [sweeps[i].pop(0) for i in turns]


def _point(link, system, p_c, min_events):
    kernel, alpha, target, cap = system
    return mc.outage(link, link.stream, kernel, target, p_c, alpha, min_events, cap)


def _carried_blocks(system, trail, block_of):
    # the carried trials of a trail per held block, and the trials of each
    # held block whose rate at the trail's power lies below target + SLACK
    kernel, alpha, target, cap = system
    size = chan.BLOCK_SIZE
    carried = np.concatenate([tags for tags, _, _ in trail.parts])
    want = {b: int(np.count_nonzero(
        alpha * kernel(block_of(b)[:min(size, cap - b * size)], trail.p_c / alpha)
        < target + mc.SLACK)) for b in trail.held}
    return {b: int(np.count_nonzero(carried == b)) for b in trail.held}, want


@pytest.mark.parametrize("case", range(INTERLEAVINGS))
@pytest.mark.parametrize("columns", [1, 2], ids=["k1", "k2"])
@pytest.mark.parametrize("stream", [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK],
                         ids=["downlink", "uplink"])
def test_random_interleavings_give_each_point_the_fresh_estimate(
        stream, columns, case, monkeypatch):
    cfg = replace(CFG, K=columns, seed=100 + case)
    rng = np.random.default_rng([stream, columns, case])
    points = _interleaving(rng, stream, cfg)
    sample, size = chan.sample_channel_block, chan.BLOCK_SIZE
    root = DL_ROOT if stream == chan.STREAM_DOWNLINK else UL_ROOT
    fail = {"on": False}

    def failing(*args):
        if fail["on"] and rng.random() < 0.1:
            raise ArithmeticError("no draw")
        return sample(*args)

    blocks = {}

    def block_of(b):
        if b not in blocks:
            blocks[b] = sample(root, columns, cfg.seed, b, stream)
        return blocks[b]

    monkeypatch.setattr(chan, "sample_channel_block", failing)
    link, failures = mc.Link(cfg, stream), 0
    for system, p_c, events in points:
        before = dict(link.trails)
        fail["on"] = True
        try:
            est = _point(link, system, p_c, events)
        except ArithmeticError:
            # a point that raises leaves the whole link as it was
            failures += 1
            assert link.trails.keys() == before.keys()
            assert all(link.trails[k] is before[k] for k in before)
            continue
        finally:
            fail["on"] = False
        assert _fields(est) == _fields(_point(mc.Link(cfg, stream), system, p_c,
                                              events))
        for other, trail in link.trails.items():
            # a trail takes a block only while it has room for one more
            if other != system and before.get(other) is not trail:
                assert trail.carried < trail.min_events + 2 * size
            got, want = _carried_blocks(other, trail, block_of)
            assert got == want
    assert failures < len(points)


OUTAGE = dict(r_target=1.0, min_events=200, max_trials=chan.BLOCK_SIZE)
# estimator, its stream, its arguments after the link (ergodic estimates
# average 100 trials)
ESTIMATORS = {
    "dl_outage_prob": (dl.dl_outage_prob, chan.STREAM_DOWNLINK, dict(OUTAGE, p_c=1.0)),
    "dl_outage_prob_fdsac": (dl.dl_outage_prob_fdsac, chan.STREAM_DOWNLINK,
                             dict(OUTAGE, alpha=0.5, p_c=1.0)),
    "dl_ecr": (dl.dl_ecr, chan.STREAM_DOWNLINK, dict(p_c=1.0)),
    "dl_ecr_fdsac": (dl.dl_ecr_fdsac, chan.STREAM_DOWNLINK, dict(alpha=0.5, p_c=1.0)),
    "ul_outage_prob": (ul.ul_outage_prob, chan.STREAM_UPLINK,
                       dict(OUTAGE, p_c=1.0, rho2=PROFILE)),
    "ul_outage_prob_fdsac": (ul.ul_outage_prob_fdsac, chan.STREAM_UPLINK,
                             dict(OUTAGE, alpha=0.5, p_c=1.0)),
    "ul_ecr": (ul.ul_ecr, chan.STREAM_UPLINK, dict(p_c=1.0, rho2=PROFILE)),
    "ul_ecr_fdsac": (ul.ul_ecr_fdsac, chan.STREAM_UPLINK, dict(alpha=0.5, p_c=1.0)),
}


def test_a_link_serves_only_its_stream():
    # M = N: a block of the other stream has the shape the kernel takes
    other = {chan.STREAM_DOWNLINK: chan.STREAM_UPLINK,
             chan.STREAM_UPLINK: chan.STREAM_DOWNLINK}
    for name, (estimator, stream, kwargs) in ESTIMATORS.items():
        with pytest.raises(ModelError, match="other stream"):
            estimator(_link(other[stream], 100), **kwargs)
        assert estimator(_link(stream, 100), **kwargs).trials > 0, name


def _cases(values):
    return [(name, arg, value) for name, (_, _, kwargs) in ESTIMATORS.items()
            for arg, value in values if arg in kwargs]


@pytest.mark.parametrize("name, arg, value", _cases([
    ("r_target", -1.0), ("p_c", -1.0), ("alpha", -0.5), ("alpha", 1.5),
    ("min_events", 0), ("min_events", -1)]))
def test_every_estimator_rejects_bad_input(name, arg, value):
    estimator, stream, kwargs = ESTIMATORS[name]
    with pytest.raises(ModelError):
        estimator(_link(stream, 100), **{**kwargs, arg: value})


@pytest.mark.parametrize("name, arg, value", _cases([
    ("r_target", 0.0), ("p_c", 0.0), ("alpha", 0.0)]))
def test_zero_input_needs_no_trial(name, arg, value, drawn):
    # a zero target is never missed; zero power or bandwidth carries no rate;
    # the closed-form value claims no trial
    estimator, stream, kwargs = ESTIMATORS[name]
    est = estimator(_link(stream, 100), **{**kwargs, arg: value})
    outage = "outage" in name and arg != "r_target"
    assert (est.mean, est.std_error, est.trials) == (1.0 if outage else 0.0, 0.0, 0)
    assert drawn == []


@pytest.mark.parametrize("kernel, columns", [
    (dl.dl_sum_rate_batch, 1), (dl.dl_sum_rate_batch, 2),
    (ul.ul_rate_batch, 2)],
    ids=["dl_k1", "dl_k2", "ul"])
def test_rate_kernels_reject_negative_power(kernel, columns):
    # one check per call, on every entry: a negative power would give nan
    # rates
    with pytest.raises(ModelError):
        kernel(np.ones((3, 2, columns), dtype=complex), -1.0)


@given(columns=st.integers(1, 3), extra=st.integers(0, 2),
       rho=st.floats(0.0, 0.999999), p_db=st.floats(-10.0, 60.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_rate_is_at_least_the_single_user_floor(columns, extra, rho, p_db, seed):
    # the best user alone at the whole power: a sum rate at total power p
    # is at least log2(1 + p max_k |h_k|^2).  Each uplink user sends at p,
    # so det(I + p H H^H) >= 1 + p tr(H H^H) there, and the uplink's floor
    # is log2(1 + p ||H||_F^2).  The floors decide the trials an outage
    # point need not run its kernel on
    dim = min(columns + extra, 3)
    cfg = SimConfig(M=dim, N=dim, K=columns, L=dim, rho_cu=rho, seed=seed)
    h = next(mc.Link(cfg, chan.STREAM_DOWNLINK).blocks(32))
    p = 10.0 ** (p_db / 10.0)
    gains = np.sum(np.abs(h) ** 2, axis=1)
    floor = np.log2(1.0 + p * np.max(gains, axis=1))
    for kernel in (dl.dl_sum_rate_batch, ul.ul_rate_batch):
        assert np.all(kernel(h, p) >= floor - 1e-8)
    frobenius = np.log2(1.0 + p * np.sum(gains, axis=1))
    assert np.all(ul.ul_rate_batch(h, p) >= frobenius - 1e-8)


@pytest.mark.parametrize("stream", [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK],
                         ids=["downlink", "uplink"])
def test_the_floor_of_each_link_misses_no_outage(stream, monkeypatch):
    # at 0 dB, with the target at the median rate of three blocks, the
    # link's floor decides many trials, and the outage counts those of the
    # kernel on every trial.  On the downlink the users share the power,
    # so the uplink's floor ||H||_F^2 would miss outages there
    kernel = dl.dl_sum_rate_batch if stream == chan.STREAM_DOWNLINK else ul.ul_rate_batch
    root = DL_ROOT if stream == chan.STREAM_DOWNLINK else UL_ROOT
    cap = 3 * chan.BLOCK_SIZE
    rates = np.concatenate([kernel(chan.sample_channel_block(root, CFG.K, CFG.seed, b,
                                                             stream), 1.0)
                            for b in range(3)])
    target = float(np.median(rates))
    rows = []

    def counted(h, p):
        rows.append(len(h))
        return kernel(h, p)

    def outages(link):
        est = mc.outage(link, stream, counted, target, 1.0, 1.0, cap + 1, cap)
        return round(est.mean * est.trials)

    assert outages(mc.Link(CFG, stream)) == np.count_nonzero(rates < target)
    assert sum(rows) < 0.8 * cap
    frobenius = mc.Link(CFG, stream)
    monkeypatch.setattr(frobenius, "_gain", np.sum)
    if stream == chan.STREAM_DOWNLINK:
        assert outages(frobenius) < np.count_nonzero(rates < target)
    else:
        assert outages(frobenius) == np.count_nonzero(rates < target)


@given(columns=st.integers(1, 4), extra=st.integers(0, 1),
       rho=st.floats(0.0, 0.999999),
       p_db=st.lists(st.one_of(st.floats(-10.0, 60.0), st.none()),
                     min_size=1, max_size=6),
       negative=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_a_power_per_trial_gives_each_trial_its_scalar_rate(columns, extra, rho, p_db,
                                                             negative, seed):
    # each row of a call with an array (T,) of powers, some of them 0, has
    # the bytes of the call at that row's power alone; any negative entry
    # raises
    dim = min(columns + extra, 4)
    cfg = SimConfig(M=dim, N=dim, K=columns, L=dim, rho_cu=rho, seed=seed)
    p = np.array([0.0 if x is None else 10.0 ** (x / 10.0) for x in p_db])
    h = next(mc.Link(cfg, chan.STREAM_DOWNLINK).blocks(len(p)))
    bad = p.copy()
    bad[negative % len(p)] = -1e-300
    for kernel in (dl.dl_sum_rate_batch, dl.dual_mac_power_alloc, ul.ul_rate_batch):
        rows = kernel(h, p)
        assert [row.tobytes() for row in rows] == [kernel(h, p_t)[t].tobytes()
                                                      for t, p_t in enumerate(p)]
        with pytest.raises(ModelError):
            kernel(h, bad)


# Ergodic sweeps.  A link that knows its driver's sweep computes a system at
# every sweep power in one pass, several points to a kernel call in a block
# of at most half the block size; every estimate must equal, field for
# field, the one a fresh link without the sweep gives.  BLOCK_SIZE is 64
# here: 141 trials are blocks of 64, 64 and 13 trials, whose points run one,
# one and four to a call; 5 trials run all seven sweep powers in one call.
SWEEP_DB = [30.0, 0.0, 60.0, 10.0, 30.0, 45.0, -5.0, 20.0]  # unsorted, 30 dB twice
ASKED_DB = [45.0, 30.0, 25.0, 60.0, -5.0, 30.0, 0.0, 20.0, 10.0]  # 25 dB is no sweep power


@pytest.mark.parametrize("trials, calls", [(141, 7 + 7 + 2 + 3), (5, 1 + 1)],
                         ids=["blocks_64_64_13", "block_5"])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("rho", [0.5, 0.999999])
@pytest.mark.parametrize("columns", [1, 2, 3, 4])
@pytest.mark.parametrize("stream", [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK],
                         ids=["downlink", "uplink"])
def test_a_swept_link_gives_each_point_the_fresh_estimate(stream, columns, rho, alpha,
                                                          trials, calls, monkeypatch):
    monkeypatch.setattr(chan, "BLOCK_SIZE", 64)
    dim = max(columns, 2)
    cfg = SimConfig(M=dim, N=dim, K=columns, L=4, rho_cu=rho, trials=trials,
                    seed=columns)
    kernel = dl.dl_sum_rate_batch if stream == chan.STREAM_DOWNLINK else ul.ul_rate_batch
    rows = []

    def counted(h, p):
        rows.append(len(h))
        return kernel(h, p)

    swept = mc.Link(cfg, stream, [10.0 ** (db / 10.0) for db in SWEEP_DB] + [0.0])
    for db in ASKED_DB + [None]:
        p_c = 0.0 if db is None else 10.0 ** (db / 10.0)
        fresh = mc.ergodic(mc.Link(cfg, stream), stream, kernel, p_c, alpha)
        assert _fields(mc.ergodic(swept, stream, counted, p_c, alpha)) == _fields(fresh)
    assert len(rows) == calls and max(rows) <= 64


@pytest.mark.parametrize("estimator, stream", [
    (dl.dl_outage_prob_fdsac, chan.STREAM_DOWNLINK),
    (ul.ul_outage_prob_fdsac, chan.STREAM_UPLINK)], ids=["downlink", "uplink"])
def test_a_floor_past_the_float_range_leaves_every_trial_to_the_kernel(
        estimator, stream):
    # 2 ** ((50 + SLACK) / 0.01) overflows a float: no trial is decided by
    # the floor, and every one misses the target
    est = estimator(_link(stream, 100), 50.0, 0.01, 10.0, min_events=5,
                    max_trials=1000)
    assert _fields(est) == (1.0, 0.0, 1000)


@given(trial=st.integers(0, 3 * chan.BLOCK_SIZE - 1), dim=st.integers(1, 3),
       rho=st.floats(0.0, 0.999), stream=st.sampled_from(
           [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK, chan.STREAM_COVARIANCE]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_trial_does_not_depend_on_the_trials_requested(trial, dim, rho, stream, seed):
    cfg = SimConfig(M=dim, N=dim, K=min(dim, 2), L=dim, rho_cu=rho, seed=seed)
    size = chan.BLOCK_SIZE
    draws = [np.concatenate(list(mc.Link(cfg, stream).blocks(trials)))[trial]
             for trials in (trial + 1, size, size + 1, 3 * size) if trials > trial]
    assert all(d.tobytes() == draws[0].tobytes() for d in draws)
