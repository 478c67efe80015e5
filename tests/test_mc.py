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


# Outage walks.  A link walks the outage points its driver declares under
# one stop (r_target, min_events, max_trials) at once; every estimate must
# equal, field for field, the one a fresh link gives, where each point is a
# walk of one.  At a target of 3 bits and 400 events these sweeps stop
# every system in its first block at 8 dB and at the cap at 18 dB.
R_TARGET, EVENTS = 3.0, 400
CAP = 6 * chan.BLOCK_SIZE + 77  # not a multiple of the block size
STOP = (R_TARGET, EVENTS, CAP)
TRAIL_SWEEPS = {
    "ascending": [8.0, 10.0, 12.0, 14.0, 16.0, 18.0],
    "repeated": [10.0, 10.0, 14.0, 14.0, 14.0],
    "close": [12.0, 12.0 + 1e-12, 12.0 + 2e-12, 12.0 + 3e-12],
    "descending": [18.0, 16.0, 14.0, 12.0, 10.0, 8.0],
    "shuffled": [14.0, 8.0, 18.0, 12.0, 18.0, 10.0, 16.0],
}
# per system: the point (alpha, kernel power) its estimators hand to mc at
# a power, which a link declares
POINTS = {
    "disac": lambda p: (1.0, p),
    "dfdsac": lambda p: (ALPHA, p),
    "uisac": lambda p: (1.0, ul._isac_power(p, PROFILE)),
    "ufdsac": lambda p: (ALPHA, p),
}


def _fields(est):
    return est.mean, est.std_error, est.trials


def _declared(systems, cfg, sweep, stop=STOP):
    # a link of the systems' stream that declares each power (dB) of the
    # sweep of each system under ``stop``
    link = mc.Link(cfg, SYSTEMS[systems[0]][0])
    link.declare([POINTS[system](10.0 ** (db / 10.0))
                  for system in systems for db in sweep], stop)
    return link


def _sweep(system, cfg, sweep, stop=STOP):
    # each power (dB) of the sweep under ``stop``, over one link that
    # declares them all, and over a fresh link each
    stream, _, _, outage, _ = SYSTEMS[system]
    r_target, events, cap = stop
    link = _declared([system], cfg, sweep, stop)

    def at(on, db):
        return _fields(outage(on, r_target, 10.0 ** (db / 10.0),
                              min_events=events, max_trials=cap))

    return [at(link, db) for db in sweep], [at(mc.Link(cfg, stream), db) for db in sweep]


@pytest.mark.parametrize("sweep", TRAIL_SWEEPS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_a_trail_gives_each_point_the_fresh_estimate(system, sweep):
    walked, fresh = _sweep(system, CFG, TRAIL_SWEEPS[sweep])
    assert walked == fresh


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_trail_stops_inside_the_blocks_it_carries(system):
    # exactly as many events wanted as the first block holds at 8 dB: that
    # point stops at the block's end, and the higher powers, fewer of whose
    # trials are outages, carry the walk on past it
    stream, _, _, outage, _ = SYSTEMS[system]
    first = outage(mc.Link(CFG, stream), R_TARGET, 10.0 ** 0.8, min_events=1,
                   max_trials=chan.BLOCK_SIZE)
    exact = round(first.mean * first.trials)
    walked, fresh = _sweep(system, CFG, [8.0, 10.0, 12.0, 14.0],
                           (R_TARGET, exact, CAP))
    assert walked == fresh
    trials = [w[2] for w in walked]
    assert trials[0] == chan.BLOCK_SIZE < trials[1] <= trials[2] <= trials[3]


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_trail_matches_fresh_estimates_at_k3_near_rank_one(system):
    # the certified K = 3 solve and the generic uplink log det, users nearly
    # parallel at the BS, up to 60 dB; each target puts the 60 dB outage
    # near 1e-2
    cfg = SimConfig(M=3, N=3, K=3, L=4, rho_cu=0.999999, seed=5)
    r_target = {"disac": 21.0, "dfdsac": 11.0, "uisac": 50.0, "ufdsac": 27.0}[system]
    walked, fresh = _sweep(system, cfg, [40.0, 50.0, 55.0, 60.0, 60.0 + 1e-12],
                           (r_target, 300, 2 * chan.BLOCK_SIZE + 5))
    assert walked == fresh
    assert 0.0 < walked[-1][0] < 0.1


# the blocks the ascending sweep's deepest point needs: CAP trials
CAP_BLOCKS = [chan.BLOCK_SIZE] * 6 + [77]


@pytest.mark.parametrize("system", SYSTEMS)
def test_an_ascending_sweep_draws_each_block_once(system, drawn):
    # the first point walks every declared point, so it draws the blocks
    # that the deepest one needs, and the others draw none
    stream, _, _, outage, _ = SYSTEMS[system]
    sweep = TRAIL_SWEEPS["ascending"]
    link = _declared([system], CFG, sweep)
    trials = []
    for db in sweep:
        trials.append(outage(link, R_TARGET, 10.0 ** (db / 10.0), min_events=EVENTS,
                             max_trials=CAP).trials)
        assert drawn == [(b, stream, n) for b, n in enumerate(CAP_BLOCKS)]
    assert trials[0] == chan.BLOCK_SIZE and trials[-1] == CAP
    assert len(set(trials)) >= 3


@pytest.mark.parametrize("pair", [("disac", "dfdsac"), ("uisac", "ufdsac")],
                         ids=["downlink", "uplink"])
def test_a_link_alternating_two_systems_gives_each_the_fresh_estimate(pair, drawn):
    # the ISAC and FDSAC systems of one link, each declared at the powers of
    # a shuffled sweep, take turns over it: each point is the one a fresh
    # link gives it, and the link draws each block once, where a link per
    # system draws each block twice
    stream = SYSTEMS[pair[0]][0]
    sweep = TRAIL_SWEEPS["shuffled"]

    def run(link_of):
        drawn.clear()
        return [_fields(SYSTEMS[system][3](link_of(system), R_TARGET,
                                           10.0 ** (db / 10.0), min_events=EVENTS,
                                           max_trials=CAP))
                for db in sweep for system in pair], list(drawn)

    shared = _declared(pair, CFG, sweep)
    alternating, shared_blocks = run(lambda system: shared)
    own = {system: _declared([system], CFG, sweep) for system in pair}
    separate, own_blocks = run(own.get)
    fresh, _ = run(lambda system: mc.Link(CFG, stream))
    assert alternating == separate == fresh
    assert shared_blocks == [(b, stream, n) for b, n in enumerate(CAP_BLOCKS)]
    assert sorted(own_blocks) == sorted(2 * shared_blocks)


def test_a_link_keeps_one_estimate_per_point(drawn):
    # points of one link per stream, each changing one thing: the kernel,
    # alpha, the target, min_events, the cap or the power names another
    # point, which an undeclared call walks alone.  The uplink ISAC rate is
    # the FDSAC kernel at p_c / rho2: at rho2 = 1 it is the point of FDSAC
    # at alpha = 1, whose estimate waits on the link
    down, up = chan.STREAM_DOWNLINK, chan.STREAM_UPLINK
    many = 20_000  # events: these points stop at the cap
    points = [  # estimator, link, arguments before and after p_c, dB, target,
                # min_events, cap
        (dl.dl_outage_prob, down, (), (), 10.0, 3.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (ALPHA,), (), 10.0, 3.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 10.0, 3.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 10.0, 4.0, EVENTS, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 10.0, 4.0, many, CAP),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 10.0, 4.0, many,
         CAP + chan.BLOCK_SIZE),
        (dl.dl_outage_prob_fdsac, down, (0.9,), (), 11.0, 4.0, many,
         CAP + chan.BLOCK_SIZE),
        (ul.ul_outage_prob_fdsac, up, (1.0,), (), 10.0, 3.0, EVENTS, CAP),
        (ul.ul_outage_prob, up, (), (1.0,), 10.0, 3.0, EVENTS, CAP),
        (ul.ul_outage_prob, up, (), (PROFILE,), 10.0, 3.0, EVENTS, CAP),
    ]
    shared = {s: mc.Link(CFG, s) for s in (down, up)}

    def run(link_of):
        drawn.clear()
        return [_fields(estimate(link_of(stream), r, *before, 10.0 ** (db / 10.0),
                                 *after, min_events=events, max_trials=cap))
                for estimate, stream, before, after, db, r, events, cap in points]

    once = run(shared.get)
    walks = [sum(key[:2] == (0, s) for key in drawn) for s in (down, up)]
    assert once == run(lambda s: mc.Link(CFG, s))
    assert [len(shared[s].estimates) for s in (down, up)] == walks == [7, 2]
    assert run(shared.get) == once and drawn == []


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_point_that_fails_leaves_the_trail_whole(system, monkeypatch):
    # the third block drawn fails in the walk of the first point; the sweep
    # goes on over the same link, whose next point walks afresh
    stream, _, _, outage, _ = SYSTEMS[system]
    sample, calls = chan.sample_channel_block, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("no draw")
        return sample(*args)

    sweep = TRAIL_SWEEPS["ascending"]
    link = _declared([system], CFG, sweep)
    monkeypatch.setattr(chan, "sample_channel_block", failing)
    walked = []
    for db in sweep:
        try:
            walked.append(_fields(outage(link, R_TARGET, 10.0 ** (db / 10.0),
                                         min_events=EVENTS, max_trials=CAP)))
        except ArithmeticError:
            walked.append(None)
    monkeypatch.undo()
    fresh = [_fields(outage(mc.Link(CFG, stream), R_TARGET, 10.0 ** (db / 10.0),
                            min_events=EVENTS, max_trials=CAP))
             for db in sweep]
    assert walked.count(None) == 1
    assert [w for w in walked if w] == [f for w, f in zip(walked, fresh) if w]


@pytest.mark.parametrize("arg, value", [
    ("min_events", 0), ("alpha", 1.5), ("alpha", -0.5), ("r_target", -1.0),
    ("p_c", -1.0), ("max_trials", 0)])
def test_a_link_checks_its_declared_points_before_any_draw(arg, value, drawn):
    # each declared point passes its estimator's input checks when it is
    # declared, ergodic (no stop) or outage, and a bad one leaves the link's
    # declaration as it was
    point = dict(alpha=ALPHA, p_c=P_C)
    stop = dict(r_target=R_TARGET, min_events=EVENTS, max_trials=CAP)
    (point if arg in point else stop)[arg] = value
    link = mc.Link(CFG, chan.STREAM_UPLINK)
    link.declare([(ALPHA, P_C)], STOP)
    for kind in [tuple(stop.values())] + [None] * (arg in point):
        with pytest.raises(ModelError):
            link.declare([(ALPHA, P_C), tuple(point.values())], kind)
    assert drawn == []
    walked = ul.ul_outage_prob_fdsac(link, R_TARGET, ALPHA, P_C, min_events=EVENTS,
                                     max_trials=CAP)
    assert link.estimates.keys() == {(ul.ul_rate_batch, STOP, (ALPHA, P_C))}
    assert _fields(walked) == _fields(ul.ul_outage_prob_fdsac(
        mc.Link(CFG, chan.STREAM_UPLINK), R_TARGET, ALPHA, P_C, min_events=EVENTS,
        max_trials=CAP))


def test_a_declared_point_that_needs_no_trial_joins_no_walk(drawn):
    # zero power or bandwidth, or a zero target: the closed form with no
    # trial, while the one point that needs trials walks alone
    up = chan.STREAM_UPLINK
    quiet = [(ALPHA, 0.0), (0.0, P_C)]
    link = mc.Link(CFG, up)
    for r_target in (0.0, R_TARGET):
        link.declare(quiet + [(ALPHA, P_C)], (r_target, EVENTS, CAP))
        for alpha, p in quiet + [(ALPHA, P_C)] * (r_target == 0.0):
            est = ul.ul_outage_prob_fdsac(link, r_target, alpha, p, min_events=EVENTS,
                                          max_trials=CAP)
            assert _fields(est) == (float(r_target > 0.0), 0.0, 0)
    link.declare(quiet + [(ALPHA, P_C)])
    for alpha, p in quiet:
        assert _fields(ul.ul_ecr_fdsac(link, alpha, p)) == (0.0, 0.0, 0)
    assert drawn == [] and link.estimates == {}
    link.declare(quiet + [(ALPHA, P_C)], STOP)
    walked = ul.ul_outage_prob_fdsac(link, R_TARGET, ALPHA, P_C, min_events=EVENTS,
                                     max_trials=CAP)
    assert link.estimates.keys() == {(ul.ul_rate_batch, STOP, (ALPHA, P_C))}
    assert _fields(walked) == _fields(ul.ul_outage_prob_fdsac(
        mc.Link(CFG, up), R_TARGET, ALPHA, P_C, min_events=EVENTS, max_trials=CAP))


def _estimate(link, kernel, stop, point):
    # the estimate of a point (alpha, p_c) under a stop: ergodic for None
    alpha, p_c = point
    if stop is None:
        return mc.ergodic(link, link.stream, kernel, p_c, alpha)
    r_target, min_events, cap = stop
    return mc.outage(link, link.stream, kernel, r_target, p_c, alpha, min_events, cap)


@pytest.mark.parametrize("stop", [None, STOP], ids=["ergodic", "outage"])
def test_two_kernels_asking_for_one_declared_point_get_a_pass_each(stop, drawn):
    # a declared point names no kernel: the first call of each kernel
    # computes every declared point for that kernel in a pass of its own
    down = chan.STREAM_DOWNLINK
    cfg = replace(CFG, trials=chan.BLOCK_SIZE + 5)
    points = [(1.0, 10.0), (ALPHA, 10.0), (1.0, 30.0)]
    rows = []

    def counted(h, p):
        rows.append(len(h))
        return dl.dl_sum_rate_batch(h, p)

    link = mc.Link(cfg, down)
    link.declare(points, stop)
    real = _estimate(link, dl.dl_sum_rate_batch, stop, points[1])
    blocks = len(drawn)
    assert rows == []
    stand_in = _estimate(link, counted, stop, points[1])
    assert rows
    if stop is not None:  # the stand-in's walk draws its blocks again
        assert len(drawn) == 2 * blocks
    fresh = _estimate(mc.Link(cfg, down), dl.dl_sum_rate_batch, stop, points[1])
    assert _fields(real) == _fields(stand_in) == _fields(fresh)
    assert link.estimates.keys() == {(kernel, stop, point) for point in points
                                     for kernel in (dl.dl_sum_rate_batch, counted)}
    calls = len(rows)
    for point in points:
        assert _fields(_estimate(link, counted, stop, point)) == _fields(
            _estimate(mc.Link(cfg, down), dl.dl_sum_rate_batch, stop, point))
    assert len(rows) == calls


@pytest.mark.parametrize("other", [(R_TARGET, EVENTS, 77), None],
                         ids=["outage", "ergodic"])
def test_one_point_under_two_stops_gets_an_estimate_of_each(other):
    # the declared stop walks every declared point; the same point under
    # another stop is a pass of one, and neither estimate stands in for
    # the other
    up, kernel = chan.STREAM_UPLINK, ul.ul_rate_batch
    cfg = replace(CFG, trials=chan.BLOCK_SIZE + 5)
    points = [(1.0, 10.0), (ALPHA, 10.0), (1.0, 30.0)]
    link = mc.Link(cfg, up)
    link.declare(points, STOP)
    ests = {stop: _estimate(link, kernel, stop, points[1]) for stop in (STOP, other)}
    for stop, est in ests.items():
        assert _fields(est) == _fields(_estimate(mc.Link(cfg, up), kernel, stop,
                                                 points[1]))
    assert _fields(ests[STOP]) != _fields(ests[other])
    assert link.estimates.keys() == {(kernel, STOP, point) for point in points} | {
        (kernel, other, points[1])}


# Random declared sets.  Several systems of one link (alpha, target, trial
# cap, min_events) each have points at two to four powers; the link
# declares some of the points under one system's stop, then, halfway
# through the calls, another set under another stop, and the calls, each a
# point under its own system's stop or under another system's (a walk of
# one unless declared), come in a random order; one draw in ten fails.  At
# K = 1 both kernels equal the single-user floor, and each target lies
# SLACK / 2 below the rate of a trial at its system's lowest power, so that
# trial is a candidate only by the slack.
INTERLEAVINGS = 8


def _interleaving(rng, stream, cfg):
    # the stops of the systems of one link, and its calls in order, each a
    # (stop, point)
    size = chan.BLOCK_SIZE
    kernel = dl.dl_sum_rate_batch if stream == chan.STREAM_DOWNLINK else ul.ul_rate_batch
    root = DL_ROOT if stream == chan.STREAM_DOWNLINK else UL_ROOT
    stops, calls = [], []
    for _ in range(int(rng.integers(2, 5))):
        alpha = float(rng.choice([1.0, 1.0, 0.8, 0.5, 0.3]))
        powers = 10.0 ** (rng.uniform(0.8, 1.8, int(rng.integers(2, 5))))
        if cfg.K == 1:
            h = chan.sample_channel_block(root, 1, cfg.seed, 0, stream)
            rates = alpha * kernel(h, powers.min() / alpha)
            target = float(rates[rng.integers(len(rates))]) - mc.SLACK / 2
        else:
            target = float(rng.uniform(2.0, 5.0))
        cap = int(rng.integers(1, 5)) * size + int(rng.integers(1, size))
        stops.append((target, int(rng.choice([1, 30, 300, 3000])), cap))
        calls += [(stops[-1], (alpha, float(p))) for p in powers]
    calls += [(stops[rng.integers(len(stops))], point)
              for _, point in calls if rng.random() < 0.3]
    return stops, [calls[i] for i in rng.permutation(len(calls))]


@pytest.mark.parametrize("case", range(INTERLEAVINGS))
@pytest.mark.parametrize("columns", [1, 2], ids=["k1", "k2"])
@pytest.mark.parametrize("stream", [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK],
                         ids=["downlink", "uplink"])
def test_random_interleavings_give_each_point_the_fresh_estimate(
        stream, columns, case, monkeypatch):
    cfg = replace(CFG, K=columns, seed=100 + case)
    rng = np.random.default_rng([stream, columns, case])
    stops, calls = _interleaving(rng, stream, cfg)
    kernel = dl.dl_sum_rate_batch if stream == chan.STREAM_DOWNLINK else ul.ul_rate_batch
    points = list(dict.fromkeys(point for _, point in calls))
    # two declarations, each a random set of points under a random stop
    declarations = [(stops[rng.integers(len(stops))],
                     [point for point in points if rng.random() < 0.7])
                    for _ in range(2)]
    sample = chan.sample_channel_block
    fail = {"on": False}

    def failing(*args):
        if fail["on"] and rng.random() < 0.1:
            raise ArithmeticError("no draw")
        return sample(*args)

    def fresh(stop, point):
        return _fields(_estimate(mc.Link(cfg, stream), kernel, stop, point))

    monkeypatch.setattr(chan, "sample_channel_block", failing)
    link, failures = mc.Link(cfg, stream), 0
    for i, (stop, point) in enumerate(calls):
        if i in (0, len(calls) // 2):
            declared_stop, declared = declarations[i > 0]
            link.declare(declared, declared_stop)
        before = dict(link.estimates)
        fail["on"] = True
        try:
            est = _estimate(link, kernel, stop, point)
        except ArithmeticError:
            # a call that raises leaves the link's estimates as they were
            failures += 1
            assert link.estimates.keys() == before.keys()
            assert all(link.estimates[k] is before[k] for k in before)
            continue
        finally:
            fail["on"] = False
        assert _fields(est) == fresh(stop, point)
        assert all(link.estimates[k] is before[k] for k in before)
        if (kernel, stop, point) in before:
            assert link.estimates.keys() == before.keys()
        elif stop == declared_stop and point in declared:
            # the walk left every declared point's estimate on the link
            assert {(kernel, stop, p) for p in declared} <= link.estimates.keys()
        else:
            # a walk of one
            assert link.estimates.keys() - before.keys() == {(kernel, stop, point)}
    assert failures < len(calls)
    for (k, stop, point), est in link.estimates.items():
        assert k is kernel and _fields(est) == fresh(stop, point)


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


# Declared ergodic points.  A link that declares the points (alpha, p_c)
# of an ISAC and an FDSAC system computes them all in one pass, the
# rows of several points to a kernel call in a block of at most half the
# block size; every estimate must equal, field for field, the one a fresh
# link without declarations gives.  BLOCK_SIZE is 64 here: 141 trials are
# blocks of 64, 64 and 13 trials, whose points run one, one and four to a
# call; 5 trials run twelve to a call.
SWEEP_DB = [30.0, 0.0, 60.0, 10.0, 30.0, 45.0, -5.0, 20.0]  # unsorted, 30 dB twice
ASKED_DB = [45.0, 30.0, 25.0, 60.0, -5.0, 30.0, 0.0, 20.0, 10.0]  # 25 dB is undeclared


@pytest.mark.parametrize("trials, blocks", [(141, [64, 64, 13]), (5, [5])],
                         ids=["blocks_64_64_13", "block_5"])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("rho", [0.5, 0.999999])
@pytest.mark.parametrize("columns", [1, 2, 3, 4])
@pytest.mark.parametrize("stream", [chan.STREAM_DOWNLINK, chan.STREAM_UPLINK],
                         ids=["downlink", "uplink"])
def test_a_swept_link_gives_each_point_the_fresh_estimate(stream, columns, rho, alpha,
                                                          trials, blocks, monkeypatch):
    monkeypatch.setattr(chan, "BLOCK_SIZE", 64)
    dim = max(columns, 2)
    cfg = SimConfig(M=dim, N=dim, K=columns, L=4, rho_cu=rho, trials=trials,
                    seed=columns)
    kernel = dl.dl_sum_rate_batch if stream == chan.STREAM_DOWNLINK else ul.ul_rate_batch
    rows = []

    def counted(h, p):
        rows.append(len(h))
        return kernel(h, p)

    # the ISAC (alpha 1) and FDSAC points of one link, and a silent 0
    shares = sorted({1.0, alpha})
    swept = mc.Link(cfg, stream)
    swept.declare([(a, 10.0 ** (db / 10.0)) for db in SWEEP_DB for a in shares]
                  + [(1.0, 0.0)])
    for db in ASKED_DB + [None]:
        p_c = 0.0 if db is None else 10.0 ** (db / 10.0)
        for a in shares:
            fresh = mc.ergodic(mc.Link(cfg, stream), stream, kernel, p_c, a)
            assert _fields(mc.ergodic(swept, stream, counted, p_c, a)) == _fields(fresh)
    # the seven declared powers in one pass, then 25 dB alone
    points = 7 * len(shares)
    assert len(rows) == sum(-(-points // (64 // n)) + len(shares) for n in blocks)
    assert max(rows) <= 64


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
