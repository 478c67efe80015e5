"""The Monte Carlo engine behind every stochastic estimate.

An estimate averages a per-trial quantity over trials 0, 1, 2, ... of one
channel stream, drawn a block of ``channel.BLOCK_SIZE`` trials at a time.
Every estimator of both links, ISAC and FDSAC alike, runs through here:
the FDSAC rate with bandwidth share alpha is alpha * R(p_c / alpha), and
alpha = 1 gives the ISAC rate R(p_c) exactly.  ``stream`` names the link
(``STREAM_DOWNLINK`` or ``STREAM_UPLINK``) and ``rate(h, p)`` gives the
per-trial rates R of a block h of its channels at power p, one power or
one per trial, each trial's rate bit for bit that of a call at its power
alone.

Every estimate runs over a ``Link``, which a sweep builds once per link.
A ``Link`` is the one map from a stream to its channels: uplink channels
are i.i.d., and downlink and covariance channels are correlated at the BS
by R_cu, whose root each ``Link`` computes once.  A link also knows the
points its driver declares, each the key of its estimator's call: the
first estimate of a declared point computes every declared point of its
kind that the link lacks in one pass over the blocks, and an undeclared
point is a pass of one.  The estimates wait on the link until their own
calls return them, so the order of the calls changes no estimate, and a
pass that raises leaves the link as it was.

In a pass, every kernel call of a block goes through one packer: the rows
that the points of one kernel need are stacked along the trial axis, at
most a block's rows to a call, each at its own point's power p_c / alpha
and scaled by its own alpha.  So stacking changes no bit of any rate.  A
rate that is not finite (a kernel that overflows) raises
``ArithmeticError``.

- Ergodic: an estimate runs a fixed number of trials, so every point of a
  link averages the link's one draw set, each summing its own rows into
  its own totals in block order.
- Outage: an estimate stops at a trial that depends on the data, so a
  pass walks blocks 0, 1, ... until every point has stopped by the
  per-block stopping rule of a walk of its own.  Each block is drawn
  once, as far as the largest trial cap of a live point needs, and its
  floor gains are computed once.  A point runs the kernel only on the
  trials within its cap whose floor lies below its target plus ``SLACK``
  bits.
- Floor: every rate here is at least log2(1 + p g) for a gain g that the
  link's stream sets.  On the downlink the users share p, and g is the
  best user's gain max_k |h_k|^2: the sum of the users' gains is no floor
  there (two orthogonal users of gain g give 2 log2(1 + p g / 2), below
  log2(1 + 2 p g)).  On the uplink each user sends at p, and g is
  ||H||_F^2, since det(I + p H H^H) >= 1 + p tr(H H^H).  ``SLACK`` lies
  far above any kernel's rounding error, so a trial the floor decides
  could not be an outage of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .numerics import ModelError, matrix_sqrt_psd

__all__ = ["MonteCarloEstimate", "Link", "outage", "ergodic"]

# bits the floor must clear the target by: far above the error of every
# rate kernel (the K >= 3 solve is certified to 1e-9 bit)
SLACK = 1e-6


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Return contract of every stochastic operation."""

    mean: float
    std_error: float
    trials: int


class Link:
    """The Monte Carlo state of one stream of cfg: its correlation root,
    the read-only draw set of its trials 0 .. cfg.trials-1, drawn on first
    use and shared by every ergodic estimate (cfg.trials * dim * K complex
    numbers, 16 bytes each), the points its driver declares (``ergodic``
    and ``outages``, keys as in ``ergodic`` and ``outage``, each checked
    as its estimator checks it; a point that needs no trial is dropped),
    and the estimates computed so far (``estimates``, by key)."""

    def __init__(self, cfg, stream, ergodic=(), outages=()):
        self.cfg, self.stream = cfg, stream
        self._root = (np.eye(cfg.N, dtype=complex) if stream == chan.STREAM_UPLINK
                      else matrix_sqrt_psd(cfg.r_cu()))
        # the floor gain of each trial from its users' gains (K, n)
        self._gain = np.sum if stream == chan.STREAM_UPLINK else np.max
        self.ergodic = tuple(key for key in dict.fromkeys(ergodic) if not
                             _silent(self, stream, key[1], key[2], 0.0, cfg.trials))
        self.outages = tuple(point for point in dict.fromkeys(outages)
                             if not _idle(self, stream, point))
        self.estimates = {}
        self._draws = None

    def block(self, block, trials):
        """The channels (trials, dim, cfg.K) of the first ``trials`` trials
        of block ``block``: trial t is the same draw whatever ``trials`` is."""
        return chan.sample_channel_block(self._root, self.cfg.K, self.cfg.seed,
                                         block, self.stream, trials)

    def blocks(self, trials):
        """Yield the channels of trials 0 .. trials-1, one block at a time,
        the last drawn only up to the trials still wanted."""
        size = chan.BLOCK_SIZE
        for start in range(0, trials, size):
            yield self.block(start // size, min(size, trials - start))

    def draws(self) -> tuple:
        """The ergodic draw set, drawn on the first call."""
        if self._draws is None:
            self._draws = tuple(self.blocks(self.cfg.trials))
            for h in self._draws:
                h.flags.writeable = False
        return self._draws


def _estimate(link, key, declared, estimate):
    # The estimate of ``key``: a declared key's first call computes every
    # declared key the link lacks in one pass, any other key a pass of one.
    if key not in link.estimates:
        keys = [k for k in declared if k not in link.estimates]
        link.estimates.update(estimate(link, keys if key in declared else [key]))
    return link.estimates[key]


def _rates(h, jobs):
    # Yield (key, alpha * rate(h[rows], p_c / alpha)) for each job key:
    # (rate, p_c, alpha, rows) of block h that has rows (see the module
    # docstring).  The jobs of one kernel share its calls in order, at most
    # BLOCK_SIZE rows to a call, stacked in h's trial-minor layout; a job
    # alone in its call over the whole block gets h itself.
    calls, last = [], {}  # (rate, keys) of each call; the last call of a rate
    for key, (rate, _, _, rows) in jobs.items():
        if len(rows):
            call = last.get(rate)
            if call is None or chan.BLOCK_SIZE < len(rows) + sum(
                    len(jobs[k][3]) for k in call):
                call = last[rate] = []
                calls.append((rate, call))
            call.append(key)
    for rate, call in calls:
        part = [jobs[key] for key in call]
        sizes = [len(rows) for *_, rows in part]
        if sizes == [len(h)]:
            rates = rate(h, part[0][1] / part[0][2])
        else:
            rows = np.concatenate([rows for *_, rows in part])
            stack = np.take(h.transpose(1, 2, 0), rows, axis=2).transpose(2, 0, 1)
            rates = rate(stack, np.repeat([p_c / alpha for _, p_c, alpha, _ in part],
                                          sizes))
        if not np.all(np.isfinite(rates)):
            raise ArithmeticError("a rate kernel returned a rate that is not finite")
        for key, (_, _, alpha, _), own in zip(call, part,
                                              np.split(rates, np.cumsum(sizes)[:-1])):
            yield key, alpha * own


def outage(link, stream, rate, r_target, p_c, alpha, min_events,
           max_trials) -> MonteCarloEstimate:
    """Probability that alpha * rate(H, p_c / alpha) falls below
    ``r_target``, over the channels of a ``Link`` of stream ``stream``.

    Blocks are counted in order until at least ``min_events`` outages have
    been seen or ``max_trials`` is reached, whichever comes first; the
    binomial standard error is reported.  The first estimate of a point
    the link declares walks the blocks for every declared point it lacks,
    and later ones return the estimate that waits on the link; any other
    point is a walk of one.  A zero target is never missed and a silent
    link always is, so both return without a trial: trials = 0.
    """
    point = (rate, alpha, r_target, max_trials, p_c, min_events)
    if _idle(link, stream, point):
        return MonteCarloEstimate(float(r_target > 0.0), 0.0, 0)
    return _estimate(link, point, link.outages, _walk)


def _walk(link, points):
    # The estimates of outage ``points`` from one walk over blocks 0, 1, ...
    # (see the module docstring), by point.
    events, out = dict.fromkeys(points, 0), {}
    size, block = chan.BLOCK_SIZE, 0
    while len(out) < len(points):
        live = [point for point in points if point not in out]
        start = block * size
        # h stays referenced until the next block is drawn, as in a loop
        # over ``Link.blocks``: freed earlier, its pages go back to the
        # system and fault in again at the next draw
        h = link.block(block, min(size, max(point[3] for point in live) - start))
        hb = h.transpose(1, 2, 0)
        gains = link._gain(np.einsum("ikn,ikn->kn", hb.real, hb.real)
                           + np.einsum("ikn,ikn->kn", hb.imag, hb.imag), axis=0)
        # the candidates of each (rate, alpha, r_target, cap, p_c): the
        # trials within its cap below its floor
        jobs = {key: (key[0], key[4], key[1], np.flatnonzero(
                    gains[:key[3] - start] < _floor(key[1], key[2], key[4])))
                for key in (point[:5] for point in live)}
        found = {key: int(np.count_nonzero(rates < key[2]))
                 for key, rates in _rates(h, jobs)}
        for point in live:
            events[point] += found.get(point[:5], 0)
            trials = min(point[3], start + size)
            if events[point] >= point[5] or trials == point[3]:
                p = events[point] / trials
                se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
                out[point] = MonteCarloEstimate(mean=p, std_error=se, trials=trials)
        block += 1
    return out


def _floor(alpha, r_target, p_c):
    # The floor gain g from which alpha * log2(1 + (p_c / alpha) g) >=
    # r_target + SLACK: no floor (infinity) where 2 ** x overflows a float.
    try:
        return (2.0 ** ((r_target + SLACK) / alpha) - 1.0) * alpha / p_c
    except OverflowError:
        return math.inf


def _idle(link, stream, point):
    # The input checks of an outage point; True when it needs no trial.
    _, alpha, r_target, max_trials, p_c, min_events = point
    if min_events < 1:
        raise ModelError("min_events must be positive")
    return _silent(link, stream, p_c, alpha, r_target, max_trials) or r_target == 0.0


def _silent(link, stream, p_c, alpha, r_target, trials):
    # The one input check of every estimator; True when no rate is carried
    # (zero power or zero bandwidth), so the estimate needs no trial.
    if link.stream != stream:
        raise ModelError("the link is the other stream")
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    if r_target < 0.0:
        raise ModelError("target rate must be nonnegative")
    if p_c < 0.0:
        raise ModelError("p_c must be nonnegative")
    if trials < 1:
        raise ModelError("trials must be positive")
    return p_c == 0.0 or alpha == 0.0


def ergodic(link, stream, rate, p_c, alpha) -> MonteCarloEstimate:
    """Mean of alpha * rate(H, p_c / alpha) over every trial of the draw
    set of a ``Link`` of stream ``stream``, block by block; a silent link
    carries rate 0 without a trial.

    The first estimate of a key (rate, p_c, alpha) the link declares
    computes every declared key it lacks, and later ones return the
    estimate that waits on the link; any other key is a curve of one.
    """
    if _silent(link, stream, p_c, alpha, 0.0, link.cfg.trials):
        return MonteCarloEstimate(0.0, 0.0, 0)
    return _estimate(link, (rate, p_c, alpha), link.ergodic, _means)


def _means(link, keys):
    # The ergodic estimates of ``keys`` from one pass over the draw set.
    trials, sums = link.cfg.trials, {key: [0.0, 0.0] for key in keys}
    for h in link.draws():
        every = np.arange(len(h))
        for key, rates in _rates(h, {key: (*key, every) for key in keys}):
            sums[key][0] += float(np.sum(rates))
            sums[key][1] += float(np.sum(rates * rates))
    out = {}
    for key, (total, total_sq) in sums.items():
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        out[key] = MonteCarloEstimate(mean=mean, std_error=math.sqrt(var / trials),
                                      trials=trials)
    return out
