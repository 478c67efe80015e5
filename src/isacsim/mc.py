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
by R_cu, whose root each ``Link`` computes once.  A point is (alpha, p_c),
the bandwidth share and kernel power that an estimator hands to this
module, and a sweep declares its points under one stop rule
(``Link.declare``).  The first estimate of a declared point under that
stop computes, for the estimate's kernel, every declared point the link
lacks in one pass over the blocks; any other point is a pass of one.  The
estimates wait on the link, keyed by (kernel, stop, point), until their
own calls return them, so the order of the calls changes no estimate, and
a pass that raises leaves the link as it was.

In a pass, every kernel call of a block goes through one packer: the rows
that the points need are stacked along the trial axis, at most a block's
rows to a call, each at its own point's power p_c / alpha and scaled by
its own alpha.  So stacking changes no bit of any rate.  A rate that is
not finite (a kernel that overflows) raises ``ArithmeticError``.

- Ergodic: an estimate runs a fixed number of trials, so every point of a
  link averages the link's one draw set, each summing its own rows into
  its own totals in block order.
- Outage: a stop is (r_target, min_events, max_trials), and an estimate
  stops at a trial that depends on the data, so a pass walks blocks 0,
  1, ... until every point has stopped by the per-block stopping rule of
  a walk of its own.  Each block is drawn once, as far as the trial cap
  needs, and its floor gains are computed once.  A point runs the kernel
  only on the trials whose floor lies below the target plus ``SLACK``
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
    numbers, 16 bytes each), the points its driver declares, and the
    estimates computed so far (``estimates``, by (kernel, stop, point))."""

    def __init__(self, cfg, stream):
        self.cfg, self.stream = cfg, stream
        self._root = (np.eye(cfg.N, dtype=complex) if stream == chan.STREAM_UPLINK
                      else matrix_sqrt_psd(cfg.r_cu()))
        # the floor gain of each trial from its users' gains (K, n)
        self._gain = np.sum if stream == chan.STREAM_UPLINK else np.max
        self._stop, self._points = None, ()
        self.estimates = {}
        self._draws = None

    def declare(self, points, stop=None):
        """Declare the points (alpha, p_c) of a sweep under one stop: None
        for ergodic points, (r_target, min_events, max_trials) for outage
        points.  Each point is checked as its estimator checks it, and one
        that needs no trial is dropped.  The points replace those declared
        before; the estimates already computed stay."""
        self._points = tuple(point for point in dict.fromkeys(points)
                             if not _needless(self, self.stream, stop, *point))
        self._stop = stop

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


def _estimate(link, rate, stop, point):
    # The estimate of ``point`` under ``stop``: the first call of a declared
    # point computes every declared point the link lacks for this kernel in
    # one pass, any other call a pass of one.
    key = (rate, stop, point)
    if key not in link.estimates:
        points = [point]
        if stop == link._stop and point in link._points:
            points = [p for p in link._points if (rate, stop, p) not in link.estimates]
        found = _walk(link, rate, stop, points) if stop else _means(link, rate, points)
        link.estimates.update(((rate, stop, p), est) for p, est in found.items())
    return link.estimates[key]


def _rates(h, rate, jobs):
    # Yield (point, alpha * rate(h[rows], p_c / alpha)) for each job, a
    # point (alpha, p_c) and the rows of block h it needs (see the module
    # docstring).  The jobs share calls in order, at most BLOCK_SIZE rows
    # to a call, stacked in h's trial-minor layout; a job alone in its call
    # over the whole block gets h itself.
    calls, room = [], 0
    for point, rows in jobs.items():
        if len(rows):
            if room < len(rows):
                calls.append([])
                room = chan.BLOCK_SIZE
            calls[-1].append(point)
            room -= len(rows)
    for call in calls:
        sizes = [len(jobs[point]) for point in call]
        if sizes == [len(h)]:
            alpha, p_c = call[0]
            rates = rate(h, p_c / alpha)
        else:
            rows = np.concatenate([jobs[point] for point in call])
            stack = np.take(h.transpose(1, 2, 0), rows, axis=2).transpose(2, 0, 1)
            rates = rate(stack, np.repeat([p_c / alpha for alpha, p_c in call], sizes))
        if not np.all(np.isfinite(rates)):
            raise ArithmeticError("a rate kernel returned a rate that is not finite")
        for point, own in zip(call, np.split(rates, np.cumsum(sizes)[:-1])):
            yield point, point[0] * own


def outage(link, stream, rate, r_target, p_c, alpha, min_events,
           max_trials) -> MonteCarloEstimate:
    """Probability that alpha * rate(H, p_c / alpha) falls below
    ``r_target``, over the channels of a ``Link`` of stream ``stream``.

    Blocks are counted in order until at least ``min_events`` outages have
    been seen or ``max_trials`` is reached, whichever comes first; the
    binomial standard error is reported.  The first estimate of a point
    the link declares under this stop walks the blocks for every declared
    point it lacks, and later ones return the estimate that waits on the
    link; any other point is a walk of one.  A zero target is never missed
    and a silent link always is, so both return without a trial:
    trials = 0.
    """
    stop = (r_target, min_events, max_trials)
    if _needless(link, stream, stop, alpha, p_c):
        return MonteCarloEstimate(float(r_target > 0.0), 0.0, 0)
    return _estimate(link, rate, stop, (alpha, p_c))


def _walk(link, rate, stop, points):
    # The outage estimates of ``points`` under ``stop`` from one walk over
    # blocks 0, 1, ... (see the module docstring), by point.
    r_target, min_events, max_trials = stop
    events, out = dict.fromkeys(points, 0), {}
    size, block = chan.BLOCK_SIZE, 0
    while len(out) < len(points):
        trials = min(max_trials, (block + 1) * size)
        # h stays referenced until the next block is drawn, as in a loop
        # over ``Link.blocks``: freed earlier, its pages go back to the
        # system and fault in again at the next draw
        h = link.block(block, trials - block * size)
        hb = h.transpose(1, 2, 0)
        gains = link._gain(np.einsum("ikn,ikn->kn", hb.real, hb.real)
                           + np.einsum("ikn,ikn->kn", hb.imag, hb.imag), axis=0)
        # the candidates of each live point: the trials below its floor
        jobs = {point: np.flatnonzero(gains < _floor(*point, r_target))
                for point in points if point not in out}
        for point, rates in _rates(h, rate, jobs):
            events[point] += int(np.count_nonzero(rates < r_target))
        for point in jobs:
            if events[point] >= min_events or trials == max_trials:
                p = events[point] / trials
                se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
                out[point] = MonteCarloEstimate(mean=p, std_error=se, trials=trials)
        block += 1
    return out


def _floor(alpha, p_c, r_target):
    # The floor gain g from which alpha * log2(1 + (p_c / alpha) g) >=
    # r_target + SLACK: no floor (infinity) where 2 ** x overflows a float.
    try:
        return (2.0 ** ((r_target + SLACK) / alpha) - 1.0) * alpha / p_c
    except OverflowError:
        return math.inf


def _needless(link, stream, stop, alpha, p_c):
    # The one input check of every estimator, for a point under ``stop``;
    # True when the estimate needs no trial: zero power or bandwidth
    # carries no rate, and a zero target is never missed.
    if link.stream != stream:
        raise ModelError("the link is the other stream")
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    if p_c < 0.0:
        raise ModelError("p_c must be nonnegative")
    if stop is None:
        return p_c == 0.0 or alpha == 0.0
    r_target, min_events, max_trials = stop
    if r_target < 0.0:
        raise ModelError("target rate must be nonnegative")
    if min_events < 1:
        raise ModelError("min_events must be positive")
    if max_trials < 1:
        raise ModelError("trials must be positive")
    return p_c == 0.0 or alpha == 0.0 or r_target == 0.0


def ergodic(link, stream, rate, p_c, alpha) -> MonteCarloEstimate:
    """Mean of alpha * rate(H, p_c / alpha) over every trial of the draw
    set of a ``Link`` of stream ``stream``, block by block; a silent link
    carries rate 0 without a trial.

    The first estimate of a point the link declares with no stop computes
    every declared point it lacks, and later ones return the estimate that
    waits on the link; any other point is a curve of one.
    """
    if _needless(link, stream, None, alpha, p_c):
        return MonteCarloEstimate(0.0, 0.0, 0)
    return _estimate(link, rate, None, (alpha, p_c))


def _means(link, rate, points):
    # The ergodic estimates of ``points`` from one pass over the draw set.
    trials, sums = link.cfg.trials, {point: [0.0, 0.0] for point in points}
    for h in link.draws():
        for point, rates in _rates(h, rate, dict.fromkeys(points, np.arange(len(h)))):
            sums[point][0] += float(np.sum(rates))
            sums[point][1] += float(np.sum(rates * rates))
    out = {}
    for point, (total, total_sq) in sums.items():
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        out[point] = MonteCarloEstimate(mean=mean, std_error=math.sqrt(var / trials),
                                        trials=trials)
    return out
