"""The Monte Carlo engine behind every stochastic estimate.

An estimate averages a per-trial quantity over trials 0, 1, 2, ... of one
channel stream, drawn a block of ``channel.BLOCK_SIZE`` trials at a time.
Every estimator of both links, ISAC and FDSAC alike, runs through here:
the FDSAC rate with bandwidth share alpha is alpha * R(p_c / alpha), and
alpha = 1 gives the ISAC rate R(p_c) exactly.  ``stream`` names the link
(``STREAM_DOWNLINK`` or ``STREAM_UPLINK``) and ``rate(h, p)`` gives the
per-trial rates R of a block h of its channels at power p.

An ergodic estimate runs a fixed number of trials, so a sweep draws its
link's channels once (``link_draws``) and hands the same draw set to every
point.  An outage estimate stops at a data-dependent trial, so it draws
its own blocks as it goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .numerics import ModelError

__all__ = ["MonteCarloEstimate", "blocks", "link_draws", "outage", "ergodic"]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Return contract of every stochastic operation."""

    mean: float
    std_error: float
    trials: int


def blocks(corr, columns, seed, stream, trials):
    """Yield the channels of trials 0 .. trials-1, one block at a time.

    Each block is drawn only up to the trials still wanted; trial t is the
    same draw whatever ``trials`` is.
    """
    size, trials = chan.BLOCK_SIZE, int(trials)
    for start in range(0, trials, size):
        yield chan.sample_channel_block(corr, columns, seed, start // size,
                                        stream, min(size, trials - start))


def _link_blocks(cfg, stream, trials):
    # downlink channels are correlated at the BS, uplink ones i.i.d.
    if stream == chan.STREAM_UPLINK:
        corr = chan.CorrelationMatrix(np.eye(cfg.N, dtype=complex))
    else:
        corr = cfg.r_cu()
    return blocks(corr, cfg.K, cfg.seed, stream, trials)


def link_draws(cfg, stream) -> tuple:
    """The draw set of one link: the read-only channel blocks of its trials
    0 .. cfg.trials-1, which every ergodic estimate of a sweep shares.

    It holds cfg.trials * dim * K complex numbers (16 bytes each).
    """
    draws = tuple(_link_blocks(cfg, stream, cfg.trials))
    for h in draws:
        h.flags.writeable = False
    return draws


def _silent(p_c, alpha, r_target, trials):
    # The one input check of every estimator; True when no rate is carried
    # (zero power or zero bandwidth), so the estimate needs no trial.
    if not 0.0 <= alpha <= 1.0:
        raise ModelError("alpha must lie in [0, 1]")
    if r_target < 0.0:
        raise ModelError("target rate must be nonnegative")
    if p_c < 0.0:
        raise ModelError("p_c must be nonnegative")
    if trials < 1:
        raise ModelError("trials must be positive")
    return p_c == 0.0 or alpha == 0.0


def outage(cfg, stream, rate, r_target, p_c, alpha=1.0, min_events=200,
           max_trials=10_000_000) -> MonteCarloEstimate:
    """Probability that alpha * rate(H, p_c / alpha) falls below ``r_target``.

    Whole blocks are processed until at least ``min_events`` outages have
    been seen or ``max_trials`` is reached, whichever comes first; the
    binomial standard error is reported.  A zero target is never missed and
    a silent link always is, so both return without a trial: trials = 0.
    """
    if _silent(p_c, alpha, r_target, max_trials) or r_target == 0.0:
        return MonteCarloEstimate(float(r_target > 0.0), 0.0, 0)
    events = done = 0
    for h in _link_blocks(cfg, stream, max_trials):
        events += int(np.count_nonzero(alpha * rate(h, p_c / alpha) < r_target))
        done += len(h)
        if events >= min_events:
            break
    p = events / done
    se = math.sqrt(max(p * (1.0 - p), 0.0) / done)
    return MonteCarloEstimate(mean=p, std_error=se, trials=done)


def ergodic(draws, rate, p_c, alpha=1.0) -> MonteCarloEstimate:
    """Mean of alpha * rate(H, p_c / alpha) over every trial of a draw set
    (``link_draws``), block by block; a silent link carries rate 0 without
    a trial."""
    trials = sum(len(h) for h in draws)
    if _silent(p_c, alpha, 0.0, trials):
        return MonteCarloEstimate(0.0, 0.0, 0)
    total = total_sq = 0.0
    for h in draws:
        rates = alpha * rate(h, p_c / alpha)
        total += float(np.sum(rates))
        total_sq += float(np.sum(rates * rates))
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return MonteCarloEstimate(mean=mean, std_error=math.sqrt(var / trials),
                              trials=trials)
