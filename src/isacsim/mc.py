"""The Monte Carlo engine behind every stochastic estimate.

An estimate averages a per-trial quantity over trials 0, 1, 2, ... of one
channel stream, drawn a block of ``channel.BLOCK_SIZE`` trials at a time.
Every estimator of both links, ISAC and FDSAC alike, runs through here:
the FDSAC rate with bandwidth share alpha is alpha * R(p_c / alpha), and
alpha = 1 gives the ISAC rate R(p_c) exactly.  ``stream`` names the link
(``STREAM_DOWNLINK`` or ``STREAM_UPLINK``) and ``rate(h, p)`` gives the
per-trial rates R of a block h of its channels at power p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .numerics import ModelError

__all__ = ["MonteCarloEstimate", "blocks", "outage", "ergodic"]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Return contract of every stochastic operation."""

    mean: float
    std_error: float
    trials: int
    seed: int


def blocks(corr, columns, seed, stream, trials):
    """Yield the channels of trials 0 .. trials-1, one block at a time.

    Each block is drawn whole and cut to the trials still wanted, so trial
    t is the same draw whatever ``trials`` is.
    """
    size, trials = chan.BLOCK_SIZE, int(trials)
    for start in range(0, trials, size):
        yield chan.sample_channel_block(corr, columns, seed, start // size,
                                        stream)[:trials - start]


def _link_blocks(cfg, stream, trials):
    # downlink channels are correlated at the BS, uplink ones i.i.d.
    if stream == chan.STREAM_UPLINK:
        corr = chan.CorrelationMatrix(np.eye(cfg.N, dtype=complex),
                                      "receive_identity")
    else:
        corr = cfg.r_cu()
    return blocks(corr, cfg.K, cfg.seed, stream, trials)


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
    a silent link always is, so both return without a trial.
    """
    if _silent(p_c, alpha, r_target, max_trials) or r_target == 0.0:
        return MonteCarloEstimate(float(r_target > 0.0), 0.0, cfg.trials, cfg.seed)
    events = done = 0
    for h in _link_blocks(cfg, stream, max_trials):
        events += int(np.count_nonzero(alpha * rate(h, p_c / alpha) < r_target))
        done += len(h)
        if events >= min_events:
            break
    p = events / done
    se = math.sqrt(max(p * (1.0 - p), 0.0) / done)
    return MonteCarloEstimate(mean=p, std_error=se, trials=done, seed=cfg.seed)


def ergodic(cfg, stream, rate, p_c, alpha=1.0, trials=None) -> MonteCarloEstimate:
    """Mean of alpha * rate(H, p_c / alpha) over exactly ``trials`` trials."""
    trials = cfg.trials if trials is None else int(trials)
    if _silent(p_c, alpha, 0.0, trials):
        return MonteCarloEstimate(0.0, 0.0, trials, cfg.seed)
    total = total_sq = 0.0
    for h in _link_blocks(cfg, stream, trials):
        rates = alpha * rate(h, p_c / alpha)
        total += float(np.sum(rates))
        total_sq += float(np.sum(rates * rates))
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return MonteCarloEstimate(mean=mean, std_error=math.sqrt(var / trials),
                              trials=trials, seed=cfg.seed)
