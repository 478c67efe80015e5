"""The Monte Carlo engine behind every stochastic estimate.

An estimate averages a per-trial quantity over trials 0, 1, 2, ... of one
channel stream, drawn a block of ``channel.BLOCK_SIZE`` trials at a time.
Every estimator of both links, ISAC and FDSAC alike, runs through here:
the FDSAC rate with bandwidth share alpha is alpha * R(p_c / alpha), and
alpha = 1 gives the ISAC rate R(p_c) exactly.  ``stream`` names the link
(``STREAM_DOWNLINK`` or ``STREAM_UPLINK``) and ``rate(h, p)`` gives the
per-trial rates R of a block h of its channels at power p.  ``blocks`` is
the one map from a stream to its channels: uplink channels are i.i.d., and
downlink and covariance channels are correlated at the BS by R_cu.

Every estimate runs over a ``Link``, which a sweep builds once per link.
An ergodic estimate runs a fixed number of trials, so every one of a link
averages the link's one draw set.  An outage estimate stops at a trial
that depends on the data, so the link instead keeps an outage trail for
each system, which carries its outage trials from one point to the next:

- Every rate is nondecreasing in power, so on the same draws the outages
  at a higher power are among those at a lower one.
- A trail remembers the blocks its points have drawn, and keeps their
  candidates: the trials whose rate at the last point lay below the target
  plus ``SLACK`` bits.
- A point at a power no lower than the last evaluates only the candidates,
  applies the per-block stopping rule to their cumulative counts, and
  draws fresh blocks only past the remembered ones.
- The slack is far above any rate kernel's rounding error, so a trial left
  behind cannot be in outage at the higher power: every estimate keeps the
  bits a fresh trail gives it.
- A point at a lower power starts its system's trail afresh, and a fresh
  trail draws every block as it goes.
- A trail carries fewer than ``min_events`` + ``BLOCK_SIZE`` trials (the
  largest ``min_events`` of its points), besides any whose rate lies
  within the slack of the target: the blocks before the last one it drew
  held fewer than ``min_events`` outages, and at a higher power they hold
  no more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .numerics import ModelError, matrix_sqrt_psd

__all__ = ["MonteCarloEstimate", "Link", "blocks", "outage", "ergodic"]

# bits a carried trial's rate may lie above the target: far above the error
# of every rate kernel (the K >= 3 solve is certified to 1e-9 bit)
SLACK = 1e-6


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Return contract of every stochastic operation."""

    mean: float
    std_error: float
    trials: int


def blocks(cfg, stream, trials, start=0):
    """Yield the channels (T, dim, cfg.K) of stream ``stream``, trials
    start .. trials-1 (``start`` a multiple of ``BLOCK_SIZE``), one block
    at a time.

    Uplink channels (dim N) are i.i.d.; downlink and covariance channels
    (dim M) are correlated by R_cu, whose root is computed once per call.
    Each block is drawn only up to the trials still wanted; trial t is the
    same draw whatever ``trials`` is.
    """
    if stream == chan.STREAM_UPLINK:
        root = np.eye(cfg.N, dtype=complex)
    else:
        root = matrix_sqrt_psd(cfg.r_cu())
    size, trials = chan.BLOCK_SIZE, int(trials)
    for start in range(start, trials, size):
        yield chan.sample_channel_block(root, cfg.K, cfg.seed, start // size,
                                        stream, min(size, trials - start))


class Link:
    """The Monte Carlo state of one link (``stream``) of cfg: the read-only
    draw set of its trials 0 .. cfg.trials-1, drawn on first use and shared
    by every ergodic estimate (cfg.trials * dim * K complex numbers, 16
    bytes each), and one outage trail per system it serves (``trails``,
    keyed by kernel, alpha, target and trial cap)."""

    def __init__(self, cfg, stream):
        self.cfg, self.stream = cfg, stream
        self.trails = {}
        self._draws = None

    def draws(self) -> tuple:
        """The ergodic draw set, drawn on the first call."""
        if self._draws is None:
            self._draws = tuple(blocks(self.cfg, self.stream, self.cfg.trials))
            for h in self._draws:
                h.flags.writeable = False
        return self._draws


class _Trail:
    """What one outage system carries from one point to the next: the
    power of the last point, the trials drawn from each block so far
    (``sizes``), and the candidates as a C-contiguous (dim, K, n) buffer
    (``carried``, so ``carried.transpose(2, 0, 1)`` is a trial-minor batch;
    None until the first block is drawn) with the block of each
    (``block``)."""

    def __init__(self):
        self.p_c, self.sizes, self.carried = 0.0, [], None
        self.block = np.empty(0, dtype=np.intp)


def outage(link, stream, rate, r_target, p_c, alpha, min_events,
           max_trials) -> MonteCarloEstimate:
    """Probability that alpha * rate(H, p_c / alpha) falls below
    ``r_target``, over the channels of a ``Link`` of stream ``stream``.

    Blocks are counted in order until at least ``min_events`` outages have
    been seen or ``max_trials`` is reached, whichever comes first; the
    binomial standard error is reported.  The candidates of the blocks the
    system's trail holds decide their counts, and the point's candidates
    stay in the trail for the next point.  A zero target is never missed
    and a silent link always is, so both return without a trial:
    trials = 0.
    """
    if _silent(link, stream, p_c, alpha, r_target, max_trials) or r_target == 0.0:
        return MonteCarloEstimate(float(r_target > 0.0), 0.0, 0)
    system = (rate, alpha, r_target, max_trials)
    trail = link.trails.get(system)
    if trail is None or p_c < trail.p_c:
        trail = link.trails[system] = _Trail()

    def outages(h):
        # the outage and candidate masks of a trial-minor batch
        rates = alpha * rate(h, p_c / alpha)
        return rates < r_target, rates < r_target + SLACK

    # a point that raises leaves the trail whole: its candidates are those
    # of the power it records, for the blocks it records
    counts = np.zeros(len(trail.sizes), dtype=np.int64)
    if len(trail.block):
        out, keep = outages(trail.carried.transpose(2, 0, 1))
        counts = np.bincount(trail.block[out], minlength=len(trail.sizes))
        trail.carried = np.ascontiguousarray(trail.carried[:, :, keep])
        trail.block = trail.block[keep]
    trail.p_c = p_c
    # the first block whose cumulative count reaches min_events, if any
    stop = int(np.searchsorted(np.cumsum(counts), min_events))
    events = int(counts[:stop + 1].sum())
    done = sum(trail.sizes[:stop + 1])
    if stop == len(counts):
        parts = [] if trail.carried is None else [trail.carried]
        tags, sizes = [trail.block], list(trail.sizes)
        for h in blocks(link.cfg, stream, max_trials, done):
            out, keep = outages(h)
            events += int(np.count_nonzero(out))
            done += len(h)
            parts.append(h.transpose(1, 2, 0)[:, :, keep])
            tags.append(np.full(parts[-1].shape[2], len(sizes)))
            sizes.append(len(h))
            if events >= min_events:
                break
        trail.sizes = sizes
        trail.carried = np.concatenate(parts, axis=2)
        trail.block = np.concatenate(tags)
    p = events / done
    se = math.sqrt(max(p * (1.0 - p), 0.0) / done)
    return MonteCarloEstimate(mean=p, std_error=se, trials=done)


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
    carries rate 0 without a trial."""
    trials = link.cfg.trials
    if _silent(link, stream, p_c, alpha, 0.0, trials):
        return MonteCarloEstimate(0.0, 0.0, 0)
    total = total_sq = 0.0
    for h in link.draws():
        rates = alpha * rate(h, p_c / alpha)
        total += float(np.sum(rates))
        total_sq += float(np.sum(rates * rates))
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return MonteCarloEstimate(mean=mean, std_error=math.sqrt(var / trials),
                              trials=trials)
