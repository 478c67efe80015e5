"""The Monte Carlo engine behind every stochastic estimate.

An estimate averages a per-trial quantity over trials 0, 1, 2, ... of one
channel stream, drawn a block of ``channel.BLOCK_SIZE`` trials at a time.
Every estimator of both links, ISAC and FDSAC alike, runs through here:
the FDSAC rate with bandwidth share alpha is alpha * R(p_c / alpha), and
alpha = 1 gives the ISAC rate R(p_c) exactly.  ``stream`` names the link
(``STREAM_DOWNLINK`` or ``STREAM_UPLINK``) and ``rate(h, p)`` gives the
per-trial rates R of a block h of its channels at power p.

Every estimate runs over a ``Link``, which a sweep builds once per link.
A ``Link`` is the one map from a stream to its channels: uplink channels
are i.i.d., and downlink and covariance channels are correlated at the BS
by R_cu, whose root each ``Link`` computes once.
An ergodic estimate runs a fixed number of trials, so every one of a link
averages the link's one draw set.  An outage estimate stops at a trial
that depends on the data, so the link instead keeps an outage trail for
each system, which carries its outage trials from one point to the next:

- Every rate is nondecreasing in power, so on the same draws the outages
  at a higher power are among those at a lower one.
- A trail holds a set of blocks and keeps their candidates: the trials
  whose rate at its power, that of its last point, lay below the target
  plus ``SLACK`` bits.
- A point at a power no lower than its trail's evaluates only the
  candidates, and walks blocks 0, 1, ... with the per-block stopping rule:
  the candidates count each held block, and every other block is drawn as
  far as the system's trial cap needs.  A point at a lower power starts
  its system's trail afresh.
- Sharing: a point hands each block it draws to every other trail of the
  link that does not hold it.  Each takes it at its own power, so its
  later points, at that power or higher, can count the block from its
  candidates.  A trail so holds blocks with gaps, which its points draw.
- Room: a trail takes a shared block only while it carries fewer than
  ``min_events`` (of its last point) + ``BLOCK_SIZE`` trials, so sharing
  leaves it fewer than ``min_events`` + 2 ``BLOCK_SIZE``.  A point adds the
  candidates of the blocks it draws; those before the last held fewer
  than ``min_events`` outages.  Without the room, a system with frequent
  outages would take every deep block of another.
- Floor: every rate here is at least the best single user's at the whole
  power, log2(1 + p max_k |h_k|^2).  Per block, the gain max_k |h_k|^2 of
  every trial is computed once; a trial whose floor is at least the target
  plus ``SLACK`` is neither an outage nor a candidate, so the kernel runs
  only on the others, drawn or carried.
- ``SLACK``, far above any rate kernel's rounding error, serves twice.  A
  trial left behind lay at least ``SLACK`` above the target, so it cannot
  be in outage at a higher power; and the floor decides a trial only when
  it clears the target by ``SLACK``, so the kernel could not have found an
  outage there.  So every estimate keeps the bits a fresh trail gives it.
- A point commits every trail it changed at its end, so a point that
  raises leaves the whole link as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from .numerics import ModelError, matrix_sqrt_psd

__all__ = ["MonteCarloEstimate", "Link", "outage", "ergodic"]

# bits a carried trial's rate may lie above the target, and that the floor
# must clear it by: far above the error of every rate kernel (the K >= 3
# solve is certified to 1e-9 bit)
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
    numbers, 16 bytes each), and one outage trail per system it serves
    (``trails``, keyed by kernel, alpha, target and trial cap)."""

    def __init__(self, cfg, stream):
        self.cfg, self.stream = cfg, stream
        self._root = (np.eye(cfg.N, dtype=complex) if stream == chan.STREAM_UPLINK
                      else matrix_sqrt_psd(cfg.r_cu()))
        self.trails = {}
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


class _Trail:
    """What one outage system carries from one point to the next: the power
    and ``min_events`` of its last point, the blocks it holds, and their
    candidates as parts, each the block and floor gain of its trials and
    their channels as a C-contiguous (dim, K, n) buffer (so
    ``transpose(2, 0, 1)`` gives a trial-minor batch); ``carried`` counts
    the candidates."""

    def __init__(self, p_c, min_events, held=(), parts=()):
        self.p_c, self.min_events = p_c, min_events
        self.held, self.parts = set(held), list(parts)
        self.carried = sum(len(tags) for tags, _, _ in self.parts)

    def take(self, block, part):
        self.held.add(block)
        self.parts.append(part)
        self.carried += len(part[0])


def outage(link, stream, rate, r_target, p_c, alpha, min_events,
           max_trials) -> MonteCarloEstimate:
    """Probability that alpha * rate(H, p_c / alpha) falls below
    ``r_target``, over the channels of a ``Link`` of stream ``stream``.

    Blocks are counted in order until at least ``min_events`` outages have
    been seen or ``max_trials`` is reached, whichever comes first; the
    binomial standard error is reported.  The candidates of the blocks the
    system's trail holds decide their counts, every other block is drawn,
    and the point's candidates stay in the trail for the next point.  A
    zero target is never missed and a silent link always is, so both
    return without a trial: trials = 0.
    """
    if min_events < 1:
        raise ModelError("min_events must be positive")
    if _silent(link, stream, p_c, alpha, r_target, max_trials) or r_target == 0.0:
        return MonteCarloEstimate(float(r_target > 0.0), 0.0, 0)
    system, size = (rate, alpha, r_target, max_trials), chan.BLOCK_SIZE
    old, trail = link.trails.get(system), _Trail(p_c, min_events)
    if old is not None and p_c >= old.p_c:
        # the carried trials as one part, judged at this power
        out, part = _judge(system, p_c, *(np.concatenate(x, axis=-1)
                                          for x in zip(*old.parts)))
        counts = np.bincount(out, minlength=max(old.held) + 1)
        trail = _Trail(p_c, min_events, old.held, [part])
    # the other trails this point hands its drawn blocks to, as it leaves
    # them; the link takes every trail at the end, so a point that raises
    # leaves it whole
    shared = {}
    events = done = block = 0
    while events < min_events and done < max_trials:
        n = min(size, max_trials - done)
        if block in trail.held:
            events += int(counts[block])
        else:
            # h stays referenced until the next block is drawn, as in a loop
            # over ``Link.blocks``: freed earlier, its pages go back to the
            # system and fault in again at the next draw
            h = link.block(block, n)
            hb = h.transpose(1, 2, 0)
            gains = np.max(np.einsum("ikn,ikn->kn", hb.real, hb.real)
                           + np.einsum("ikn,ikn->kn", hb.imag, hb.imag), axis=0)
            tags = np.broadcast_to(block, n)
            out, part = _judge(system, p_c, tags, gains, hb)
            events += len(out)
            trail.take(block, part)
            for other, mate in link.trails.items():
                mate = shared.get(other, mate)
                need = min(size, other[3] - block * size)
                if (other != system and 0 < need <= n and block not in mate.held
                        and mate.carried < mate.min_events + size):
                    if other not in shared:
                        mate = shared[other] = _Trail(mate.p_c, mate.min_events,
                                                      mate.held, mate.parts)
                    mate.take(block, _judge(other, mate.p_c, tags[:need],
                                            gains[:need], hb[:, :, :need])[1])
        done += n
        block += 1
    link.trails.update(shared)
    link.trails[system] = trail
    p = events / done
    se = math.sqrt(max(p * (1.0 - p), 0.0) / done)
    return MonteCarloEstimate(mean=p, std_error=se, trials=done)


def _judge(system, p_c, tags, gains, hb):
    # The outages (their blocks) and the candidate part of trials hb
    # (dim, K, n) of ``tags`` blocks with floor gains ``gains``, for a system
    # at power p_c.  Only the trials below the single-user floor run the
    # kernel: every other one has alpha * R >= r_target + SLACK.  The
    # candidates are copied once the kernel's batch is freed.
    rate, alpha, r_target, _ = system
    undecided = np.flatnonzero(gains < _floor(alpha, r_target, p_c))
    rates = np.empty(0)
    if len(undecided):
        rates = alpha * rate(np.take(hb, undecided, axis=2).transpose(2, 0, 1),
                             p_c / alpha)
    keep = undecided[rates < r_target + SLACK]
    return tags[undecided[rates < r_target]], (tags[keep], gains[keep],
                                                np.take(hb, keep, axis=2))


def _floor(alpha, r_target, p_c):
    # The gain max_k |h_k|^2 from which the best single user alone gives
    # alpha * log2(1 + (p_c / alpha) max_k |h_k|^2) >= r_target + SLACK: no
    # floor (infinity) where 2 ** x overflows a float.
    try:
        return (2.0 ** ((r_target + SLACK) / alpha) - 1.0) * alpha / p_c
    except OverflowError:
        return math.inf


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
