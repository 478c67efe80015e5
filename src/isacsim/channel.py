"""Spatial correlation models and correlated Rayleigh channel sampling.

A correlation is a plain complex (dim, dim) array; the sampler takes its
square root R^{1/2}, which each ``mc.Link`` computes once for its stream.

Reproducibility model: trials are grouped into fixed-size blocks of
``BLOCK_SIZE`` consecutive trial indices.  The generator for a block is
seeded from (seed, stream, block) only, and its normals are laid out as all
the real parts of the block's entries followed by all their imaginary
parts.  The generator fills its output one value at a time, so a shorter
request is a prefix of a longer one: the first n trials of a block are
drawn, byte for byte, as the first n trials of the whole block, and need
the block's real parts but only n trials of imaginary parts.  Draws never
depend on how many trials a caller requests, on evaluation order, or on
any threading.

Memory layout: a block of shape (trials, dim, columns) is a view of a
C-contiguous (dim, columns, trials) buffer, so each (row, column) entry's
trials are one contiguous plane and the elementwise rate kernels run
their inner loops over trials.  The layout changes no value: every entry
is the same bytes as in a C-contiguous array of the same draws.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import ModelError

__all__ = [
    "BLOCK_SIZE",
    "STREAM_DOWNLINK",
    "STREAM_UPLINK",
    "STREAM_COVARIANCE",
    "SimConfig",
    "exp_correlation",
    "sample_channel_block",
]

BLOCK_SIZE = 8192

# Stream identifiers keep independent Monte Carlo drivers decoupled while
# letting drivers that should share randomness (e.g. ISAC vs FDSAC at the
# same SNR point) reuse the same draws.
STREAM_DOWNLINK = 0
STREAM_UPLINK = 1
STREAM_COVARIANCE = 2


@dataclass(frozen=True)
class SimConfig:
    """Dimensions, correlation coefficients, SNRs (linear), trials, seed."""

    M: int
    N: int
    K: int
    L: int
    rho_target: float = 0.7
    rho_cu: float = 0.8
    p_c: float = 1.0
    p_s: float = 1.0
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if min(self.M, self.N, self.K, self.L) < 1:
            raise ModelError("M, N, K, L must be positive")
        if self.M < self.K or self.N < self.K:
            raise ModelError("need M >= K and N >= K")
        if self.L < self.M or self.L < self.N:
            raise ModelError("need L >= M and L >= N")
        for rho in (self.rho_target, self.rho_cu):
            if not 0.0 <= rho < 1.0:
                raise ModelError("correlation coefficients must lie in [0, 1)")
        if self.p_c < 0.0 or self.p_s < 0.0:
            raise ModelError("SNRs must be nonnegative")
        if self.trials < 1:
            raise ModelError("trials must be positive")
        if self.seed < 0:
            raise ModelError("seed must be nonnegative")

    def r_cu(self) -> np.ndarray:
        """Common transmit correlation of the communication users."""
        return exp_correlation(self.M, self.rho_cu)

    def r_target(self) -> np.ndarray:
        """Transmit correlation of the target response."""
        return exp_correlation(self.M, self.rho_target)


def exp_correlation(dim, rho) -> np.ndarray:
    """Exponential correlation model: entry (i, j) = rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise ModelError("rho must lie in [0, 1)")
    idx = np.arange(dim)
    mat = rho ** np.abs(idx[:, None] - idx[None, :])
    return mat.astype(complex)


def _block_rng(seed, stream, block) -> np.random.Generator:
    """Generator for one trial block, a pure function of (seed, stream, block)."""
    return np.random.default_rng((int(seed), int(stream), int(block)))


def sample_channel_block(root, columns, seed, block, stream, trials=None):
    """Draw the first ``trials`` trials (default: all) of one block of
    correlated channel matrices.

    Returns an array of shape (trials, dim, columns) whose slice [t] is the
    channel of trial block*BLOCK_SIZE + t, the same bytes whatever
    ``trials`` is.  Columns are independent, each CN(0, R), realized as
    R^{1/2} w with w i.i.d. standard complex Gaussian: real and imaginary
    parts N(0, 1/2).  ``root`` is R^{1/2} (dim, dim), for instance
    ``matrix_sqrt_psd(R)``; an exact identity draws w itself.  Only the
    requested trials are scaled and transformed.

    The array is a view of a C-contiguous (dim, columns, trials) buffer: its
    trial axis has stride ``itemsize``.  Compare blocks by ``tobytes()``,
    which reads them in C order whatever the layout.
    """
    size = BLOCK_SIZE
    trials = size if trials is None else trials
    if not isinstance(trials, numbers.Integral) or not 1 <= trials <= size:
        raise ModelError(f"trials must be an integer in [1, {size}]")
    dim = len(root)
    entries = dim * columns
    draws = _block_rng(seed, stream, block).standard_normal((size + trials) * entries)
    # the normals are trial-major, the block entry-major: each scale reads
    # them transposed into one entry's trials at a time
    w = _trial_minor(dim, columns, trials)
    planes = w.transpose(1, 2, 0).reshape(entries, trials)
    scale = 1.0 / np.sqrt(2.0)
    # the imaginary parts start after the real parts of the whole block
    np.multiply(draws[:trials * entries].reshape(trials, entries).T, scale,
                out=planes.real)
    np.multiply(draws[size * entries:].reshape(trials, entries).T, scale,
                out=planes.imag)
    if np.array_equal(root, np.eye(dim)):
        return w
    # h[:, i] = sum_j root[i, j] w[:, j], one term at a time in the order of
    # j: this rounds exactly as np.einsum("ij,tjk->tik"), which root @ w does
    # not, so every draw keeps its bytes
    h = _trial_minor(dim, columns, trials)
    for i, row in enumerate(root):
        h[:, i] = row[0] * w[:, 0]
        for j in range(1, dim):
            h[:, i] += row[j] * w[:, j]
    return h


def _trial_minor(dim, columns, trials):
    # a (trials, dim, columns) view of a C-contiguous (dim, columns, trials)
    # buffer: each entry's trials are one contiguous plane
    return np.empty((dim, columns, trials), dtype=complex).transpose(2, 0, 1)
