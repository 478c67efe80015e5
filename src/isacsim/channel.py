"""Spatial correlation models and correlated Rayleigh channel sampling.

Reproducibility model: trials are grouped into fixed-size blocks of
``BLOCK_SIZE`` consecutive trial indices.  The generator for a block is
seeded from (seed, stream, block) only, so draws never depend on how many
trials a caller requests, on evaluation order, or on any threading.  A
single trial is recovered by generating its block and indexing into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ModelError, matrix_sqrt_psd

__all__ = [
    "BLOCK_SIZE",
    "STREAM_DOWNLINK",
    "STREAM_UPLINK",
    "STREAM_COVARIANCE",
    "STREAM_GENERIC",
    "CorrelationMatrix",
    "SimConfig",
    "exp_correlation",
    "block_rng",
    "sample_channel_block",
]

BLOCK_SIZE = 8192

# Stream identifiers keep independent Monte Carlo drivers decoupled while
# letting drivers that should share randomness (e.g. ISAC vs FDSAC at the
# same SNR point) reuse the same draws.
STREAM_DOWNLINK = 0
STREAM_UPLINK = 1
STREAM_COVARIANCE = 2
STREAM_GENERIC = 3


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian PSD spatial correlation with a role label.

    label is one of 'transmit_cu', 'transmit_target', 'receive_identity'.
    A 'transmit_target' correlation must be strictly positive definite.
    """

    matrix: np.ndarray
    label: str = "transmit_cu"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("correlation matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise ModelError("correlation matrix must be Hermitian")
        eigmin = float(np.min(np.linalg.eigvalsh(m)))
        if eigmin < -1e-10:
            raise ModelError("correlation matrix must be PSD")
        if self.label == "transmit_target" and eigmin <= 1e-12:
            raise ModelError("target correlation must be strictly PD")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def sqrt(self) -> np.ndarray:
        return matrix_sqrt_psd(self.matrix)


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

    def r_cu(self) -> CorrelationMatrix:
        """Common transmit correlation of the communication users."""
        return exp_correlation(self.M, self.rho_cu, label="transmit_cu")

    def r_target(self) -> CorrelationMatrix:
        """Transmit correlation of the target response."""
        return exp_correlation(self.M, self.rho_target, label="transmit_target")


def exp_correlation(dim, rho, label="transmit_cu") -> CorrelationMatrix:
    """Exponential correlation model: entry (i, j) = rho^|i-j|."""
    if not 0.0 <= rho < 1.0:
        raise ModelError("rho must lie in [0, 1)")
    idx = np.arange(dim)
    mat = rho ** np.abs(idx[:, None] - idx[None, :])
    return CorrelationMatrix(matrix=mat.astype(complex), label=label)


def block_rng(seed, stream, block) -> np.random.Generator:
    """Generator for one trial block, a pure function of (seed, stream, block)."""
    return np.random.default_rng((int(seed), int(stream), int(block)))


def _standard_complex(rng, shape):
    # unit total variance per entry: real and imaginary parts N(0, 1/2)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return w / np.sqrt(2.0)


def sample_channel_block(correlation, columns, seed, block, stream=STREAM_GENERIC):
    """Draw one block of correlated channel matrices.

    Returns an array of shape (BLOCK_SIZE, dim, columns) whose slice [t] is
    the channel of trial block*BLOCK_SIZE + t.  Columns are independent,
    each CN(0, R), realized as R^{1/2} w with w i.i.d. standard complex
    Gaussian.
    """
    corr = correlation if isinstance(correlation, CorrelationMatrix) else \
        CorrelationMatrix(matrix=np.asarray(correlation, dtype=complex))
    rng = block_rng(seed, stream, block)
    w = _standard_complex(rng, (BLOCK_SIZE, corr.dim, columns))
    if np.allclose(corr.matrix, np.eye(corr.dim)):
        return w
    root = corr.sqrt()
    return np.einsum("ij,tjk->tik", root, w)

