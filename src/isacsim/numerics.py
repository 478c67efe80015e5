"""Dense complex Hermitian kernels and the eigen-mode water-filling solver.

All logarithms are base 2, so every rate produced downstream is in bits.
Eigenvalues are always reported in descending order (ties keep the
ascending-index order produced by LAPACK) so that bases and allocations
are reproducible run to run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ModelError",
    "hermitian_eig",
    "matrix_sqrt_psd",
    "waterfill",
]

# Tolerance for accepting a matrix as Hermitian / PSD.  Eigenvalues in
# [PSD_EIG_FLOOR, 0] are treated as round-off and clamped to zero; anything
# below is a modeling bug and raises.
HERMITIAN_ATOL = 1e-9
PSD_EIG_FLOOR = -1e-10


class ModelError(ValueError):
    """An input violates a model precondition (shape, symmetry, sign, ...)."""


def _check_hermitian(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    if a.size and np.max(np.abs(a - a.conj().T)) > HERMITIAN_ATOL:
        raise ModelError("matrix is not Hermitian within tolerance")
    return a


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (values, basis) of a Hermitian matrix, as
    ``np.linalg.eigh`` gives it but with the values descending: the columns
    of ``basis`` are the matching orthonormal eigenvectors, so
    A = basis @ diag(values) @ basis^H."""
    a = _check_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    # eigh returns ascending order; stable argsort keeps tie order deterministic
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def matrix_sqrt_psd(a) -> np.ndarray:
    """Hermitian square root B of a PSD matrix, with B @ B^H = A.

    Eigenvalues in [-1e-10, 0] are clamped to zero; an indefinite input
    beyond that tolerance raises ModelError.
    """
    vals, basis = hermitian_eig(a)
    if vals.size and vals[-1] < PSD_EIG_FLOOR:
        raise ModelError(f"matrix is indefinite (min eigenvalue {vals[-1]:.3e})")
    vals[vals < 0.0] = 0.0
    return (basis * np.sqrt(vals)) @ basis.conj().T


def waterfill(gains, noise, budget) -> np.ndarray:
    """Water-filling of ``budget`` over modes with the given gains and noises.

    Maximizes sum_m log2(1 + gains[m] * x[m] / noise[m]) subject to
    sum(x) = budget, x >= 0, and returns the allocation x in input order:
    x[m] = max(0, level - noise[m] / gains[m]) for one water level, so the
    active modes, those with x[m] > 0, share that level.  Solved exactly:
    modes are sorted by noise/gain ascending, the water level is computed
    in closed form for each candidate active prefix, and the largest prefix
    with all-positive allocations wins.
    """
    gains = np.asarray(gains, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if gains.shape != noise.shape or gains.ndim != 1:
        raise ModelError("gains and noise must be 1-D arrays of equal length")
    if np.any(gains <= 0.0) or np.any(noise <= 0.0):
        raise ModelError("gains and noise must be strictly positive")
    if budget < 0.0:
        raise ModelError("budget must be nonnegative")

    allocation = np.zeros(gains.size)
    if budget == 0.0:
        return allocation
    floors = noise / gains  # water must exceed this for a mode to be active
    order = np.argsort(floors, kind="stable")
    sorted_floors = floors[order]
    # Water level when the k cheapest modes are active:
    # level_k = (budget + sum of their floors) / k.
    levels = (budget + np.cumsum(sorted_floors)) / np.arange(1, gains.size + 1)
    # Largest k whose level still covers the k-th floor; the modes past it
    # stay at zero (also on a floor tie).
    k = int(np.max(np.nonzero(levels > sorted_floors)[0])) + 1
    allocation[order[:k]] = levels[k - 1] - sorted_floors[:k]
    return allocation
