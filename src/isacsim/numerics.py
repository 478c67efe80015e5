"""Dense complex Hermitian kernels and the eigen-mode water-filling solver.

All logarithms are base 2, so every rate produced downstream is in bits.
Eigenvalues are always reported in descending order (ties keep the
ascending-index order produced by LAPACK) so that bases and allocations
are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelError",
    "EigenSystem",
    "WaterfillSolution",
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


def _check_hermitian(a, atol=HERMITIAN_ATOL):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    if a.size and np.max(np.abs(a - a.conj().T)) > atol:
        raise ModelError("matrix is not Hermitian within tolerance")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` is sorted descending; the columns of ``basis`` are the
    matching orthonormal eigenvectors, i.e. A = basis @ diag(values) @ basis^H.
    """

    values: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class WaterfillSolution:
    """Power allocation over parallel eigen-modes.

    allocation[m] = max(0, water_level - noise[m] / gains[m]) and the
    allocations sum to the budget.  ``active_set`` holds the indices with
    strictly positive power, in input order.
    """

    allocation: np.ndarray
    water_level: float
    active_set: tuple
    budget_used: float


def hermitian_eig(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    a = _check_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    # eigh returns ascending order; stable argsort keeps tie order deterministic
    order = np.argsort(-vals, kind="stable")
    return EigenSystem(values=vals[order], basis=vecs[:, order])


def matrix_sqrt_psd(a) -> np.ndarray:
    """Hermitian square root B of a PSD matrix, with B @ B^H = A.

    Eigenvalues in [-1e-10, 0] are clamped to zero; an indefinite input
    beyond that tolerance raises ModelError.
    """
    es = hermitian_eig(a)
    vals = es.values.copy()
    if vals.size and vals[-1] < PSD_EIG_FLOOR:
        raise ModelError(f"matrix is indefinite (min eigenvalue {vals[-1]:.3e})")
    vals[vals < 0.0] = 0.0
    return (es.basis * np.sqrt(vals)) @ es.basis.conj().T


def waterfill(gains, noise, budget) -> WaterfillSolution:
    """Water-filling of ``budget`` over modes with the given gains and noises.

    Maximizes sum_m log2(1 + gains[m] * x[m] / noise[m]) subject to
    sum(x) = budget, x >= 0.  Solved exactly: modes are sorted by
    noise/gain ascending, the water level is computed in closed form for
    each candidate active prefix, and the largest prefix with all-positive
    allocations wins.
    """
    gains = np.asarray(gains, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if gains.shape != noise.shape or gains.ndim != 1:
        raise ModelError("gains and noise must be 1-D arrays of equal length")
    if np.any(gains <= 0.0) or np.any(noise <= 0.0):
        raise ModelError("gains and noise must be strictly positive")
    if budget < 0.0:
        raise ModelError("budget must be nonnegative")

    floors = noise / gains  # water must exceed this for a mode to be active
    order = np.argsort(floors, kind="stable")
    sorted_floors = floors[order]
    m = gains.size

    if budget == 0.0:
        return WaterfillSolution(
            allocation=np.zeros(m),
            water_level=float(sorted_floors[0]),
            active_set=(),
            budget_used=0.0,
        )

    # Water level when the k cheapest modes are active:
    # level_k = (budget + sum of their floors) / k.
    prefix = np.cumsum(sorted_floors)
    counts = np.arange(1, m + 1)
    levels = (budget + prefix) / counts
    # Largest k whose level still covers the k-th floor.
    feasible = levels > sorted_floors
    k = int(np.max(np.nonzero(feasible)[0])) + 1
    level = float(levels[k - 1])

    allocation = np.maximum(0.0, level - floors)
    # Zero-out inactive modes explicitly (guards against floor ties).
    inactive = np.ones(m, dtype=bool)
    inactive[order[:k]] = False
    allocation[inactive] = 0.0
    active = tuple(int(i) for i in np.sort(order[:k]))
    return WaterfillSolution(
        allocation=allocation,
        water_level=level,
        active_set=active,
        budget_used=float(allocation.sum()),
    )
