"""Spectral radius of a nonnegative symmetric tensor by power iteration
with Collatz-type bounds.

Used to place instances on either side of the copositivity threshold of
the family ``eta * identity - B``: that tensor is copositive exactly when
``eta`` reaches the spectral radius of the nonnegative tensor ``B``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .tensor import SymmetricTensor, integer, real

__all__ = [
    "PowerIterationBudgetError",
    "PowerIterationResult",
    "spectral_radius",
]

# Diagonal-free (reducible) tensors can drive an iterate component to zero; the
# iteration then restarts once with this much added to every canonical coefficient.
REDUCIBLE_SHIFT = 1e-12


class PowerIterationBudgetError(RuntimeError):
    """Bounds did not close within the iteration budget."""

    def __init__(self, message: str, lower: float, upper: float, iterations: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iterations = iterations


class PowerIterationResult(NamedTuple):
    rho: float
    x: np.ndarray
    lower: float
    upper: float
    iterations: int
    shift: float


def spectral_radius(
    B: SymmetricTensor, tol: float = 1e-8, max_iter: int = 10_000
) -> PowerIterationResult:
    """Largest eigenvalue of a nonnegative symmetric tensor.

    Starting from the uniform positive vector, each step contracts ``B``
    once against the iterate, brackets the spectral radius between the
    smallest and largest component ratio ``y_i / x_i**(m-1)``, and renews
    the iterate as the normalized ``(m-1)``-th root of the contraction.
    Stops when the bracket is narrower than ``tol`` and returns its
    midpoint together with the final iterate and bounds.

    Raises
    ------
    ValueError
        If ``B`` has a negative entry, ``tol`` is not a finite positive
        real number, ``max_iter`` is not an integer of at least 1, or the
        order is below 2.
    PowerIterationBudgetError
        If the bracket is still wider than ``tol`` after ``max_iter``
        steps; the error carries the current bounds.
    """
    tol = real(tol, "tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    max_iter = integer(max_iter, "max_iter", 1)
    if B.order < 2:
        raise ValueError("power iteration needs order >= 2")
    if B.coefficient_vector().min() < 0.0:
        raise ValueError("tensor must be nonnegative")

    m, n = B.order, B.dim
    work = B
    shift = 0.0
    x = np.full(n, 1.0 / n)
    lower, upper = 0.0, np.inf
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        y = work.gradient_form(x)
        if np.any(y == 0.0):
            if shift == 0.0:
                shift = REDUCIBLE_SHIFT
                work = SymmetricTensor._of(m, n, B.coefficient_vector() + shift)
                x = np.full(n, 1.0 / n)
                continue
            raise ValueError("iterate collapsed despite the reducibility shift")
        ratios = y / x ** (m - 1)
        lower = float(np.min(ratios))
        upper = float(np.max(ratios))
        if upper - lower < tol:
            return PowerIterationResult(
                0.5 * (lower + upper), x, lower, upper, iterations, shift
            )
        x = y ** (1.0 / (m - 1))
        x /= x.sum()
    raise PowerIterationBudgetError(
        f"bounds [{lower}, {upper}] still wider than {tol} after {max_iter} iterations",
        lower,
        upper,
        max_iter,
    )
