"""Constructors for the tensor families used in tests and benchmarks:
identity, all-ones, diagonal shifts, seeded random tensors, and named
tensors built from homogeneous polynomials by symmetrization.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tensor import (SymmetricTensor, _key_table, corner_indices, integer, json_record,
                     multiplicity, real)

__all__ = [
    "choi_lam_tensor",
    "eta_shift",
    "from_polynomial",
    "identity_tensor",
    "motzkin_tensor",
    "ones_tensor",
    "polynomial_from_json",
    "random_tensor",
    "random_tensor_negative_diagonal",
    "robinson_tensor",
]


def identity_tensor(order: int, dim: int) -> SymmetricTensor:
    """Ones on the diagonal multi-indices, zero elsewhere; ``order`` and
    ``dim`` must pass :func:`~coposim.tensor.integer`."""
    order, dim = integer(order, "order"), integer(dim, "dim")  # before the cached key lookups
    values = np.zeros(len(_key_table(order, dim)[0]))
    values[list(corner_indices(order, dim))] = 1.0
    return SymmetricTensor._of(order, dim, values)


def ones_tensor(order: int, dim: int) -> SymmetricTensor:
    """Every entry equal to one; ``order`` and ``dim`` must pass :func:`~coposim.tensor.integer`."""
    order, dim = integer(order, "order"), integer(dim, "dim")  # before the cached key lookup
    return SymmetricTensor._of(order, dim, np.ones(len(_key_table(order, dim)[0])))


def eta_shift(eta: float, B: SymmetricTensor) -> SymmetricTensor:
    """The diagonal shift ``eta * identity - B`` matching B's shape, built
    at once, with the values the tensor arithmetic gives bit for bit;
    ``eta`` must pass :func:`~coposim.tensor.real`."""
    eta, values = real(eta, "eta"), -B.coefficient_vector()
    values[list(corner_indices(B.order, B.dim))] += eta  # -b + eta is eta - b exactly
    return SymmetricTensor._of(B.order, B.dim, values)


def random_tensor(order: int, dim: int, seed: int) -> SymmetricTensor:
    """Seeded random tensor with canonical entries iid uniform on (0, 1).

    The stream is reproducible across platforms: a Philox counter-based
    generator keyed by ``seed`` supplies one double per canonical key in
    lexicographic key order (an exact zero draw, probability 2**-53, is
    skipped, and the next draw takes its place).  ``order``, ``dim`` and
    ``seed`` must pass :func:`~coposim.tensor.integer`.
    """
    order, dim = integer(order, "order"), integer(dim, "dim")
    rng = np.random.Generator(np.random.Philox(key=integer(seed, "seed")))
    count = len(_key_table(order, dim)[0])
    values = rng.random(count)
    while not values.all():
        values = values[values != 0.0]
        values = np.append(values, rng.random(count - len(values)))
    return SymmetricTensor._of(order, dim, values)


def random_tensor_negative_diagonal(order: int, dim: int, seed: int) -> SymmetricTensor:
    """Same stream as :func:`random_tensor` but with the leading diagonal
    entry forced to -1 (a one-entry copositivity refutation)."""
    base = random_tensor(order, dim, seed)
    values = base.coefficient_vector()
    values[0] = -1.0  # the key (1, ..., 1) comes first
    return SymmetricTensor._of(base.order, base.dim, values)


def from_polynomial(
    order: int, dim: int, monomials: Iterable[tuple[Sequence[int], float]]
) -> SymmetricTensor:
    """Symmetric tensor of a homogeneous polynomial given as
    ``(exponents, coefficient)`` pairs, one per monomial.

    Each exponent vector has ``dim`` nonnegative integer entries (checked
    by :func:`~coposim.tensor.integer`) summing to ``order``, and no two
    are equal.  Each monomial's coefficient is split equally across the
    distinct index permutations of its exponent multiset, so the tensor's
    form reproduces the polynomial exactly: the key for exponent vector
    ``a`` repeats index ``i`` exactly ``a_i`` times and carries
    ``coeff * prod(a_i!) / m!``.
    """
    order = integer(order, "order")
    dim = integer(dim, "dim")
    entries: dict[tuple[int, ...], float] = {}
    for raw, coefficient in monomials:
        exponents = tuple(integer(e, "exponent") for e in raw)
        if any(e < 0 for e in exponents):
            raise ValueError(f"exponents must be nonnegative, got {exponents}")
        if len(exponents) != dim:
            raise ValueError(
                f"exponent vector {exponents} has length {len(exponents)}, expected {dim}"
            )
        if sum(exponents) != order:
            raise ValueError(f"exponents {exponents} sum to {sum(exponents)}, expected {order}")
        key = tuple(i for i, e in enumerate(exponents, start=1) for _ in repeat(None, e))
        if key in entries:
            raise ValueError(f"duplicate exponent vector {exponents}")
        entries[key] = real(coefficient, f"coefficient of {exponents}") / multiplicity(key)
    return SymmetricTensor(order, dim, entries)


def polynomial_from_json(obj: Mapping) -> SymmetricTensor:
    """Read the structured polynomial format, as parsed from JSON:
    ``{"order": m, "dim": n, "monomials": [{"exponents": [...], "coeff": c}]}``.
    """
    return from_polynomial(*json_record(obj, "polynomial", "monomials", "monomial", "exponents",
                                        "coeff"))


def motzkin_tensor() -> SymmetricTensor:
    """Order-6 trivariate tensor of x^4 y^2 + x^2 y^4 + z^6 - 3 x^2 y^2 z^2
    (nonnegative on the orthant but not a sum of squares)."""
    return from_polynomial(
        6,
        3,
        [
            ((4, 2, 0), 1.0),
            ((2, 4, 0), 1.0),
            ((0, 0, 6), 1.0),
            ((2, 2, 2), -3.0),
        ],
    )


def robinson_tensor() -> SymmetricTensor:
    """Order-6 trivariate tensor of
    x^6 + y^6 + z^6 - x^4 y^2 - x^2 y^4 - x^4 z^2 - x^2 z^4 - y^4 z^2 - y^2 z^4
    + 3 x^2 y^2 z^2."""
    return from_polynomial(
        6,
        3,
        [
            ((6, 0, 0), 1.0),
            ((0, 6, 0), 1.0),
            ((0, 0, 6), 1.0),
            ((4, 2, 0), -1.0),
            ((2, 4, 0), -1.0),
            ((4, 0, 2), -1.0),
            ((2, 0, 4), -1.0),
            ((0, 4, 2), -1.0),
            ((0, 2, 4), -1.0),
            ((2, 2, 2), 3.0),
        ],
    )


def choi_lam_tensor() -> SymmetricTensor:
    """Order-6 trivariate tensor of x^4 y^2 + y^4 z^2 + z^4 x^2 - 3 x^2 y^2 z^2."""
    return from_polynomial(
        6,
        3,
        [
            ((4, 2, 0), 1.0),
            ((0, 4, 2), 1.0),
            ((2, 0, 4), 1.0),
            ((2, 2, 2), -3.0),
        ],
    )
