"""Constructors for the tensor families used in tests and benchmarks:
identity, all-ones, diagonal shifts, seeded random tensors, and named
tensors built from homogeneous polynomials by symmetrization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tensor import SymmetricTensor, canonical_keys, integer, multiplicity

__all__ = [
    "Monomial",
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
    """Ones on the diagonal multi-indices, zero elsewhere."""
    return SymmetricTensor(order, dim, {(i,) * order: 1.0 for i in range(1, dim + 1)})


def ones_tensor(order: int, dim: int) -> SymmetricTensor:
    """Every entry equal to one."""
    return SymmetricTensor(order, dim, {key: 1.0 for key in canonical_keys(order, dim)})


def eta_shift(eta: float, B: SymmetricTensor) -> SymmetricTensor:
    """The diagonal shift ``eta * identity - B`` matching B's shape."""
    return float(eta) * identity_tensor(B.order, B.dim) - B


def random_tensor(order: int, dim: int, seed: int) -> SymmetricTensor:
    """Seeded random tensor with canonical entries iid uniform on (0, 1).

    The stream is reproducible across platforms: a Philox counter-based
    generator keyed by ``seed`` supplies one double per canonical key in
    lexicographic key order (an exact zero draw, probability 2**-53, is
    redrawn).
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    entries = {}
    for key in canonical_keys(int(order), int(dim)):
        value = rng.random()
        while value == 0.0:
            value = rng.random()
        entries[key] = value
    return SymmetricTensor(order, dim, entries)


def random_tensor_negative_diagonal(order: int, dim: int, seed: int) -> SymmetricTensor:
    """Same stream as :func:`random_tensor` but with the leading diagonal
    entry forced to -1 (a one-entry copositivity refutation)."""
    base = random_tensor(order, dim, seed)
    entries = dict(base.entries)
    entries[(1,) * int(order)] = -1.0
    return SymmetricTensor(order, dim, entries)


@dataclass(frozen=True)
class Monomial:
    """One term of a homogeneous polynomial: an exponent vector over the
    ``n`` variables (summing to the degree) and its coefficient."""

    exponents: tuple[int, ...]
    coefficient: float

    def __post_init__(self):
        exponents = tuple(integer(e, "exponent") for e in self.exponents)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coefficient", float(self.coefficient))
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be nonnegative, got {self.exponents}")


def _as_monomial(spec) -> Monomial:
    if isinstance(spec, Monomial):
        return spec
    exponents, coefficient = spec
    return Monomial(tuple(exponents), coefficient)


def from_polynomial(
    order: int, dim: int, monomials: Iterable[Monomial | tuple[Sequence[int], float]]
) -> SymmetricTensor:
    """Symmetric tensor of a homogeneous polynomial.

    Each monomial's coefficient is split equally across the distinct index
    permutations of its exponent multiset, so the tensor's form reproduces
    the polynomial exactly: the key for exponent vector ``a`` repeats index
    ``i`` exactly ``a_i`` times and carries ``coeff * prod(a_i!) / m!``.
    """
    order = integer(order, "order")
    dim = integer(dim, "dim")
    entries: dict[tuple[int, ...], float] = {}
    seen: set[tuple[int, ...]] = set()
    for spec in monomials:
        mono = _as_monomial(spec)
        if len(mono.exponents) != dim:
            raise ValueError(
                f"exponent vector {mono.exponents} has length {len(mono.exponents)}, expected {dim}"
            )
        if sum(mono.exponents) != order:
            raise ValueError(
                f"exponents {mono.exponents} sum to {sum(mono.exponents)}, expected {order}"
            )
        if mono.exponents in seen:
            raise ValueError(f"duplicate exponent vector {mono.exponents}")
        seen.add(mono.exponents)
        key = tuple(
            i for i, e in enumerate(mono.exponents, start=1) for _ in repeat(None, e)
        )
        entries[key] = mono.coefficient / multiplicity(key)
    return SymmetricTensor(order, dim, entries)


def polynomial_from_json(source: str | Mapping) -> SymmetricTensor:
    """Read the structured polynomial format:
    ``{"order": m, "dim": n, "monomials": [{"exponents": [...], "coeff": c}]}``.
    """
    obj = json.loads(source) if isinstance(source, str) else source
    try:
        order = obj["order"]
        dim = obj["dim"]
        raw = obj["monomials"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial object: missing {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError("'monomials' must be a list")
    monomials = []
    for item in raw:
        try:
            monomials.append(Monomial(tuple(item["exponents"]), item["coeff"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed monomial {item!r}") from exc
    return from_polynomial(order, dim, monomials)


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
