"""Symmetric tensors stored by canonical multi-index, plus the form
evaluations everything else builds on.

An order-``m``, dimension-``n`` symmetric tensor keeps one coefficient per
sorted multi-index ``(i_1 <= ... <= i_m)`` with entries ``i_j in {1, ..., n}``.
The remaining ``n**m - C(n+m-1, m)`` logical entries follow by symmetry, and
every sum over the dense index space is carried out over canonical keys
weighted by the multinomial multiplicity ``m! / (c_1! ... c_n!)``, where
``c_i`` counts how often index ``i`` appears in the key.

Summations that feed sign decisions (form values, contractions) use
``math.fsum`` so accumulation error cannot flip a comparison against zero.

The same canonical ordering indexes a cell's Bernstein coefficients: the
coefficients of the form in the barycentric coordinates of a simplex,
listed for every canonical key (zeros included).
:func:`split_coefficients` derives a child cell's coefficients from its
parent's by midpoint subdivision (de Casteljau in the simplicial Bernstein
basis), with no dense array.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "SymmetricTensor",
    "canonical_key",
    "canonical_keys",
    "multiplicity",
    "split_coefficients",
]


def integer(value, what: str = "index") -> int:
    """``value`` as an ``int``: Python and numpy integers, and floats with
    no fractional part, are accepted; bools, strings, fractional floats and
    anything else raise ``ValueError``."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def canonical_key(idx: Iterable[int]) -> tuple[int, ...]:
    """Sort a multi-index into its canonical (nondecreasing) form; every
    index must pass :func:`integer`."""
    key = tuple(idx)
    for i in key:
        if type(i) is not int:  # plain ints, the common case, need no check
            key = tuple(map(integer, key))
            break
    return tuple(sorted(key))


def canonical_keys(order: int, dim: int) -> Iterator[tuple[int, ...]]:
    """All canonical multi-indices of the given shape, in lexicographic order."""
    return itertools.combinations_with_replacement(range(1, dim + 1), order)


def multiplicity(key: tuple[int, ...]) -> int:
    """Number of distinct permutations of a sorted multi-index."""
    count = math.factorial(len(key))
    for _, group in itertools.groupby(key):
        count //= math.factorial(sum(1 for _ in group))
    return count


def _run_positions(keys: np.ndarray) -> np.ndarray:
    """For a matrix of sorted keys (one per row), the 1-based position of
    every entry within its run of equal indices, built column by column."""
    positions = np.ones(keys.shape, dtype=np.int64)
    for j in range(1, keys.shape[1]):
        positions[:, j] += (keys[:, j] == keys[:, j - 1]) * positions[:, j - 1]
    return positions


def _multiplicities(positions: np.ndarray) -> np.ndarray:
    """``multiplicity`` of every key, as floats, from its run positions:
    the product of a key's run positions is ``c_1! ... c_n!``.  Exact in
    int64 up to order 20 (``20!`` fits); above that in Python ints."""
    m = positions.shape[1]
    counts = positions if m <= 20 else positions.astype(object)
    return (math.factorial(m) // np.prod(counts, axis=1)).astype(float)


def _weights_finite(entries: Mapping[tuple[int, ...], float], order: int, dim: int) -> bool:
    """Whether ``sum(multiplicity(key) * |value|)`` is a finite float.  The
    multiplicities add up to ``dim ** order``, so a finite
    ``max|value| * dim ** order`` settles it at once; only when that bound
    overflows are the keys summed one by one."""
    largest = max(map(abs, entries.values()), default=0.0)
    try:
        if largest * float(dim) ** order < math.inf:
            return True
    except OverflowError:
        pass
    try:
        return math.fsum(multiplicity(key) * abs(value) for key, value in entries.items()) < math.inf
    except OverflowError:
        return False


class SymmetricTensor:
    """Immutable symmetric tensor in canonical sparse storage.

    Parameters
    ----------
    order:
        Number of indices ``m`` (at least 1).
    dim:
        Index range ``n``; every index runs over ``1..n``.
    entries:
        Mapping (or iterable of pairs) from multi-index to coefficient.
        Multi-indices may arrive in any order and are canonicalized; two
        entries that collide on the same canonical key are rejected.
        Exact zeros are dropped; absent keys read as zero.  NaN and
        infinite values are rejected, and so are entries whose weighted
        sum ``sum(multiplicity(key) * |value|)`` is not a finite float,
        since every term of a form value on the simplex is bounded by it.
    """

    __slots__ = ("_order", "_dim", "_entries", "_terms", "_gradient")

    def __init__(self, order, dim, entries=None):
        order = integer(order, "order")
        dim = integer(dim, "dim")
        if order < 1:
            raise ValueError(f"order must be a positive integer, got {order}")
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        canonical: dict[tuple[int, ...], float] = {}
        if entries is not None:
            pairs = entries.items() if isinstance(entries, Mapping) else entries
            for idx, value in pairs:
                key = canonical_key(idx)
                self._check_key_static(key, order, dim)
                if key in canonical:
                    raise ValueError(f"duplicate canonical key {key}")
                value = float(value)
                if not math.isfinite(value):
                    raise ValueError(f"entry {key} is not finite: {value}")
                if value != 0.0:
                    canonical[key] = value
        if not _weights_finite(canonical, order, dim):
            raise ValueError(
                "entries too large: the sum of multiplicity * |entry| over all "
                "keys is not a finite float"
            )
        self._order = order
        self._dim = dim
        self._entries = dict(sorted(canonical.items()))
        self._terms = None
        self._gradient = None

    @staticmethod
    def _check_key_static(key: tuple[int, ...], order: int, dim: int) -> None:
        if len(key) != order:
            raise ValueError(f"multi-index {key} has length {len(key)}, expected {order}")
        if key and (key[0] < 1 or key[-1] > dim):
            raise ValueError(f"multi-index {key} out of range 1..{dim}")

    @property
    def order(self) -> int:
        return self._order

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def entries(self) -> Mapping[tuple[int, ...], float]:
        """Read-only view of the canonical entries (zeros omitted)."""
        return MappingProxyType(self._entries)

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def __getitem__(self, idx) -> float:
        """Coefficient at a multi-index given in any order."""
        key = canonical_key(idx)
        self._check_key_static(key, self._order, self._dim)
        return self._entries.get(key, 0.0)

    def __repr__(self) -> str:
        return f"SymmetricTensor(order={self._order}, dim={self._dim}, nnz={self.nnz})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        return (
            self._order == other._order
            and self._dim == other._dim
            and self._entries == other._entries
        )

    __hash__ = None

    # -- shape and argument checks ------------------------------------------

    def _check_shape(self, other: "SymmetricTensor") -> None:
        if self._order != other._order or self._dim != other._dim:
            raise ValueError(
                f"shape mismatch: ({self._order}, {self._dim}) vs ({other._order}, {other._dim})"
            )

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self._dim,):
            raise ValueError(f"vector of shape {x.shape} does not match dim {self._dim}")
        return x

    # -- vector space ---------------------------------------------------------

    def __add__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        self._check_shape(other)
        merged = dict(self._entries)
        for key, value in other._entries.items():
            merged[key] = merged.get(key, 0.0) + value
        return SymmetricTensor(self._order, self._dim, merged)

    def __sub__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "SymmetricTensor":
        return (-1.0) * self

    def __mul__(self, t) -> "SymmetricTensor":
        if not isinstance(t, (int, float)):
            return NotImplemented
        t = float(t)
        return SymmetricTensor(
            self._order, self._dim, {k: t * v for k, v in self._entries.items()}
        )

    __rmul__ = __mul__

    # -- evaluations ----------------------------------------------------------

    def _form_arrays(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Key columns and weights of the stored entries, built on first use:
        column ``j`` holds the 0-based ``j``-th index of every key, and each
        weight is ``multiplicity(key) * value``."""
        if self._terms is None:
            keys = np.array(list(self._entries), dtype=np.intp).reshape(-1, self._order) - 1
            values = np.fromiter(self._entries.values(), dtype=float, count=len(self._entries))
            weights = _multiplicities(_run_positions(keys)) * values
            self._terms = (tuple(np.ascontiguousarray(col) for col in keys.T), weights)
        return self._terms

    def _gradient_arrays(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, list[int]]:
        """Rest-index columns, weights and component bounds for
        :meth:`gradient_form`, built on first use.  Each stored key gives one
        term per distinct index ``i``, with run length ``count``: weight
        ``((value * mult) * count) / m`` times the key with one ``i``
        removed.  Component ``i`` owns the terms ``bounds[i]:bounds[i + 1]``,
        which keep storage order within it."""
        if self._gradient is None:
            m = self._order
            columns, scaled = self._form_arrays()
            keys = np.stack(columns, axis=1)
            positions = _run_positions(keys)
            # Run lengths, read right to left off the last position of each run.
            lengths = positions.copy()
            for j in range(m - 2, -1, -1):
                same = keys[:, j] == keys[:, j + 1]
                lengths[same, j] = lengths[same, j + 1]
            rows, starts = np.nonzero(positions == 1)
            index = keys[rows, starts]
            order = np.argsort(index, kind="stable")
            rows, starts, index = rows[order], starts[order], index[order]
            slots = np.arange(m - 1)
            rest = keys[rows[:, None], slots + (slots >= starts[:, None])]
            weights = scaled[rows] * lengths[rows, starts] / m
            bounds = np.searchsorted(index, np.arange(self._dim + 1)).tolist()
            self._gradient = (tuple(np.ascontiguousarray(col) for col in rest.T), weights, bounds)
        return self._gradient

    @staticmethod
    def _terms_at(columns, weights, x) -> list[float]:
        """``weights * (x[c0] * x[c1] * ...)``, the product taken left to
        right as ``math.prod`` would."""
        if not columns:
            return weights.tolist()
        prod = x[columns[0]]
        for col in columns[1:]:
            prod = prod * x[col]
        return (weights * prod).tolist()

    def form(self, x) -> float:
        """Value of the homogeneous form: the full contraction against ``x``."""
        x = self._check_vector(x)
        return math.fsum(self._terms_at(*self._form_arrays(), x))

    def gradient_form(self, x) -> np.ndarray:
        """One-slot contraction: component ``i`` sums the coefficient times
        ``x`` over the remaining ``m - 1`` slots of every entry with a leading
        index ``i``.  Satisfies ``x @ gradient_form(x) == form(x)``."""
        x = self._check_vector(x)
        columns, weights, bounds = self._gradient_arrays()
        terms = self._terms_at(columns, weights, x)
        return np.array([math.fsum(terms[a:b]) for a, b in zip(bounds, bounds[1:])])

    def norm(self) -> float:
        """Frobenius norm over the dense index space.  Entries are scaled
        by the largest magnitude before squaring, so the norm of a nonzero
        tensor neither overflows nor underflows."""
        if not self._entries:
            return 0.0
        scale = max(abs(value) for value in self._entries.values())
        return scale * math.sqrt(
            math.fsum(multiplicity(k) * (v / scale) ** 2 for k, v in self._entries.items())
        )

    def coefficient_vector(self) -> np.ndarray:
        """Every canonical coefficient, zeros included, in lexicographic key
        order: the Bernstein coefficients of the standard simplex."""
        return np.array(
            [self._entries.get(key, 0.0) for key in canonical_keys(self._order, self._dim)]
        )

    # -- interchange format -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self._order,
            "dim": self._dim,
            "entries": [
                {"idx": list(key), "val": value} for key, value in self._entries.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SymmetricTensor":
        try:
            order = obj["order"]
            dim = obj["dim"]
            raw = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed tensor object: missing {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError("'entries' must be a list")
        pairs = []
        for item in raw:
            try:
                pairs.append((item["idx"], item["val"]))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed entry {item!r}") from exc
        return cls(order, dim, pairs)

    @classmethod
    def from_json(cls, text: str) -> "SymmetricTensor":
        return cls.from_json_dict(json.loads(text))


@functools.lru_cache(maxsize=256)
def _split_table(order: int, dim: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather plan for :func:`split_coefficients`, built the first time the
    edge is split.  Row ``t`` of the child takes ``weight * parent[source]``
    over its entries: a key with ``k`` copies of ``p`` draws, for each
    ``j``, on the key with ``j`` of them replaced by ``q``, with weight
    ``C(k, j) / 2**k`` (exact in binary).  Keys without ``p`` copy over."""
    if not (0 <= p < dim and 0 <= q < dim) or p == q:
        raise ValueError(f"({p}, {q}) is not an edge of a {dim}-vertex cell")
    keys = list(canonical_keys(order, dim))
    index = {key: t for t, key in enumerate(keys)}
    P, Q = p + 1, q + 1
    rows, sources, weights = [], [], []
    for t, key in enumerate(keys):
        k = key.count(P)
        rest = tuple(i for i in key if i != P)
        for j in range(k + 1):
            rows.append(t)
            sources.append(index[tuple(sorted(rest + (Q,) * j + (P,) * (k - j)))])
            weights.append(math.comb(k, j) / 2**k)
    table = (np.array(rows, dtype=np.intp), np.array(sources, dtype=np.intp), np.array(weights))
    for array in table:
        array.setflags(write=False)
    return table


def split_coefficients(coefficients: np.ndarray, order: int, dim: int, p: int, q: int) -> np.ndarray:
    """Bernstein coefficients of the child cell that replaces vertex ``p``
    (0-based) by the midpoint of edge ``(p, q)``, from the parent's.

    ``coefficients`` lists the parent's coefficient for every canonical key
    of shape ``(order, dim)`` in lexicographic order, as
    :meth:`SymmetricTensor.coefficient_vector` does for the standard
    simplex.  Each child coefficient is a convex combination of at most
    ``order + 1`` parent coefficients, so the cost is O(keys * order) and
    rounding cannot grow the coefficients' range.  The other child of the
    split is ``split_coefficients(coefficients, order, dim, q, p)``.
    """
    rows, sources, weights = _split_table(order, dim, p, q)
    return np.bincount(rows, weights=weights * coefficients[sources], minlength=len(coefficients))
