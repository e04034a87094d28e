"""Symmetric tensors stored as canonical coefficient vectors, plus the
form evaluations everything else builds on.

An order-``m``, dimension-``n`` symmetric tensor stores one float per sorted
multi-index ``(i_1 <= ... <= i_m)`` with entries ``i_j in {1, ..., n}``, zeros
included, as a read-only vector in lexicographic key order; a shape with more
than ``MAX_KEYS`` such keys is refused before anything is allocated.  The
remaining ``n**m - C(n+m-1, m)`` logical entries follow by symmetry, and
every sum over the dense index space is carried out over canonical keys
weighted by the multinomial multiplicity ``m! / (c_1! ... c_n!)``, where
``c_i`` counts how often index ``i`` appears in the key.

Summations that feed sign decisions (form values, contractions) use
``math.fsum`` so accumulation error cannot flip a comparison against zero.
What the evaluations derive from the keys alone is a key plan, built once
per shape and shared read-only; a tensor multiplies its vector into it.

The same canonical ordering indexes a cell's Bernstein coefficients: the
coefficients of the form in the barycentric coordinates of a simplex,
listed for every canonical key (zeros included).
:func:`split_coefficients` derives both children's coefficients from
their parent's by midpoint subdivision (de Casteljau in the simplicial
Bernstein basis), in one gather and with no dense array, and
:func:`corner_indices` locates the coefficients that are vertex values.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "MAX_KEYS",
    "SymmetricTensor",
    "canonical_key",
    "canonical_keys",
    "multiplicity",
    "split_coefficients",
]

MAX_KEYS = 2**20  # canonical keys of the largest shape: 8 MiB of coefficients


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


def real(value, what: str = "value") -> float:
    """``value`` as a ``float``: Python and numpy integers and floats only,
    no bools, and no integer beyond the float range; else ``ValueError``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a real number in the float range, got {value!r}")


def nonnegative(value, what: str = "value") -> float:
    """``value`` through :func:`real`, finite and at least zero; else ``ValueError``."""
    value = real(value, what)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and nonnegative, got {value}")
    return value


@functools.lru_cache(maxsize=64)
def _key_plan(order: int, dim: int) -> tuple[tuple, tuple]:
    """Read-only arrays derived from the keys of a shape, in O(keys * order).
    The form's: 0-based key columns, multiplicities.  The gradient's, one
    term per key and distinct index ``i`` in it: the columns of the key less
    one ``i``, the key's row, the run length of ``i``; component ``i`` owns
    the terms ``bounds[i]:bounds[i + 1]``."""
    keys = np.array(list(_key_index(order, dim)), dtype=np.intp).reshape(-1, order) - 1
    positions = _run_positions(keys)
    rows, starts = np.nonzero(positions == 1)
    index = keys[rows, starts]
    ranked = np.argsort(index, kind="stable")
    rows, starts, index = rows[ranked], starts[ranked], index[ranked]
    slots = np.arange(order - 1)
    rest = keys[rows[:, None], slots + (slots >= starts[:, None])]
    columns, rest = (tuple(map(np.ascontiguousarray, a.T)) for a in (keys, rest))
    multiplicities, counts = _multiplicities(positions), (keys[rows] == index[:, None]).sum(axis=1)
    for array in (*columns, *rest, multiplicities, rows, counts):
        array.setflags(write=False)
    bounds = tuple(np.searchsorted(index, np.arange(dim + 1)).tolist())
    return (columns, multiplicities), (rest, rows, counts, bounds)


class SymmetricTensor:
    """Immutable symmetric tensor stored as its canonical coefficient vector.

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
        Values must be Python or numpy integers or floats (not bools).
        Absent keys read as zero.  NaN and infinite values are rejected,
        and so are entries whose weighted sum ``sum(multiplicity(key) *
        |value|)`` is not a finite float, since every term of a form value
        on the simplex is bounded by it.

    The tensor stores every canonical coefficient of its shape, zeros
    included, as one read-only vector in key order; :attr:`entries` lists
    the nonzero ones.  Shapes above :data:`MAX_KEYS` keys raise ``ValueError``.
    """

    __slots__ = ("_order", "_dim", "_values", "_terms", "_gradient")

    def __init__(self, order, dim, entries=None):
        order, dim = integer(order, "order"), integer(dim, "dim")
        index = _key_index(order, dim)
        canonical = {}
        for idx, value in entries.items() if isinstance(entries, Mapping) else entries or ():
            key = canonical_key(idx)
            self._check_key_static(key, order, dim)
            if key in canonical:
                raise ValueError(f"duplicate canonical key {key}")
            canonical[key] = value
        values = list(canonical.values())
        if not set(map(type, values)) <= {float}:
            values = [real(value, f"entry {key}") for key, value in canonical.items()]
        vector = np.zeros(len(index))
        vector[[index[key] for key in canonical]] = values
        self._set(order, dim, vector)

    @classmethod
    def _of(cls, order: int, dim: int, values: np.ndarray) -> "SymmetricTensor":
        """The tensor of a valid shape with canonical coefficients ``values``."""
        return cls.__new__(cls)._set(order, dim, values)

    def _set(self, order: int, dim: int, values: np.ndarray) -> "SymmetricTensor":
        """Store a read-only copy of ``values`` after the checks above; the
        multiplicities sum to ``dim ** order``, so ``max|v| * dim ** order`` bounds the sum."""
        values = values + 0.0  # -0.0 becomes +0.0, as an absent key reads
        if not np.isfinite(values).all():
            t = int(np.argmin(np.isfinite(values)))
            key = next(itertools.islice(_key_index(order, dim), t, None))
            raise ValueError(f"entry {key} is not finite: {values[t]}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                bounded = np.abs(values).max() * np.float64(dim) ** order < math.inf or math.fsum(
                    (_key_plan(order, dim)[0][1] * np.abs(values)).tolist()) < math.inf
        except OverflowError:  # from fsum, or a multiplicity beyond the float range
            bounded = False
        if not bounded:
            raise ValueError("entries too large: the sum of multiplicity * |entry| over all keys "
                             "is not a finite float")
        values.setflags(write=False)
        self._order, self._dim, self._values = order, dim, values
        self._terms = self._gradient = None
        return self

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
        """Read-only view of the nonzero coefficients, in key order."""
        values = self._values.tolist()
        keys = itertools.compress(_key_index(self._order, self._dim), values)
        return MappingProxyType(dict(zip(keys, filter(None, values))))

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._values))

    def __getitem__(self, idx) -> float:
        """Coefficient at a multi-index given in any order."""
        key = canonical_key(idx)
        self._check_key_static(key, self._order, self._dim)
        return self._values.item(_key_index(self._order, self._dim)[key])

    def __repr__(self) -> str:
        return f"SymmetricTensor(order={self._order}, dim={self._dim}, nnz={self.nnz})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        return (
            self._order == other._order
            and self._dim == other._dim
            and np.array_equal(self._values, other._values)
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
    # An overflow makes an infinite coefficient, which ``_set`` refuses.

    def __add__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        self._check_shape(other)
        with np.errstate(over="ignore"):
            values = self._values + other._values
        return self._of(self._order, self._dim, values)

    def __sub__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "SymmetricTensor":
        return (-1.0) * self

    def __mul__(self, t) -> "SymmetricTensor":
        if isinstance(t, bool) or not isinstance(t, numbers.Real):  # numpy bools are not Real
            return NotImplemented
        with np.errstate(over="ignore", invalid="ignore"):
            values = float(t) * self._values
        return self._of(self._order, self._dim, values)

    __rmul__ = __mul__

    # -- evaluations ----------------------------------------------------------

    def _form_arrays(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Key columns and weights, built on first use: column ``j`` holds
        the 0-based ``j``-th index of every key, and each weight is
        ``multiplicity(key) * value``."""
        if self._terms is None:
            columns, multiplicities = _key_plan(self._order, self._dim)[0]
            self._terms = (columns, multiplicities * self._values)
        return self._terms

    def _gradient_arrays(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[int, ...]]:
        """Rest-index columns, weights and component bounds for
        :meth:`gradient_form`, built on first use: a key's term for its
        index ``i``, with run length ``count``, has weight
        ``((value * mult) * count) / m``."""
        if self._gradient is None:
            rest, rows, counts, bounds = _key_plan(self._order, self._dim)[1]
            self._gradient = (rest, self._form_arrays()[1][rows] * counts / self._order, bounds)
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
        """Value of the homogeneous form: the full contraction against ``x``.

        A zero coefficient adds an exact zero term, which ``math.fsum``
        ignores; off the simplex, where such a key's product of ``x``
        overflows, the term and the value are NaN."""
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

    def coefficient_vector(self) -> np.ndarray:
        """A copy of every canonical coefficient, zeros included, in
        lexicographic key order: the Bernstein coefficients of the standard
        simplex."""
        return self._values.copy()

    # -- interchange format -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self._order,
            "dim": self._dim,
            "entries": [
                {"idx": list(key), "val": value} for key, value in self.entries.items()
            ],
        }

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


@functools.lru_cache(maxsize=64)
def _key_index(order: int, dim: int) -> Mapping[tuple[int, ...], int]:
    """Read-only map from each canonical key of shape ``(order, dim)`` to its
    position, where every per-shape table starts.  An empty shape, or one with
    more than ``MAX_KEYS`` keys (a key of order above 16 counting ``order / 16``
    times, as the tables hold its indices), raises ``ValueError`` before
    anything is built; ``C(N, k) >= 2**k`` for ``k = min(order, dim - 1)``."""
    if order < 1 or dim < 1:
        raise ValueError(f"order and dim must be positive integers, got {order} and {dim}")
    if min(order, dim - 1) >= MAX_KEYS.bit_length() or max(order, 16) * math.comb(
            dim + order - 1, order) > 16 * MAX_KEYS:
        raise ValueError(f"shape (order {order}, dim {dim}) has too many canonical keys: "
                         f"the limit is MAX_KEYS = {MAX_KEYS}")
    return MappingProxyType({key: t for t, key in enumerate(canonical_keys(order, dim))})


@functools.lru_cache(maxsize=256)
def _split_table(order: int, dim: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather plan for :func:`split_coefficients`, built the first time the
    edge ``(p, q)``, ``p < q``, is split.  Entry ``t`` of the flattened
    ``(2, K)`` output takes ``weight * parent[source]`` over its entries:
    child ``0`` replaces ``p`` and child ``1`` replaces ``q``.  In the child
    that replaces ``a`` by the midpoint of ``(a, b)``, a key with ``k``
    copies of ``a`` draws, for each ``j``, on the key with ``j`` of them
    replaced by ``b``, with weight ``C(k, j) / 2**k`` (exact in binary).
    Keys without ``a`` copy over."""
    if not 0 <= p < q < dim:
        raise ValueError(f"({p}, {q}) is not an edge p < q of a {dim}-vertex cell")
    index = _key_index(order, dim)
    rows, sources, weights = [], [], []
    for child, (a, b) in enumerate(((p + 1, q + 1), (q + 1, p + 1))):
        for t, key in enumerate(index, start=child * len(index)):
            k = key.count(a)
            rest = tuple(i for i in key if i != a)
            for j in range(k + 1):
                rows.append(t)
                sources.append(index[tuple(sorted(rest + (b,) * j + (a,) * (k - j)))])
                weights.append(math.comb(k, j) / 2**k)
    table = (np.array(rows, dtype=np.intp), np.array(sources, dtype=np.intp), np.array(weights))
    for array in table:
        array.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def corner_indices(order: int, dim: int) -> tuple[int, ...]:
    """Entry ``v`` is the position of the key ``(v + 1, ..., v + 1)``
    among the canonical keys of shape ``(order, dim)``: a cell's Bernstein
    coefficient there is the form's value at its vertex ``v``."""
    return tuple(_key_index(order, dim)[(i,) * order] for i in range(1, dim + 1))


def split_coefficients(coefficients: np.ndarray, order: int, dim: int, p: int, q: int) -> np.ndarray:
    """Bernstein coefficients of both children of bisecting edge ``(p, q)``
    (0-based, ``p < q``) at its midpoint, from the parent's, as a ``(2, K)``
    array: row 0 is the child that replaces vertex ``p`` by the midpoint,
    row 1 the child that replaces ``q``.

    ``coefficients`` lists the parent's ``K`` coefficients, one for every
    canonical key of shape ``(order, dim)`` in lexicographic order, as
    :meth:`SymmetricTensor.coefficient_vector` does for the standard
    simplex.  Each child coefficient is a convex combination of at most
    ``order + 1`` parent coefficients, so the cost is O(keys * order) and
    rounding cannot grow the coefficients' range.  Both rows come from one
    gather and one ``bincount``.
    """
    rows, sources, weights = _split_table(order, dim, p, q)
    K = len(coefficients)
    return np.bincount(rows, weights=weights * coefficients[sources], minlength=2 * K).reshape(2, K)
