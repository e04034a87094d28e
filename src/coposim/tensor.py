"""Symmetric tensors stored as canonical coefficient vectors, plus the
form evaluations everything else builds on.

An order-``m``, dimension-``n`` symmetric tensor stores one float per sorted
multi-index ``(i_1 <= ... <= i_m)`` over ``1..n``, zeros included, as a
read-only vector in lexicographic key order.  Multi-indices from outside,
a whole tensor's entries or one ``__getitem__`` key, go through one check
that sorts, validates and ranks them all in one array pass.  Every sum over the dense
index space runs over these keys weighted by the multiplicity
``m! / (c_1! ... c_n!)``, ``c_i`` counting index ``i`` in the key; sums
that feed sign decisions use ``math.fsum``, so accumulation error cannot
flip a comparison against zero.

Every per-shape plan (the form's and gradient's, the split tables, the
corners, the prescreen's face ranks) derives in numpy from one key table
per shape: its keys as an integer array, and a rank table that gives any
sorted key its position as one sum.  A shape with more than ``MAX_KEYS``
keys, of order above ``MAX_ORDER``, or with multiplicities beyond the float
range, is refused there.

The same ordering indexes a cell's Bernstein coefficients, those of the
form in the barycentric coordinates of a simplex.  :func:`split_coefficients`
derives both children's from their parent's by midpoint subdivision (de
Casteljau in the simplicial Bernstein basis), in one gather and with no
dense array; :func:`corner_indices` locates those that are vertex values.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "MAX_KEYS",
    "MAX_ORDER",
    "SymmetricTensor",
    "multiplicity",
    "split_coefficients",
]

# Canonical keys of the largest shape: 8 MiB per coefficient vector.  The
# split tables cached beside them hold up to order + 2 gather entries per key
# for each of up to 256 split edges, so at large dim they can take far more.
MAX_KEYS = 2**20
MAX_ORDER = 2**12  # largest order; every per-shape plan takes O(order) Python-level steps


def integer(value, what: str = "index", minimum: int | None = None) -> int:
    """``value`` as an ``int``: Python and numpy integers, and floats with
    no fractional part, are accepted; bools, strings, fractional floats and
    anything else raise ``ValueError``, and so does an integer below
    ``minimum`` when one is given."""
    if type(value) is not int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            value = int(value)
        elif isinstance(value, (float, np.floating)) and float(value).is_integer():
            value = int(value)
        else:
            raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def multiplicity(key: tuple[int, ...]) -> int:
    """Number of distinct permutations of a sorted multi-index."""
    count = math.factorial(len(key))
    for _, group in itertools.groupby(key):
        count //= math.factorial(sum(1 for _ in group))
    return count


def _multiplicities(keys: np.ndarray) -> np.ndarray:
    """``multiplicity`` of every sorted key (row of ``keys``) as a float, built
    slot by slot in Python ints: the distinct permutations of a key's first
    ``j + 1`` entries number those of its first ``j`` times ``(j + 1) / run``,
    ``run`` the length of the run of equal indices that ends at slot ``j``;
    each such number is an integer, so every division is exact."""
    counts = np.ones(len(keys), dtype=object)
    run = np.ones(len(keys), dtype=np.int64)
    for j in range(1, keys.shape[1]):
        run = np.where(keys[:, j] == keys[:, j - 1], run + 1, 1)
        counts = counts * (j + 1) // run
    return counts.astype(float)


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


def json_record(obj: Mapping, kind: str, items: str, item: str, key: str, value: str
                ) -> tuple[object, object, list[tuple[tuple, object]]]:
    """``order``, ``dim`` and the ``(tuple(entry[key]), entry[value])`` pairs
    of the list ``obj[items]`` of a record as parsed from JSON, its fields
    unchecked; a missing field, a non-list, or an entry that is not a mapping
    holding both fields, with an iterable ``key``, raises ``ValueError``
    naming the ``kind`` of record or the ``item``."""
    try:
        order, dim, entries = obj["order"], obj["dim"], obj[items]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} object: missing {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError(f"'{items}' must be a list")
    pairs = []
    for entry in entries:
        try:
            pairs.append((tuple(entry[key]), entry[value]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {item} {entry!r}") from exc
    return order, dim, pairs


@functools.lru_cache(maxsize=64)
def _key_table(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only key table of a shape ``(m, n)``: the canonical keys as
    0-based rows of a ``(K, m)`` array in lexicographic order, and the rank
    table ``R[j, v] = C(n+m-2-j, m-j) - C(n+m-2-j-v, m-j)`` (the combinatorial
    number system for multisets; no entry exceeds K), so that a key's
    position is ``sum_j R[j, key[j]]``.  An empty shape, one above
    ``MAX_KEYS`` (a key of order ``m > 16`` counting ``m / 16`` times), one
    of order above ``MAX_ORDER`` (only dimension 1 passes ``MAX_KEYS`` there),
    or one whose multiplicities leave the float range raises ``ValueError`` first."""
    if order < 1 or dim < 1:
        raise ValueError(f"order and dim must be positive integers, got {order} and {dim}")
    if min(order, dim - 1) >= MAX_KEYS.bit_length() or max(order, 16) * (  # K >= 2**min(m, n - 1)
            count := math.comb(dim + order - 1, order)) > 16 * MAX_KEYS:
        raise ValueError(f"shape (order {order}, dim {dim}) has too many canonical keys: "
                         f"the limit is MAX_KEYS = {MAX_KEYS}")
    if order > MAX_ORDER:
        raise ValueError(f"shape (order {order}, dim {dim}) is beyond the order limit "
                         f"MAX_ORDER = {MAX_ORDER}")
    largest = multiplicity(sorted(t % dim for t in range(order)))  # of the most balanced key
    if largest > sys.float_info.max:
        raise ValueError(f"shape (order {order}, dim {dim}) has keys of multiplicity about "
                         f"10**{math.log10(largest):.1f}, beyond the float range")
    keys = np.fromiter(itertools.chain.from_iterable(itertools.combinations_with_replacement(
        range(dim), order)), np.intp, count * order).reshape(count, order)
    ranks = np.array([[math.comb(dim + order - 2 - j - v, order - j) for v in range(dim)]
                      for j in range(order)], dtype=np.intp)
    ranks = ranks[:, :1] - ranks
    for array in (keys, ranks):
        array.setflags(write=False)
    return keys, ranks


def _rank(order: int, dim: int, keys: np.ndarray) -> np.ndarray:
    """Positions of the 0-based sorted keys on the last axis of ``keys``, by the rank rule."""
    return _key_table(order, dim)[1].take(keys + np.arange(0, order * dim, dim)).sum(axis=-1)


def _monomials(columns: tuple[np.ndarray, ...], points: np.ndarray):
    """``points[c0] * points[c1] * ...`` over the 0-based key columns, taken
    left to right as ``math.prod`` would: every key's monomial at the points
    whose coordinates run along the first axis of ``points``; with no
    columns (the empty key), 1.0."""
    if not columns:
        return 1.0
    product = points[columns[0]]
    for column in columns[1:]:
        product = product * points[column]
    return product


def _positions(order: int, dim: int, keys: Iterable) -> np.ndarray:
    """Positions of the multi-indices ``keys``, each in any order, among the
    canonical keys of a valid shape, all checked and ranked in one pass.  A
    non-integer index (by :func:`integer`), then the first key in input order
    of the wrong length, out of range, or the same sorted as an earlier
    key, raises ``ValueError`` naming that key sorted."""
    keys = [tuple(key) for key in keys]
    flat = list(itertools.chain.from_iterable(keys))
    if not set(map(type, flat)) <= {int}:  # plain ints, the common case, need no check
        flat = list(map(integer, flat))
    # Range-check the Python ints first: an index beyond intp must fail as out of range.
    if set(map(len, keys)) <= {order} and (not flat or 1 <= min(flat) and max(flat) <= dim):
        rows = np.array(flat, np.intp).reshape(-1, order) - 1
        rows.sort(axis=1)
        positions = _rank(order, dim, rows)
        if len(set(positions.tolist())) == len(keys):
            return positions
    seen = set()  # some key is at fault: name the first
    for key in keys:
        key = tuple(sorted(map(integer, key)))
        if len(key) != order:
            raise ValueError(f"multi-index {key} has length {len(key)}, expected {order}")
        if key[0] < 1 or key[-1] > dim:
            raise ValueError(f"multi-index {key} out of range 1..{dim}")
        if key in seen:
            raise ValueError(f"duplicate canonical key {key}")
        seen.add(key)


@functools.lru_cache(maxsize=64)
def _key_plan(order: int, dim: int) -> tuple[tuple, tuple]:
    """Read-only arrays derived from the key table of a shape.  The form's:
    0-based key columns, multiplicities.  The gradient's, over the keys
    ``b`` of order ``m - 1`` (for order 1 the empty key): their columns, and
    ``(dim, K')`` positions of the keys ``b + i`` and run lengths of ``i`` there."""
    keys = _key_table(order, dim)[0]
    rest = _key_table(order - 1, dim)[0] if order > 1 else np.empty((1, 0), np.intp)
    grown = np.empty((dim, len(rest), order), np.intp)
    grown[:, :, :-1], grown[:, :, -1] = rest, np.arange(dim)[:, None]
    grown.sort(axis=2)
    rows = _rank(order, dim, grown)
    counts = (grown == np.arange(dim)[:, None, None]).sum(axis=2)
    columns, rest = (tuple(map(np.ascontiguousarray, a.T)) for a in (keys, rest))
    multiplicities = _multiplicities(keys)
    for array in (*columns, *rest, multiplicities, rows, counts):
        array.setflags(write=False)
    return (columns, multiplicities), (rest, rows, counts)


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

    :attr:`entries` lists the nonzero coefficients.  Shapes above
    :data:`MAX_KEYS` keys or :data:`MAX_ORDER`, or whose multiplicities leave
    the float range, raise ``ValueError``.
    """

    __slots__ = ("_order", "_dim", "_values", "_terms", "_gradient")

    def __init__(self, order, dim, entries=None):
        order, dim = integer(order, "order"), integer(dim, "dim")
        vector = np.zeros(len(_key_table(order, dim)[0]))
        pairs = list(entries.items() if isinstance(entries, Mapping) else entries or ())
        positions = _positions(order, dim, [key for key, _ in pairs])
        values = [value for _, value in pairs]
        if not set(map(type, values)) <= {float}:
            keys = (_key_table(order, dim)[0][positions] + 1).tolist()
            values = [real(value, f"entry {tuple(key)}") for key, value in zip(keys, values)]
        vector[positions] = values
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
            key = tuple((_key_table(order, dim)[0][t] + 1).tolist())
            raise ValueError(f"entry {key} is not finite: {values[t]}")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                bounded = np.abs(values).max() * np.float64(dim) ** order < math.inf or math.fsum(
                    (_key_plan(order, dim)[0][1] * np.abs(values)).tolist()) < math.inf
        except OverflowError:  # from fsum: the shape's multiplicities are floats
            bounded = False
        if not bounded:
            raise ValueError("entries too large: the sum of multiplicity * |entry| over all keys "
                             "is not a finite float")
        values.setflags(write=False)
        self._order, self._dim, self._values = order, dim, values
        self._terms = self._gradient = None
        return self

    @property
    def order(self) -> int:
        return self._order

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def entries(self) -> Mapping[tuple[int, ...], float]:
        """Read-only view of the nonzero coefficients, in key order."""
        nonzero = np.flatnonzero(self._values)
        keys = (_key_table(self._order, self._dim)[0][nonzero] + 1).tolist()
        return MappingProxyType(dict(zip(map(tuple, keys), self._values[nonzero].tolist())))

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._values))

    def __getitem__(self, idx) -> float:
        """Coefficient at a multi-index given in any order."""
        return self._values.item(_positions(self._order, self._dim, [idx])[0])

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
        """Key columns and weights ``multiplicity(key) * value``, built on
        first use: column ``j`` holds the 0-based ``j``-th index of every key."""
        if self._terms is None:
            columns, multiplicities = _key_plan(self._order, self._dim)[0]
            self._terms = (columns, multiplicities * self._values)
        return self._terms

    def _gradient_arrays(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Rest-key columns and ``(dim, K')`` weights, built on first use: the
        term of component ``i`` and rest key ``b`` weighs ``((value * mult) *
        count) / m`` of the key ``b + i``, in which ``i`` runs ``count`` times."""
        if self._gradient is None:
            rest, rows, counts = _key_plan(self._order, self._dim)[1]
            self._gradient = (rest, self._form_arrays()[1][rows] * counts / self._order)
        return self._gradient

    def form(self, x) -> float:
        """Value of the homogeneous form: the full contraction against ``x``.

        A zero coefficient adds an exact zero term, which ``math.fsum``
        ignores; off the simplex, where such a key's product of ``x``
        overflows, the term and the value are NaN."""
        columns, weights = self._form_arrays()
        return math.fsum((weights * _monomials(columns, self._check_vector(x))).tolist())

    def gradient_form(self, x) -> np.ndarray:
        """One-slot contraction: component ``i`` sums the coefficient times
        ``x`` over the remaining ``m - 1`` slots of every entry with a leading
        index ``i``.  Satisfies ``x @ gradient_form(x) == form(x)``."""
        rest, weights = self._gradient_arrays()
        terms = (weights * _monomials(rest, self._check_vector(x))).tolist()
        return np.array(list(map(math.fsum, terms)))

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
        return cls(*json_record(obj, "tensor", "entries", "entry", "idx", "val"))


@functools.lru_cache(maxsize=256)
def _split_table(order: int, dim: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather plan for :func:`split_coefficients`, built the first time the
    edge ``(p, q)``, ``p < q``, is split.  Entry ``t`` of the flattened
    ``(2, K)`` output takes ``weight * parent[source]`` over its entries:
    child ``0`` replaces ``p`` and child ``1`` replaces ``q``.  In the child
    that replaces ``a`` by the midpoint of ``(a, b)``, a key with ``k``
    copies of ``a`` draws, for each ``j``, on the key with ``j`` of them
    replaced by ``b``, with weight ``C(k, j) / 2**k`` (exact in binary),
    read from a triangle no longer than a child's entries.  Keys without
    ``a`` copy over."""
    if not 0 <= p < q < dim:
        raise ValueError(f"({p}, {q}) is not an edge p < q of a {dim}-vertex cell")
    keys = _key_table(order, dim)[0]
    a, b = (np.repeat(ends, len(keys))[:, None] for ends in ((p, q), (q, p)))
    keys = np.concatenate((keys, keys))  # child 0 replaces a = p, child 1 a = q
    copies = keys == a
    k = copies.sum(axis=1)
    rows, j = np.nonzero(np.arange(order + 1) <= k[:, None])  # j ascends within a row
    copies, k = copies[rows], k[rows]
    moved = np.where(copies & (copies.cumsum(axis=1) <= j[:, None]), b[rows], keys[rows])
    moved.sort(axis=1)
    binomials = np.array([math.comb(c, i) / 2**c for c in range(order + 1) for i in range(c + 1)])
    table = (rows, _rank(order, dim, moved), binomials[k * (k + 1) // 2 + j])
    for array in table:
        array.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def corner_indices(order: int, dim: int) -> tuple[int, ...]:
    """Entry ``v`` is the position of the key ``(v + 1, ..., v + 1)``, where
    a cell's Bernstein coefficient is the form's value at its vertex ``v``."""
    return tuple(_key_table(order, dim)[1].sum(axis=0).tolist())


@functools.lru_cache(maxsize=64)
def _face_ranks(order: int, dim: int) -> np.ndarray:
    """Read-only positions of the keys on each pair face ``(i, j)``, one row
    per pair in lexicographic pair order: entry ``r`` is the position of the
    key of ``order - r`` copies of ``i``, then ``r`` of ``j``."""
    prefix = np.zeros((order + 1, dim), np.intp)  # row k: the first k rows of the rank table summed
    np.cumsum(_key_table(order, dim)[1], axis=0, out=prefix[1:])
    heads = prefix[::-1].T
    i, j = np.triu_indices(dim, 1)
    ranks = heads[i]
    ranks += (prefix[order][:, None] - heads)[j]
    ranks.setflags(write=False)
    return ranks


def split_coefficients(coefficients: np.ndarray, order: int, dim: int, p: int, q: int) -> np.ndarray:
    """Bernstein coefficients of both children of bisecting edge ``(p, q)``
    (0-based, ``p < q``) at its midpoint, from the parent's ``K``
    coefficients in key order (as :meth:`SymmetricTensor.coefficient_vector`
    gives them for the standard simplex), as a ``(2, K)`` array: row 0 is
    the child that replaces vertex ``p`` by the midpoint, row 1 the child
    that replaces ``q``.  Each child coefficient is a convex combination of
    at most ``order + 1`` parent coefficients, so the cost is O(keys *
    order) and rounding cannot grow the coefficients' range."""
    rows, sources, weights = _split_table(order, dim, p, q)
    K = len(coefficients)
    return np.bincount(rows, weights=weights * coefficients[sources], minlength=2 * K).reshape(2, K)
