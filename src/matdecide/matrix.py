"""Exact arithmetic for square integer matrices.

Entries are Python ints, so products along arbitrarily long paths stay exact;
no floating point is used anywhere. Matrices are immutable and hashable, which
lets BFS searches and coset tables key on them directly. The constructor
validates its input; arithmetic on valid matrices skips that second pass.
The 2x2 matrices of the decision pipeline take closed forms for products,
determinants and inverses; larger n uses row-by-column sums, Bareiss
elimination and cofactors. The module also defines _Record, the base of the
package's small immutable values (label domains, coset tables, pushdown
machines, decisions).
"""

from __future__ import annotations

from functools import lru_cache
from operator import index, mul
from typing import Iterable, Sequence


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square list of rows by fraction-free (Bareiss)
    elimination; the empty matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Division is exact by the Sylvester identity.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=None)
def _identity_entries(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _generator_dim(gens: Sequence["IntMatrix"], *others: "IntMatrix") -> int:
    """The one dimension of a nonempty generator list and any other matrices;
    ValueError for an empty list or for mixed dimensions."""
    if not gens:
        raise ValueError("generator list must be nonempty")
    dims = {m.n for m in (*others, *gens)}
    if len(dims) != 1:
        raise ValueError(f"matrices of mixed dimensions: {sorted(dims)}")
    return dims.pop()


class _Record:
    """Immutable value with named fields, in place of a frozen dataclass:
    importing dataclasses loads inspect, ast and dis, which would cost each
    CLI call more than its query. A subclass lists its fields in _fields,
    declares them (and any derived attributes) in __slots__, and passes
    their values in order to _Record.__init__ from an __init__ of its own
    signature. Equality and hash go by class and fields, the repr reads
    like a keyword call, assignment raises AttributeError, and pickle and
    copy rebuild the value through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values())


class IntMatrix:
    """Immutable n x n matrix with arbitrary-precision integer entries."""

    __slots__ = ("n", "entries", "_hash")

    def __init__(self, rows: Iterable[Sequence[int]]):
        # index, not int: a float, string or fraction entry is refused, not truncated
        entries = tuple(tuple(map(index, row)) for row in rows)
        n = len(entries)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for row in entries:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in {n}x{n}")
        self._set(entries)

    def _set(self, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        _set_n(self, len(entries))
        _set_entries(self, entries)
        _set_hash(self, hash(entries))
        return self

    @classmethod
    def _from_entries(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap a nonempty square tuple of int tuples without checking it."""
        return cls.__new__(cls)._set(entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return (IntMatrix, (self.entries,))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls._from_entries(_identity_entries(n))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n}x{self.n} times {other.n}x{other.n}")
        if self.n == 2:
            (a, b), (c, d) = self.entries
            (e, f), (g, h) = other.entries
            return IntMatrix._from_entries(((a * e + b * g, a * f + b * h),
                                            (c * e + d * g, c * f + d * h)))
        cols = tuple(zip(*other.entries))
        return IntMatrix._from_entries(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.entries)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"IntMatrix([{rows}])"

    def det(self) -> int:
        """Exact determinant: ad - bc for 2x2, else fraction-free (Bareiss)
        elimination."""
        if self.n == 2:
            (a, b), (c, d) = self.entries
            return a * d - b * c
        return _det(self.entries)

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact integer inverse; requires determinant +1 or -1."""
        d = self.det()
        if d not in (1, -1):
            raise ValueError("not invertible over the integers")
        if self.n == 2:
            (a, b), (c, e) = self.entries
            # adjugate [[e, -b], [-c, a]] times det, which is its own inverse
            return IntMatrix._from_entries(((d * e, -d * b), (-d * c, d * a)))
        e, n = self.entries, self.n

        def minor(drop_i: int, drop_j: int) -> int:
            return _det([row[:drop_j] + row[drop_j + 1:] for i, row in enumerate(e) if i != drop_i])

        # adjugate / det, with det = +-1 so division is multiplication by det
        return IntMatrix._from_entries(
            tuple(tuple((-1) ** (i + j) * minor(j, i) * d for j in range(n)) for i in range(n))
        )

    def max_abs_entry(self) -> int:
        if self.n == 2:
            (a, b), (c, d) = self.entries
            return max(abs(a), abs(b), abs(c), abs(d))
        return max(abs(x) for row in self.entries for x in row)

    def is_identity(self) -> bool:
        return self.entries == _identity_entries(self.n)


# The slot descriptors write past the refusing __setattr__. Called directly
# they cost half of object.__setattr__, and every computed matrix pays three.
_set_n, _set_entries, _set_hash = (
    IntMatrix.__dict__[name].__set__ for name in IntMatrix.__slots__
)
