"""Exact vectors and linear maps between based spaces.

A Vector or LinearMap stores its coordinates once, as the field's lifted
numbers (see fields): residue ints over GF(p), exact Fractions over QQ.  A
map is a dense rows x cols matrix of them; column j is the image of the
j-th domain basis vector.  The constructors take anything the field
accepts (Scalars of the field, ints, Fractions, literals) and reduce each
entry once, so arithmetic, apply and compose hand them unreduced sums.
entries is a read-only view of the coordinates as Scalars, built on each
read; str prints the stored numbers, which render as the Scalars do.
Everything is immutable, so maps and vectors can key dicts and be shared
across threads; equal values over one field store equal numbers, so they
compare and hash equal however they were built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, neg, sub
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ShapeMismatchError
from .fields import FieldSpec, Scalar, same_field


@dataclass(frozen=True, init=False)
class Vector:
    """Coordinates of an element in a fixed basis."""

    field: FieldSpec
    _numbers: tuple

    def __init__(self, field: FieldSpec, entries: Iterable):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_numbers", tuple(map(field._number, entries)))

    @classmethod
    def make(cls, field: FieldSpec, values: Iterable) -> "Vector":
        return cls(field, values)

    @classmethod
    def zero(cls, field: FieldSpec, dim: int) -> "Vector":
        return cls(field, (0,) * dim)

    @classmethod
    def basis(cls, field: FieldSpec, dim: int, i: int) -> "Vector":
        if not 0 <= i < dim:
            raise ShapeMismatchError(f"basis index {i} out of range for dim {dim}")
        return cls(field, [int(k == i) for k in range(dim)])

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(map(self.field._lower, self._numbers))

    @property
    def dim(self) -> int:
        return len(self._numbers)

    def _check(self, other: "Vector"):
        if not same_field(other.field, self.field):
            raise FieldMismatchError("vectors from different fields")
        if other.dim != self.dim:
            raise ShapeMismatchError(f"vector dims {self.dim} != {other.dim}")

    def __add__(self, other):
        self._check(other)
        return Vector(self.field, map(add, self._numbers, other._numbers))

    def __sub__(self, other):
        self._check(other)
        return Vector(self.field, map(sub, self._numbers, other._numbers))

    def __neg__(self):
        return Vector(self.field, map(neg, self._numbers))

    def scale(self, s: Scalar) -> "Vector":
        c = self.field._number(s)
        return Vector(self.field, [c * a for a in self._numbers])

    def is_zero(self) -> bool:
        return not any(self._numbers)

    def __str__(self):
        return "(" + ", ".join(map(str, self._numbers)) + ")"


@dataclass(frozen=True, init=False)
class LinearMap:
    """A rows x cols matrix over an exact field, acting on column vectors."""

    field: FieldSpec
    rows: int
    cols: int
    _numbers: tuple[tuple, ...]

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: Iterable):
        number = field._number
        numbers = tuple([tuple(map(number, row)) for row in entries])
        if len(numbers) != rows:
            raise ShapeMismatchError(f"expected {rows} rows, got {len(numbers)}")
        for row in numbers:
            if len(row) != cols:
                raise ShapeMismatchError(f"expected {cols} columns, got {len(row)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_numbers", numbers)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable]) -> "LinearMap":
        rows = [tuple(row) for row in rows]
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_columns(cls, field: FieldSpec, columns: Sequence[Vector],
                     rows: int | None = None) -> "LinearMap":
        if rows is None:
            if not columns:
                raise ShapeMismatchError("cannot infer row count of an empty map")
            rows = columns[0].dim
        for c in columns:
            if c.dim != rows:
                raise ShapeMismatchError("columns of unequal dimension")
            if not same_field(c.field, field):
                raise FieldMismatchError("column from a different field")
        return cls(field, rows, len(columns),
                   [[c._numbers[r] for c in columns] for r in range(rows)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "LinearMap":
        return cls(field, n, n, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "LinearMap":
        return cls(field, rows, cols, ((0,) * cols,) * rows)

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        lower = self.field._lower
        return tuple([tuple(map(lower, row)) for row in self._numbers])

    def _require_shape(self, rows: int, cols: int, what: str):
        """ShapeMismatchError, naming the map as what, unless it is rows x cols."""
        if (self.rows, self.cols) != (rows, cols):
            raise ShapeMismatchError(
                f"{what} is {self.rows}x{self.cols}, expected {rows}x{cols}")

    def column(self, j: int) -> Vector:
        return Vector(self.field, [row[j] for row in self._numbers])

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product, exact."""
        if not same_field(v.field, self.field):
            raise FieldMismatchError("map and vector from different fields")
        if v.dim != self.cols:
            raise ShapeMismatchError(
                f"map with {self.cols} columns applied to a {v.dim}-vector")
        xs = v._numbers
        return Vector(self.field, [sum(map(mul, row, xs)) for row in self._numbers])

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other: compose(f, g)(v) = f(g(v))."""
        if not same_field(other.field, self.field):
            raise FieldMismatchError("composing maps over different fields")
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot compose {self.rows}x{self.cols} after "
                f"{other.rows}x{other.cols}")
        rhs = other._numbers
        cols = [[row[c] for row in rhs] for c in range(other.cols)]
        return LinearMap(self.field, self.rows, other.cols, [
            [sum(map(mul, row, col)) for col in cols] for row in self._numbers])

    def _entrywise(self, op, other, verb):
        """self op other, entry by entry, as one map; NotImplemented for
        a non-map."""
        if not isinstance(other, LinearMap):
            return NotImplemented
        if not same_field(other.field, self.field):
            raise FieldMismatchError(f"{verb} maps over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                f"{verb} a {self.rows}x{self.cols} map and a "
                f"{other.rows}x{other.cols} map")
        return LinearMap(self.field, self.rows, self.cols, [
            map(op, r1, r2) for r1, r2 in zip(self._numbers, other._numbers)])

    def __add__(self, other):
        return self._entrywise(add, other, "adding")

    def __sub__(self, other):
        return self._entrywise(sub, other, "subtracting")

    def __neg__(self):
        return LinearMap(self.field, self.rows, self.cols,
                         [map(neg, row) for row in self._numbers])

    def is_zero(self) -> bool:
        return not any(map(any, self._numbers))

    def rank(self) -> int:
        return len(_row_reduce(self._numbers, self.field)[1])

    def solve(self, v: Vector) -> Vector | None:
        """One exact solution x of self . x = v, or None if inconsistent.

        Free coordinates (if the kernel is nontrivial) are set to zero, so
        the result is deterministic.
        """
        if not same_field(v.field, self.field):
            raise FieldMismatchError("map and vector from different fields")
        if v.dim != self.rows:
            raise ShapeMismatchError(
                f"solving a {self.rows}-row system against a {v.dim}-vector")
        cols = self.cols
        reduced, pivots = _row_reduce(
            [row + (x,) for row, x in zip(self._numbers, v._numbers)],
            self.field, stop_col=cols)
        if any(row[cols] for row in reduced[len(pivots):]):
            return None
        out = [0] * cols
        for row, c in zip(reduced, pivots):
            out[c] = row[cols]
        return Vector(self.field, out)

    def __str__(self):
        return _rows_text(self._numbers)


def _rows_text(rows: Sequence[Sequence]) -> str:
    """A map's str, from its stored rows."""
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"


def _entries(*maps: LinearMap) -> list:
    """The maps' lifted entries, row-major, one map after another: the point
    at which a compiled law (see _kernels) is evaluated."""
    return [v for m in maps for row in m._numbers for v in row]


def _row_reduce(rows: Sequence[Sequence], field: FieldSpec,
                stop_col: int | None = None) -> tuple[list, list[int]]:
    """Reduced row echelon form of rows of lifted numbers (the given rows are
    not changed); returns (the reduced rows, pivot columns)."""
    rows = list(rows)
    number = field._number
    n_rows = len(rows)
    limit = (len(rows[0]) if rows else 0) if stop_col is None else stop_col
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field._inverse(rows[r][c])
        rows[r] = [number(inv * a) for a in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [number(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def span_solver(vectors: Sequence[Vector], field: FieldSpec, dim: int):
    """Return a function mapping w to its coordinates in span(vectors).

    The coordinates come back as a Vector over the spanning list (or None if
    w is outside the span).  Raises ShapeMismatchError if the vectors are
    dependent, since coordinates would then be ambiguous.
    """
    matrix = (LinearMap.from_columns(field, list(vectors), rows=dim)
              if vectors else LinearMap.zero(field, dim, 0))
    if matrix.rank() != len(vectors):
        raise ShapeMismatchError("spanning vectors are linearly dependent")
    return matrix.solve
