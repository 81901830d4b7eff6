"""Exact vectors and linear maps between based spaces.

A LinearMap is stored as a dense rows x cols matrix of Scalars; column j is
the image of the j-th domain basis vector.  Everything is immutable, so maps
and vectors can key dicts and be shared across threads.  apply and compose
have one implementation for every field: they multiply the field's lifted
numbers (see fields) and lower each sum back to a Scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import FieldMismatchError, ShapeMismatchError
from .fields import FieldSpec, Scalar, same_field


def _coerce_row(field: FieldSpec, values) -> tuple[Scalar, ...]:
    return tuple(field.scalar(v) for v in values)


@dataclass(frozen=True)
class Vector:
    """Coordinates of an element in a fixed basis."""

    field: FieldSpec
    entries: tuple[Scalar, ...]

    def __post_init__(self):
        field = self.field
        for e in self.entries:
            if e.field is not field and e.field != field:
                raise FieldMismatchError("vector entry from a different field")

    @classmethod
    def make(cls, field: FieldSpec, values: Iterable) -> "Vector":
        return cls(field, _coerce_row(field, values))

    @classmethod
    def zero(cls, field: FieldSpec, dim: int) -> "Vector":
        return cls(field, tuple(field.zero() for _ in range(dim)))

    @classmethod
    def basis(cls, field: FieldSpec, dim: int, i: int) -> "Vector":
        if not 0 <= i < dim:
            raise ShapeMismatchError(f"basis index {i} out of range for dim {dim}")
        return cls(field, tuple(field.one() if k == i else field.zero()
                                for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def _check(self, other: "Vector"):
        if not same_field(other.field, self.field):
            raise FieldMismatchError("vectors from different fields")
        if other.dim != self.dim:
            raise ShapeMismatchError(f"vector dims {self.dim} != {other.dim}")

    def __add__(self, other):
        self._check(other)
        return Vector(self.field, tuple(a + b for a, b in
                                        zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._check(other)
        return Vector(self.field, tuple(a - b for a, b in
                                        zip(self.entries, other.entries)))

    def __neg__(self):
        return Vector(self.field, tuple(-a for a in self.entries))

    def scale(self, s: Scalar) -> "Vector":
        return Vector(self.field, tuple(s * a for a in self.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class LinearMap:
    """A rows x cols matrix over an exact field, acting on column vectors."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ShapeMismatchError(
                f"expected {self.rows} rows, got {len(self.entries)}")
        field = self.field
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeMismatchError(
                    f"expected {self.cols} columns, got {len(row)}")
            for e in row:
                if e.field is not field and e.field != field:
                    raise FieldMismatchError("matrix entry from a different field")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "LinearMap":
        entries = tuple(_coerce_row(field, row) for row in rows)
        n_cols = len(entries[0]) if entries else 0
        return cls(field, len(entries), n_cols, entries)

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
        entries = tuple(tuple(c.entries[r] for c in columns) for r in range(rows))
        return cls(field, rows, len(columns), entries)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "LinearMap":
        return cls.from_rows(field, [[1 if i == j else 0 for j in range(n)]
                                     for i in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "LinearMap":
        z = field.zero()
        return cls(field, rows, cols, tuple(tuple(z for _ in range(cols))
                                            for _ in range(rows)))

    def _require_shape(self, rows: int, cols: int, what: str):
        """ShapeMismatchError, naming the map as what, unless it is rows x cols."""
        if (self.rows, self.cols) != (rows, cols):
            raise ShapeMismatchError(
                f"{what} is {self.rows}x{self.cols}, expected {rows}x{cols}")

    @cached_property
    def _raw_rows(self) -> tuple[tuple, ...]:
        """The entries as the field's lifted numbers, built on first use.

        Equal maps over one field have equal raw rows, so they can key dicts.
        """
        lift = self.field._lift
        return tuple(tuple(map(lift, row)) for row in self.entries)

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(row[j] for row in self.entries))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product, exact."""
        if not same_field(v.field, self.field):
            raise FieldMismatchError("map and vector from different fields")
        if v.dim != self.cols:
            raise ShapeMismatchError(
                f"map with {self.cols} columns applied to a {v.dim}-vector")
        field = self.field
        lower = field._lower
        xs = list(map(field._lift, v.entries))
        return Vector(field, tuple(
            [lower(sum(map(mul, row, xs))) for row in self._raw_rows]))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other: compose(f, g)(v) = f(g(v))."""
        if not same_field(other.field, self.field):
            raise FieldMismatchError("composing maps over different fields")
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot compose {self.rows}x{self.cols} after "
                f"{other.rows}x{other.cols}")
        lower = self.field._lower
        rhs = other._raw_rows
        cols = [[row[c] for row in rhs] for c in range(other.cols)]
        return LinearMap(self.field, self.rows, other.cols, tuple(
            tuple([lower(sum(map(mul, row, col))) for col in cols])
            for row in self._raw_rows))

    def __add__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if not same_field(other.field, self.field):
            raise FieldMismatchError("adding maps over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                f"adding a {self.rows}x{self.cols} map to a "
                f"{other.rows}x{other.cols} map")
        return LinearMap(self.field, self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinearMap(self.field, self.rows, self.cols,
                         tuple(tuple(-a for a in row) for row in self.entries))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def rank(self) -> int:
        _, pivots = _row_reduce([list(r) for r in self.entries], self.field)
        return len(pivots)

    def solve(self, v: Vector) -> Vector | None:
        """One exact solution x of self . x = v, or None if inconsistent.

        Free coordinates (if the kernel is nontrivial) are set to zero, so
        the result is deterministic.
        """
        if v.dim != self.rows:
            raise ShapeMismatchError(
                f"solving a {self.rows}-row system against a {v.dim}-vector")
        aug = [list(row) + [v.entries[r]] for r, row in enumerate(self.entries)]
        reduced, pivots = _row_reduce(aug, self.field, stop_col=self.cols)
        zero = self.field.zero()
        for r in range(len(pivots), self.rows):
            if reduced[r][self.cols]:
                return None
        out = [zero] * self.cols
        for r, c in enumerate(pivots):
            out[c] = reduced[r][self.cols]
        return Vector(self.field, tuple(out))

    def __str__(self):
        return "[" + ",".join(
            "[" + ",".join(str(e) for e in row) + "]" for row in self.entries
        ) + "]"


def _entries(*maps: LinearMap) -> list:
    """The maps' lifted entries, row-major, one map after another: the point
    at which a compiled law (see _kernels) is evaluated."""
    return [v for m in maps for row in m._raw_rows for v in row]


def _row_reduce(rows: list[list[Scalar]], field: FieldSpec,
                stop_col: int | None = None) -> tuple[list[list[Scalar]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    limit = n_cols if stop_col is None else stop_col
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [inv * a for a in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
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
