"""Lie algebras by structure constants, actions, and crossed modules.

A Lie algebra of dimension n is a tensor c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k.  An action of P on M is a tensor
a[i][j][k] with e_i . e_j = sum_k a[i][j][k] e_k (first index over P, last
two over M).  A crossed module bundles M, P, a boundary map M -> P and an
action of P on M.

Structure and action tensors are stored once, as the field's lifted numbers
(see fields) flat in the kernels' row-major order: entry (i, j, k) at
(i*d1 + j)*d2 + k.  structure and tensor are read-only Scalar views of them
in the declared shape.  bracket and act have one implementation for every
field: they expand the vectors' lifted numbers through the nonzero entries,
and the resulting Vector reduces each coordinate once.

Axiom checking lives in the validate_* functions, which return witness
bearing reports instead of raising.  Constructors only reject malformed
shapes; the one exception is inclusion_crossed_module, which must refuse a
non-ideal to produce anything meaningful.  It and
abelian_zero_crossed_module validate what they build and raise
InvariantError if it breaks an axiom.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    FieldMismatchError,
    InvariantError,
    NotAbelianError,
    NotAnIdealError,
    ShapeMismatchError,
)
from .fields import FieldSpec, Scalar, same_field
from .linalg import LinearMap, Vector, _row_reduce, span_solver
from .validation import ValidationReport

# Structure tensors are dense, so O(n^3) storage; fine for desk scale.
MAX_DIM = 8

Tensor = tuple[tuple[tuple[Scalar, ...], ...], ...]


def _check_dim(dim: int):
    if dim < 0:
        raise ShapeMismatchError("negative dimension")
    if dim > MAX_DIM:
        raise ShapeMismatchError(f"dimension {dim} exceeds the cap of {MAX_DIM}")


def _nest(flat: Sequence, shape: tuple[int, int, int]) -> tuple:
    """A flat row-major tensor as nested tuples of the given shape; the
    shape, not the flat length, fixes the slice and row counts."""
    d0, d1, d2 = shape
    rows = [tuple(flat[r * d2:r * d2 + d2]) for r in range(d0 * d1)]
    return tuple(tuple(rows[i * d1:i * d1 + d1]) for i in range(d0))


def _row(obj, i: int, j: int) -> tuple:
    """Row (i, j) of obj's stored tensor, indexed as its nested view is."""
    d0, d1, d2 = obj._shape
    start = (range(d0)[i] * d1 + range(d1)[j]) * d2
    return obj._numbers[start:start + d2]


def _store(obj, field: FieldSpec, tensor, shape: tuple[int, int, int]):
    """Store a nested tensor of the given shape on obj, once, as flat lifted
    numbers; also its shape, and the nonzero entries (i, j, k, lifted
    coefficient) that bilinear expansion reads.  Neither of those is a
    dataclass field, so equality and hashing ignore them."""
    d0, d1, d2 = shape
    if len(tensor) != d0:
        raise ShapeMismatchError(f"tensor has {len(tensor)} slices, expected {d0}")
    number = field._number
    numbers = []
    for plane in tensor:
        if len(plane) != d1:
            raise ShapeMismatchError(
                f"tensor slice has {len(plane)} rows, expected {d1}")
        for row in plane:
            if len(row) != d2:
                raise ShapeMismatchError(
                    f"tensor row has {len(row)} entries, expected {d2}")
            numbers.extend(map(number, row))
    object.__setattr__(obj, "_numbers", tuple(numbers))
    object.__setattr__(obj, "_shape", shape)
    object.__setattr__(obj, "_terms", tuple(
        (n // (d1 * d2), n // d2 % d1, n % d2, c)
        for n, c in enumerate(numbers) if c))


def _expand(field: FieldSpec, terms, x: Vector, y: Vector, dim: int) -> Vector:
    """Bilinear expansion of x, y through the terms of a tensor, as a Vector."""
    xs, ys = x._numbers, y._numbers
    out = [0] * dim
    for i, j, k, c in terms:
        out[k] += xs[i] * ys[j] * c
    return Vector(field, out)


def _sparse_to_dense(field: FieldSpec, shape: tuple[int, int, int],
                     entries: Iterable[tuple[int, int, Mapping[int, object]]],
                     antisymmetric: bool) -> list:
    """Fill a nested tensor of lifted numbers from 1-based sparse entries
    (i, j, {k: coeff}); with no entries, the zero tensor of the shape."""
    d0, d1, d2 = shape
    rows = [[[0] * d2 for _ in range(d1)] for _ in range(d0)]
    seen = set()
    for i, j, out in entries:
        if not (1 <= i <= d0 and 1 <= j <= d1):
            raise ShapeMismatchError(f"bracket pair ({i}, {j}) out of range")
        if antisymmetric and i >= j:
            raise ShapeMismatchError(
                f"bracket entries require i < j, got ({i}, {j})")
        for k, coeff in out.items():
            if not 1 <= k <= d2:
                raise ShapeMismatchError(f"output index {k} out of range")
            if (i, j, k) in seen:
                raise ShapeMismatchError(
                    f"duplicate tensor entry at ({i}, {j}, {k})")
            seen.add((i, j, k))
            c = rows[i - 1][j - 1][k - 1] = field._number(coeff)
            if antisymmetric:
                rows[j - 1][i - 1][k - 1] = -c
    return rows


@dataclass(frozen=True, init=False)
class LieAlgebra:
    """Finite-dimensional Lie algebra presented by structure constants.

    Equality ignores the name: two algebras are the same when field, dim and
    tensor agree entry for entry.
    """

    name: str = dc_field(compare=False)
    field: FieldSpec = dc_field()
    dim: int = dc_field()
    _numbers: tuple = dc_field()

    def __init__(self, name: str, field: FieldSpec, dim: int, structure):
        _check_dim(dim)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        _store(self, field, structure, (dim, dim, dim))

    @property
    def structure(self) -> Tensor:
        """The structure constants c[i][j][k], as Scalars."""
        return _nest(tuple(map(self.field._lower, self._numbers)), self._shape)

    @classmethod
    def abelian(cls, name: str, field: FieldSpec, dim: int) -> "LieAlgebra":
        return cls.from_sparse_brackets(name, field, dim, ())

    @classmethod
    def from_sparse_brackets(
            cls, name: str, field: FieldSpec, dim: int,
            brackets: Iterable[tuple[int, int, Mapping[int, object]]],
    ) -> "LieAlgebra":
        """Build from 1-based entries (i, j, {k: c}) with i < j.

        The j > i half and the zero diagonal are filled in automatically, so
        the stored tensor is antisymmetric by construction.
        """
        _check_dim(dim)
        tensor = _sparse_to_dense(field, (dim, dim, dim), brackets,
                                  antisymmetric=True)
        return cls(name, field, dim, tensor)

    def basis(self, i: int) -> Vector:
        return Vector.basis(self.field, self.dim, i)

    def basis_vectors(self) -> list[Vector]:
        return [self.basis(i) for i in range(self.dim)]

    def basis_bracket(self, i: int, j: int) -> Vector:
        """[e_i, e_j], read off the structure tensor."""
        return Vector(self.field, _row(self, i, j))

    def zero_vector(self) -> Vector:
        return Vector.zero(self.field, self.dim)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] by bilinear expansion through the structure tensor."""
        self._check_member(x)
        self._check_member(y)
        return _expand(self.field, self._terms, x, y, self.dim)

    def _check_member(self, v: Vector):
        if not same_field(v.field, self.field):
            raise FieldMismatchError(
                f"vector over {v.field} in algebra over {self.field}")
        if v.dim != self.dim:
            raise ShapeMismatchError(
                f"{v.dim}-vector in a {self.dim}-dimensional algebra")

    def is_abelian(self) -> bool:
        return not any(self._numbers)

    def __str__(self):
        return f"{self.name} (dim {self.dim} over {self.field})"


@dataclass(frozen=True, init=False)
class LieAction:
    """Bilinear action of an actor algebra P on an acted algebra M."""

    actor: LieAlgebra
    acted: LieAlgebra
    _numbers: tuple

    def __init__(self, actor: LieAlgebra, acted: LieAlgebra, tensor):
        if not same_field(actor.field, acted.field):
            raise FieldMismatchError("actor and acted algebras over different fields")
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "acted", acted)
        _store(self, actor.field, tensor, (actor.dim, acted.dim, acted.dim))

    @property
    def field(self) -> FieldSpec:
        return self.actor.field

    @property
    def tensor(self) -> Tensor:
        """The action constants a[i][j][k], as Scalars."""
        return _nest(tuple(map(self.field._lower, self._numbers)), self._shape)

    @classmethod
    def zero(cls, actor: LieAlgebra, acted: LieAlgebra) -> "LieAction":
        return cls.from_sparse(actor, acted, ())

    @classmethod
    def from_sparse(cls, actor: LieAlgebra, acted: LieAlgebra,
                    entries: Iterable[tuple[int, int, Mapping[int, object]]],
                    ) -> "LieAction":
        tensor = _sparse_to_dense(actor.field,
                                  (actor.dim, acted.dim, acted.dim),
                                  entries, antisymmetric=False)
        return cls(actor, acted, tensor)

    @classmethod
    def adjoint(cls, algebra: LieAlgebra) -> "LieAction":
        """The algebra acting on itself by its own bracket."""
        return cls(algebra, algebra, _nest(algebra._numbers, algebra._shape))

    def basis_act(self, i: int, j: int) -> Vector:
        """e_i . e_j, read off the action tensor."""
        return Vector(self.field, _row(self, i, j))

    def act(self, p: Vector, m: Vector) -> Vector:
        """p . m by bilinear expansion through the action tensor."""
        self.actor._check_member(p)
        self.acted._check_member(m)
        return _expand(self.field, self._terms, p, m, self.acted.dim)

    def _matrix(self, coords) -> list[list]:
        """The matrix of v = sum_a coords[a] e_a acting on the acted algebra,
        in lifted numbers: entry (r, b) is the r-th coordinate of v . e_b."""
        dim = self.acted.dim
        acc = [[0] * dim for _ in range(dim)]
        for a, b, r, c in self._terms:
            acc[r][b] += coords[a] * c
        return acc


@dataclass(frozen=True)
class CrossedModule:
    """Boundary map m_algebra -> p_algebra with a compatible action.

    The constructor checks shapes only; run validate_crossed_module for the
    axioms.  Equality ignores the name.
    """

    name: str = dc_field(compare=False)
    m_algebra: LieAlgebra = dc_field()
    p_algebra: LieAlgebra = dc_field()
    boundary: LinearMap = dc_field()
    action: LieAction = dc_field()

    def __post_init__(self):
        if not same_field(self.m_algebra.field, self.p_algebra.field):
            raise FieldMismatchError("module and base algebras over different fields")
        if not same_field(self.boundary.field, self.m_algebra.field):
            raise FieldMismatchError("boundary map over a different field")
        self.boundary._require_shape(self.p_algebra.dim, self.m_algebra.dim,
                                     "boundary")
        if self.action.actor != self.p_algebra or self.action.acted != self.m_algebra:
            raise ShapeMismatchError("action does not connect the stated algebras")

    @property
    def field(self) -> FieldSpec:
        return self.p_algebra.field

    @cached_property
    def _laws(self) -> dict:
        """The crossed-morphism laws from this module: id(target) ->
        (target, law), filled by validate_crossed_morphism."""
        return {}

    def __str__(self):
        return (f"{self.name} (module {self.m_algebra.name}, "
                f"base {self.p_algebra.name})")


def bracket(algebra: LieAlgebra, x: Vector, y: Vector) -> Vector:
    return algebra.bracket(x, y)


def act(action: LieAction, p: Vector, m: Vector) -> Vector:
    return action.act(p, m)


def validate_lie_algebra(algebra: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity on all basis tuples.

    Antisymmetry includes the alternating requirement c[i][i][k] = 0, which
    is not implied by c[i][j][k] = -c[j][i][k] in characteristic 2.
    """
    report = ValidationReport(algebra.name, ["antisymmetry"])
    c, n, field = _nest(algebra._numbers, algebra._shape), algebra.dim, algebra.field
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                want = 0 if i == j else field._number(-c[j][i][k])
                if c[i][j][k] != want:
                    report.fail("antisymmetry", (i + 1, j + 1, k + 1),
                                field._lower(c[i][j][k]), field._lower(want))
    zero_vec = algebra.zero_vector()
    basis = algebra.basis_vectors()
    br = algebra.bracket
    report.check("jacobi", (n, n, n), lambda i, j, l: (
        br(basis[i], br(basis[j], basis[l]))
        + br(basis[j], br(basis[l], basis[i]))
        + br(basis[l], br(basis[i], basis[j])), zero_vec))
    return report


def validate_action(action: LieAction) -> ValidationReport:
    """Check the bracket-actor and Leibniz axioms on all basis tuples."""
    p_alg, m_alg = action.actor, action.acted
    report = ValidationReport(f"action of {p_alg.name} on {m_alg.name}")
    ps = p_alg.basis_vectors()
    ms = m_alg.basis_vectors()
    act, br = action.act, m_alg.bracket
    pqs = [[p_alg.bracket(p, q) for q in ps] for p in ps]
    report.check("action_bracket", (len(ps), len(ps), len(ms)), lambda i, j, k: (
        act(pqs[i][j], ms[k]),
        act(ps[i], act(ps[j], ms[k])) - act(ps[j], act(ps[i], ms[k]))))
    report.check("action_leibniz", (len(ps), len(ms), len(ms)), lambda i, j, k: (
        act(ps[i], br(ms[j], ms[k])),
        br(act(ps[i], ms[j]), ms[k]) + br(ms[j], act(ps[i], ms[k]))))
    return report


def _lie_morphism_sides(f: LinearMap, dom: LieAlgebra, cod: LieAlgebra):
    """sides(i, j) = (f[e_i, e_j], [f e_i, f e_j]), for ValidationReport.check."""
    images = f.columns()
    return lambda i, j: (f.apply(dom.basis_bracket(i, j)),
                         cod.bracket(images[i], images[j]))


def validate_crossed_module(xmod: CrossedModule) -> ValidationReport:
    """Check the three crossed-module axioms on all basis pairs.

    Assumes the component algebras and the action are validated separately;
    this report covers boundary_morphism, cm1 and cm2 only.
    """
    report = ValidationReport(xmod.name)
    m_alg, p_alg = xmod.m_algebra, xmod.p_algebra
    boundary, act = xmod.boundary, xmod.action.act
    m, p = m_alg.dim, p_alg.dim
    report.check("boundary_morphism", (m, m),
                 _lie_morphism_sides(boundary, m_alg, p_alg))
    ps = p_alg.basis_vectors()
    ms = m_alg.basis_vectors()
    images = [boundary.apply(v) for v in ms]
    report.check("cm1", (p, m), lambda i, j: (
        boundary.apply(act(ps[i], ms[j])), p_alg.bracket(ps[i], images[j])))
    report.check("cm2", (m, m), lambda i, j: (
        act(images[i], ms[j]), m_alg.bracket(ms[i], ms[j])))
    return report


def _verified(xmod: CrossedModule) -> CrossedModule:
    """xmod once validate_crossed_module passes on it; InvariantError if not."""
    report = validate_crossed_module(xmod)
    if not report.ok:
        raise InvariantError(f"{xmod.name} fails a crossed-module axiom", report)
    return xmod


def _span_coordinates(algebra: LieAlgebra, left: Sequence[Vector],
                      right: Sequence[Vector]) -> tuple:
    """[u_i, v_j] in lifted coordinates over right, for u_i in left, v_j in right.

    right must be independent.  NotAnIdealError names the first (i, j), in
    1-based lexicographic order, whose bracket leaves the span of right.
    """
    coords_of = span_solver(right, algebra.field, algebra.dim)
    out = []
    for i, u in enumerate(left):
        row = []
        for j, v in enumerate(right):
            w = algebra.bracket(u, v)
            coords = coords_of(w)
            if coords is None:
                raise NotAnIdealError((i + 1, j + 1), w)
            row.append(coords._numbers)
        out.append(tuple(row))
    return tuple(out)


def inclusion_crossed_module(p_algebra: LieAlgebra,
                             ideal_basis: Sequence[Vector],
                             name: str | None = None) -> CrossedModule:
    """Crossed module of an ideal: M = span(ideal_basis), boundary = inclusion.

    The span must be closed under bracketing with every basis vector of the
    ambient algebra; the first violation aborts with the offending pair.
    """
    field = p_algebra.field
    ideal_basis = list(ideal_basis)
    for v in ideal_basis:
        p_algebra._check_member(v)
    k = len(ideal_basis)
    # [e_i, v_j] in ideal coordinates is the action tensor; bracket closure
    # of the span follows from it by bilinearity, so the structure cannot fail.
    action = _span_coordinates(p_algebra, p_algebra.basis_vectors(), ideal_basis)
    structure = _span_coordinates(p_algebra, ideal_basis, ideal_basis)
    if name is None:
        name = f"{p_algebra.name}_ideal{k}"
    m_algebra = LieAlgebra(f"{name}_module", field, k, structure)
    boundary = (LinearMap.from_columns(field, ideal_basis, rows=p_algebra.dim)
                if k else LinearMap.zero(field, p_algebra.dim, 0))
    return _verified(CrossedModule(name, m_algebra, p_algebra, boundary,
                                   LieAction(p_algebra, m_algebra, action)))


@dataclass(frozen=True)
class ImageIdealResult:
    """Outcome of the boundary-image ideal check, truthy iff it holds."""

    is_ideal: bool
    spanning: tuple[Vector, ...]
    witness: tuple[tuple[int, int], Vector] | None = None

    def __bool__(self) -> bool:
        return self.is_ideal


def image_is_ideal(xmod: CrossedModule) -> ImageIdealResult:
    """Check that the boundary image is an ideal of the base algebra.

    Holds for every valid crossed module; the spanning set returned is an
    independent subset of the boundary's columns.
    """
    boundary = xmod.boundary
    # The pivot columns are those that raise the rank of the ones before.
    _, pivots = _row_reduce(boundary._numbers, xmod.field)
    spanning = tuple(boundary.column(j) for j in pivots)
    try:
        _span_coordinates(xmod.p_algebra, xmod.p_algebra.basis_vectors(), spanning)
    except NotAnIdealError as exc:
        return ImageIdealResult(False, spanning, (exc.pair, exc.value))
    return ImageIdealResult(True, spanning)


def abelian_zero_crossed_module(p_algebra: LieAlgebra,
                                module_action: LieAction,
                                name: str | None = None) -> CrossedModule:
    """Crossed module with zero boundary over an abelian module algebra.

    Both crossed-module axioms collapse: cm1 becomes 0 = [p, 0] and cm2
    becomes 0 = [m, m'], which is why the module must be abelian.
    """
    if module_action.actor != p_algebra:
        raise ShapeMismatchError("action is not an action of the given algebra")
    m_algebra = module_action.acted
    if not m_algebra.is_abelian():
        raise NotAbelianError(
            f"module algebra {m_algebra.name} has a nonzero bracket")
    if name is None:
        name = f"{p_algebra.name}_on_{m_algebra.name}"
    boundary = LinearMap.zero(p_algebra.field, p_algebra.dim, m_algebra.dim)
    return _verified(CrossedModule(name, m_algebra, p_algebra, boundary,
                                   module_action))
