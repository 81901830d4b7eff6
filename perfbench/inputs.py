"""Seeded inputs for the benchmark workloads.

Everything the workloads feed to liecross is built here, from a seed, so the
benchmark's inputs stay fixed even when the library or its test helpers
change:

- the 16-module GF(5) battery of the acceptance gate (inclusion modules of
  every ideal of affine2 and of the Heisenberg algebra h3, three
  zero-boundary modules over abelian coefficients, and the trivial module);
- isomorphic copies of a crossed module under a seeded random change of
  basis, which conjugates the brackets, the action and the boundary;
- the workspace document the CLI workload reads.
"""

from __future__ import annotations

import random
from itertools import product

from liecross import (
    CrossedModule,
    FieldSpec,
    LieAction,
    LieAlgebra,
    LinearMap,
    Vector,
    Workspace,
    abelian_zero_crossed_module,
    inclusion_crossed_module,
    serialize_workspace,
)

# The seed whose change of basis is the identity.
IDENTITY_SEED = 0


def affine2(field: FieldSpec) -> LieAlgebra:
    """Basis (e1, e2) with [e1, e2] = e2."""
    return LieAlgebra.from_sparse_brackets("affine2", field, 2, [(1, 2, {2: 1})])


def heisenberg3(field: FieldSpec) -> LieAlgebra:
    """Basis (x, y, z) with [x, y] = z and z central."""
    return LieAlgebra.from_sparse_brackets("h3", field, 3, [(1, 2, {3: 1})])


def x_aff(field: FieldSpec) -> CrossedModule:
    """Inclusion of the ideal span(e2) into affine2."""
    ambient = affine2(field)
    return inclusion_crossed_module(ambient, [ambient.basis(1)], name="X_aff")


def h3_plane(field: FieldSpec) -> CrossedModule:
    """Inclusion of the ideal span(y, z) into h3."""
    ambient = heisenberg3(field)
    return inclusion_crossed_module(ambient, [ambient.basis(1), ambient.basis(2)],
                                    name="h3_plane")


def _echelon(rows: list[tuple[int, ...]], p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis of the span of integer rows mod p."""
    work = [list(r) for r in rows]
    width = len(work[0]) if work else 0
    rank = 0
    for c in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][c] % p), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c] % p:
                f = work[r][c]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return tuple(tuple(row) for row in work[:rank])


def _subspaces(p: int, dim: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every subspace of GF(p)^dim as an echelon basis, by (dim, basis)."""
    vectors = [v for v in product(range(p), repeat=dim) if any(v)]
    seen = {()}
    frontier = [()]
    while frontier:
        grown = {_echelon(list(basis) + [v], p) for basis in frontier for v in vectors}
        frontier = [b for b in grown if b not in seen]
        seen.update(frontier)
    return sorted(seen, key=lambda b: (len(b), b))


def _ideals(algebra: LieAlgebra) -> list[list[Vector]]:
    """All ideals of an algebra over a prime field, as spanning vectors."""
    field = algebra.field
    out = []
    for basis in _subspaces(field.p, algebra.dim):
        members = [Vector.make(field, row) for row in basis]
        if members:
            span = LinearMap.from_columns(field, members, rows=algebra.dim)
            if any(span.solve(algebra.bracket(algebra.basis(i), v)) is None
                   for i in range(algebra.dim) for v in members):
                continue
        out.append(members)
    return out


def battery(p: int = 5) -> list[CrossedModule]:
    """The acceptance gate's battery over GF(p), in the gate's order."""
    field = FieldSpec.prime(p)
    modules = []
    for ambient in (affine2(field), heisenberg3(field)):
        for k, ideal in enumerate(_ideals(ambient)):
            modules.append(inclusion_crossed_module(
                ambient, ideal, name=f"{ambient.name}_ideal_{k}"))
    aff = affine2(field)
    line = LieAlgebra.abelian("line", field, 1)
    modules.append(abelian_zero_crossed_module(
        aff, LieAction.from_sparse(aff, line, [(1, 1, {1: 1})]), name="aff_on_line"))
    modules.append(abelian_zero_crossed_module(
        aff, LieAction.zero(aff, line), name="aff_on_line_zero"))
    plane = LieAlgebra.abelian("plane", field, 2)
    modules.append(abelian_zero_crossed_module(
        aff, LieAction.from_sparse(aff, plane, [(1, 1, {1: 1}), (1, 2, {2: 2})]),
        name="aff_on_plane"))
    m = LieAlgebra.abelian("triv_m", field, 1)
    p_alg = LieAlgebra.abelian("triv_p", field, 1)
    modules.append(CrossedModule("X_triv", m, p_alg, LinearMap.identity(field, 1),
                                 LieAction.zero(p_alg, m)))
    return modules


def random_basis(field: FieldSpec, dim: int, rng: random.Random) -> LinearMap:
    """A uniformly random invertible matrix over GF(p); columns are the new basis."""
    while True:
        change = LinearMap.from_rows(
            field, [[rng.randrange(field.p) for _ in range(dim)] for _ in range(dim)])
        if change.rank() == dim:
            return change


def _conjugate_algebra(algebra: LieAlgebra, change: LinearMap) -> LieAlgebra:
    """The same algebra written in the basis given by the columns of change."""
    cols = change.columns()
    tensor = tuple(
        tuple(change.solve(algebra.bracket(u, v)).entries for v in cols)
        for u in cols)
    return LieAlgebra(algebra.name, algebra.field, algebra.dim, tensor)


def change_basis(xmod: CrossedModule, seed: int) -> CrossedModule:
    """An isomorphic copy of xmod under a seeded random change of basis.

    New bases of M and P are drawn as random invertible matrices A and B.
    Brackets and the action are conjugated (a new structure constant is the
    old product of new basis vectors, read back in the new basis) and the
    boundary becomes B^-1 . boundary . A.  IDENTITY_SEED keeps the basis.
    """
    field = xmod.field
    dim_m, dim_p = xmod.m_algebra.dim, xmod.p_algebra.dim
    if seed == IDENTITY_SEED:
        a = LinearMap.identity(field, dim_m)
        b = LinearMap.identity(field, dim_p)
    else:
        rng = random.Random(f"change_basis:{seed}")
        a = random_basis(field, dim_m, rng)
        b = random_basis(field, dim_p, rng)
    m_alg = _conjugate_algebra(xmod.m_algebra, a)
    p_alg = _conjugate_algebra(xmod.p_algebra, b)
    a_cols, b_cols = a.columns(), b.columns()
    action = LieAction(p_alg, m_alg, tuple(
        tuple(a.solve(xmod.action.act(u, v)).entries for v in a_cols)
        for u in b_cols))
    boundary = LinearMap.from_columns(
        field, [b.solve(xmod.boundary.apply(v)) for v in a_cols], rows=dim_p)
    return CrossedModule(xmod.name, m_alg, p_alg, boundary, action)


def workspace_document(xmod: CrossedModule, name: str) -> str:
    """A workspace document declaring xmod (and its algebras) under name."""
    ws = Workspace(xmod.field)
    ws.algebras[f"{name}_m"] = xmod.m_algebra
    ws.algebras[f"{name}_p"] = xmod.p_algebra
    ws.crossed_modules[name] = xmod
    return serialize_workspace(ws)


def stride_sample(items, cap: int, offset: float) -> list:
    """At most cap items, one from each of cap equal strides of items.

    offset in [0, 1) places the pick inside every stride, so each seed
    samples a different but equally spread subset.
    """
    if len(items) <= cap:
        return list(items)
    step = len(items) / cap
    return [items[int((k + offset) * step)] for k in range(cap)]
