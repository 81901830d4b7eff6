"""Shared constructions for the test suite.

Small named algebras, the two standard crossed modules used throughout the
tests, and a generator battery over GF(5): inclusion modules of every ideal
of affine2 and of the 3-dimensional Heisenberg algebra, a few zero-boundary
modules over abelian coefficients, and the trivial module.  lines_module
gives abelian modules of any dimensions, 0 included; partial_kernel_modules
gives modules whose boundary has a kernel strictly between 0 and M;
change_basis gives isomorphic copies in seeded random bases.  raw_values,
reduced and numbers serve the parity tests, whose reference never touches
Scalar: Fractions over QQ (non-unit denominators included), plain ints
reduced mod p over GF(p).
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from liecross import (
    CrossedModule,
    FieldSpec,
    LieAction,
    LieAlgebra,
    LinearMap,
    Vector,
    abelian_zero_crossed_module,
    inclusion_crossed_module,
)


def affine2(field: FieldSpec) -> LieAlgebra:
    """The 2-dimensional algebra with [e1, e2] = e2."""
    return LieAlgebra.from_sparse_brackets("affine2", field, 2,
                                           [(1, 2, {2: 1})])


def sl2(field: FieldSpec) -> LieAlgebra:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra.from_sparse_brackets(
        "sl2", field, 3,
        [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})])


def heisenberg3(field: FieldSpec) -> LieAlgebra:
    """Basis (x, y, z): [x, y] = z, z central."""
    return LieAlgebra.from_sparse_brackets("h3", field, 3, [(1, 2, {3: 1})])


def x_aff(field: FieldSpec) -> CrossedModule:
    """Inclusion of the ideal span(e2) into affine2."""
    ambient = affine2(field)
    return inclusion_crossed_module(ambient, [ambient.basis(1)], name="X_aff")


def x_triv(field: FieldSpec) -> CrossedModule:
    """M = P = 1-dimensional abelian, boundary the identity, zero action."""
    m = LieAlgebra.abelian("triv_m", field, 1)
    p = LieAlgebra.abelian("triv_p", field, 1)
    return CrossedModule("X_triv", m, p,
                         LinearMap.identity(field, 1), LieAction.zero(p, m))


def lines_module(field: FieldSpec, m: int, p: int) -> CrossedModule:
    """Abelian M and P of dims m and p, zero action, boundary the identity
    where both dims are 1 and zero otherwise."""
    m_alg = LieAlgebra.abelian("m", field, m)
    p_alg = LieAlgebra.abelian("p", field, p)
    boundary = (LinearMap.identity(field, 1) if (m, p) == (1, 1)
                else LinearMap.zero(field, p, m))
    return CrossedModule(f"lines_{m}_{p}", m_alg, p_alg, boundary,
                         LieAction.zero(p_alg, m_alg))


def h3_over_abelianization(field: FieldSpec) -> CrossedModule:
    """h3 -> F^2, the quotient by z, with e1 and e2 of the plane acting on h3
    as ad x and ad y, the brackets of their lifts: ker boundary = span(z)."""
    h3 = heisenberg3(field)
    plane = LieAlgebra.abelian("h3_ab", field, 2)
    action = LieAction.from_sparse(plane, h3, [(1, 2, {3: 1}), (2, 1, {3: -1})])
    return CrossedModule("h3_over_ab", h3, plane,
                         LinearMap.from_rows(field, [[1, 0, 0], [0, 1, 0]]), action)


def abelian_into_centre(p_algebra: LieAlgebra, boundary_rows,
                        name: str) -> CrossedModule:
    """Abelian M with the zero action and the given boundary, whose columns
    must lie in the centre of p_algebra; dim M is the column count."""
    field = p_algebra.field
    boundary = LinearMap.from_rows(field, boundary_rows)
    m_alg = LieAlgebra.abelian(f"{name}_m", field, boundary.cols)
    return CrossedModule(name, m_alg, p_algebra, boundary,
                         LieAction.zero(p_algebra, m_alg))


def partial_kernel_modules(field: FieldSpec) -> list[CrossedModule]:
    """Crossed modules whose boundary has a kernel strictly between 0 and M."""
    line = LieAlgebra.abelian("line", field, 1)
    plane = LieAlgebra.abelian("plane", field, 2)
    return [
        h3_over_abelianization(field),
        abelian_into_centre(heisenberg3(field), [[0, 0], [0, 0], [1, 2]], "z_rank1"),
        abelian_into_centre(line, [[1, 1]], "line_rank1"),
        abelian_into_centre(plane, [[1, 0, 1], [0, 1, 1]], "plane_rank2"),
        abelian_into_centre(plane, [[1, 2, 0], [2, 4, 0]], "plane_rank1"),
    ]


def _rref_basis(rows: list[tuple[int, ...]], p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced echelon basis of the span of integer rows mod p."""
    work = [list(r) for r in rows]
    cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(cols):
        for rr in range(r, len(work)):
            if work[rr][c] % p:
                work[r], work[rr] = work[rr], work[r]
                break
        else:
            continue
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(v * inv) % p for v in work[r]]
        for rr in range(len(work)):
            if rr != r and work[rr][c] % p:
                f = work[rr][c]
                work[rr] = [(a - f * b) % p for a, b in zip(work[rr], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r])


def all_subspaces(p: int, dim: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every subspace of GF(p)^dim as a canonical echelon basis (0-dim included)."""
    seen = {(): None}
    vectors = [v for v in product(range(p), repeat=dim) if any(v)]
    frontier = [()]
    # Grow spans one generator at a time; canonical form dedupes.
    while frontier:
        nxt = []
        for basis in frontier:
            for v in vectors:
                grown = _rref_basis(list(basis) + [v], p)
                if len(grown) == len(basis) or grown in seen:
                    continue
                seen[grown] = None
                nxt.append(grown)
        frontier = nxt
    return sorted(seen, key=lambda b: (len(b), b))


def ideals(algebra: LieAlgebra) -> list[list[Vector]]:
    """All ideals of a Lie algebra over a prime field, as basis-vector lists.

    A subspace I is an ideal when [e_i, v] stays inside I for every ambient
    basis vector e_i and every spanning vector v of I.
    """
    field = algebra.field
    p = field.p
    out = []
    for basis in all_subspaces(p, algebra.dim):
        members = [Vector.make(field, row) for row in basis]
        if not members:
            out.append(members)
            continue
        span = LinearMap.from_columns(field, members, rows=algebra.dim)
        closed = all(
            span.solve(algebra.bracket(algebra.basis(i), v)) is not None
            for i in range(algebra.dim) for v in members)
        if closed:
            out.append(members)
    return out


def battery_modules(p: int = 5) -> list[CrossedModule]:
    """The generator battery over GF(p) used by the heavier suites."""
    field = FieldSpec.prime(p)
    modules = []
    for ambient in (affine2(field), heisenberg3(field)):
        for k, ideal in enumerate(ideals(ambient)):
            modules.append(inclusion_crossed_module(
                ambient, ideal, name=f"{ambient.name}_ideal_{k}"))
    # Zero-boundary modules over abelian coefficients.
    aff = affine2(field)
    line = LieAlgebra.abelian("line", field, 1)
    scaling = LieAction.from_sparse(aff, line, [(1, 1, {1: 1})])
    modules.append(abelian_zero_crossed_module(aff, scaling, name="aff_on_line"))
    modules.append(abelian_zero_crossed_module(
        aff, LieAction.zero(aff, line), name="aff_on_line_zero"))
    plane = LieAlgebra.abelian("plane", field, 2)
    weights = LieAction.from_sparse(aff, plane, [(1, 1, {1: 1}), (1, 2, {2: 2})])
    modules.append(abelian_zero_crossed_module(aff, weights, name="aff_on_plane"))
    modules.append(x_triv(field))
    return modules


def _random_invertible(field: FieldSpec, dim: int, rng: random.Random) -> LinearMap:
    while True:
        change = LinearMap.from_rows(
            field, [[rng.randrange(field.p) for _ in range(dim)] for _ in range(dim)])
        if change.rank() == dim:
            return change


def change_basis(xmod: CrossedModule, seed: int) -> CrossedModule:
    """An isomorphic copy of xmod in seeded random bases A of M and B of P.

    A new structure constant is the old product of new basis vectors read
    back in the new basis; the boundary becomes B^-1 . boundary . A.
    """
    field = xmod.field
    rng = random.Random(seed)
    a = _random_invertible(field, xmod.m_algebra.dim, rng)
    b = _random_invertible(field, xmod.p_algebra.dim, rng)
    a_cols, b_cols = a.columns(), b.columns()

    def conjugate(algebra, change, cols):
        return LieAlgebra(algebra.name, field, algebra.dim, tuple(
            tuple(change.solve(algebra.bracket(u, v)).entries for v in cols)
            for u in cols))

    m_alg = conjugate(xmod.m_algebra, a, a_cols)
    p_alg = conjugate(xmod.p_algebra, b, b_cols)
    action = LieAction(p_alg, m_alg, tuple(
        tuple(a.solve(xmod.action.act(u, v)).entries for v in a_cols)
        for u in b_cols))
    boundary = LinearMap.from_columns(
        field, [b.solve(xmod.boundary.apply(v)) for v in a_cols],
        rows=xmod.p_algebra.dim)
    return CrossedModule(xmod.name, m_alg, p_alg, boundary, action)


PARITY_FIELDS = [FieldSpec.rational(), FieldSpec.prime(2), FieldSpec.prime(5)]


def raw_values(field: FieldSpec, n: int):
    """Strategy for n raw entries: Fractions over QQ, any ints over GF(p)."""
    if field.is_prime_field:
        value = st.integers(min_value=-2 * field.p, max_value=2 * field.p)
    else:
        value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.lists(value, min_size=n, max_size=n)


def reduced(field: FieldSpec, values) -> list:
    """Reference results as the field's numbers: mod p over GF(p)."""
    return [v % field.p for v in values] if field.is_prime_field else list(values)


def numbers(field: FieldSpec, scalars) -> list:
    """Scalars as the numbers reduced() gives."""
    if field.is_prime_field:
        return [s.num for s in scalars]
    return [s.as_fraction() for s in scalars]


def spellings(field, s):
    """Inputs naming the scalar s of field: s itself, its literal, a Fraction
    and an int (over GF(p) an unreduced one; over QQ only if s is integral)."""
    if field.is_prime_field:
        # p + 1 is 1 mod p, so s.num / (p + 1) is s.num in GF(p).
        return [s, str(s), Fraction(s.num, field.p + 1), s.num - 2 * field.p]
    return [s, str(s), s.as_fraction()] + ([s.num] if s.den == 1 else [])
