"""Morphisms between crossed modules and their category structure.

A morphism is a pair of linear maps f1: M -> M' and f0: P -> P' that are
both Lie algebra morphisms, intertwine the actions, and commute with the
boundaries.  Equality is structural on endpoints and matrices, so enumerated
morphisms deduplicate and hash consistently.

validate_crossed_morphism first evaluates its compiled law (see _kernels)
at the maps' lifted entries and returns the passing report straight from
it.  Only an input that fails runs the checks on basis vectors, which
build the witnesses.  The law is compiled on first use and kept on the source
module, by target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._kernels import Law, derivation_law, equivariance_law, square_law
from .algebras import (
    CrossedModule,
    LieAlgebra,
    _lie_morphism_sides,
)
from .errors import EndpointMismatchError, FieldMismatchError
from .fields import same_field
from .linalg import LinearMap, _entries
from .validation import ValidationReport


@dataclass(frozen=True)
class CrossedMorphism:
    """Pair (f1: M -> M', f0: P -> P') between two crossed modules."""

    source: CrossedModule
    target: CrossedModule
    f1: LinearMap
    f0: LinearMap

    def __post_init__(self):
        field = self.source.field
        if not same_field(self.target.field, field):
            raise FieldMismatchError("source and target over different fields")
        if not (same_field(self.f1.field, field) and same_field(self.f0.field, field)):
            raise FieldMismatchError("component map over a different field")
        self.f1._require_shape(self.target.m_algebra.dim,
                               self.source.m_algebra.dim, "f1")
        self.f0._require_shape(self.target.p_algebra.dim,
                               self.source.p_algebra.dim, "f0")

    @cached_property
    def _f0_action(self) -> tuple:
        """f0's action on M' as the kernels' flat table: entry
        (i*rows + b)*rows + r is the r-th coordinate of f0(e_i) . e_b, in
        lifted numbers (not reduced mod p)."""
        rows, f0 = self.target.m_algebra.dim, self.f0._numbers
        rho = [self.target.action._matrix([row[i] for row in f0])
               for i in range(self.source.p_algebra.dim)]
        return tuple(m[r][b] for m in rho for b in range(rows) for r in range(rows))

    @cached_property
    def _derivation_law(self) -> Law:
        """The derivation law along this morphism, on every ordered basis
        pair of P, over the entries of d: P -> M'."""
        p_alg, m_prime = self.source.p_algebra, self.target.m_algebra
        return Law(self.source.field.p, m_prime.dim * p_alg.dim, derivation_law(
            p_alg._numbers, self._f0_action, m_prime._numbers,
            m_prime.dim, p_alg.dim))

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def __str__(self):
        return (f"({self.source.name} -> {self.target.name}: "
                f"f1={self.f1}, f0={self.f0})")


def is_lie_morphism(f: LinearMap, dom: LieAlgebra, cod: LieAlgebra) -> ValidationReport:
    """Check f[e_i, e_j] = [f e_i, f e_j] on all basis pairs."""
    f._require_shape(cod.dim, dom.dim, "map")
    if not (same_field(f.field, dom.field) and same_field(dom.field, cod.field)):
        raise FieldMismatchError("map and algebras over different fields")
    report = ValidationReport("map")
    report.check("lie_morphism", (dom.dim, dom.dim), _lie_morphism_sides(f, dom, cod))
    return report


def _lie_morphism_law(dom: LieAlgebra, cod: LieAlgebra, at: int):
    """The Lie-morphism law dom -> cod on every ordered basis pair, over a
    cod.dim x dom.dim map whose entries start at position at."""
    return derivation_law(dom._numbers, None, cod._numbers, cod.dim, dom.dim, at)


def _morphism_law(src: CrossedModule, dst: CrossedModule) -> Law:
    """Every law of validate_crossed_morphism over f1's entries, then f0's."""
    dm, dm2 = src.m_algebra.dim, dst.m_algebra.dim
    dp, dp2 = src.p_algebra.dim, dst.p_algebra.dim
    return Law(src.field.p, dm2 * dm + dp2 * dp, [
        *_lie_morphism_law(src.m_algebra, dst.m_algebra, 0),
        *_lie_morphism_law(src.p_algebra, dst.p_algebra, dm2 * dm),
        *equivariance_law(src.action._numbers, dst.action._numbers,
                          dm, dm2, dp, dp2),
        *square_law(_entries(src.boundary), _entries(dst.boundary),
                    dm, dm2, dp, dp2)])


def validate_crossed_morphism(phi: CrossedMorphism) -> ValidationReport:
    """Check both component morphisms, equivariance and the boundary square."""
    src, dst = phi.source, phi.target
    # Keyed by the target's identity: hashing its tensors would cost more
    # than the law saves.  The entry holds its target, so the id cannot be
    # reused while the entry lives.
    hit = src._laws.get(id(dst))
    if hit is None or hit[0] is not dst:
        hit = src._laws[id(dst)] = (dst, _morphism_law(src, dst))
    if hit[1].holds(_entries(phi.f1, phi.f0)):
        return ValidationReport(
            "morphism", ["f1_morphism", "f0_morphism", "equivariance", "square"])
    report = ValidationReport("morphism")
    m, p = src.m_algebra.dim, src.p_algebra.dim
    report.check("f1_morphism", (m, m),
                 _lie_morphism_sides(phi.f1, src.m_algebra, dst.m_algebra))
    report.check("f0_morphism", (p, p),
                 _lie_morphism_sides(phi.f0, src.p_algebra, dst.p_algebra))
    # Equivariance: f1(p . m) = f0(p) . f1(m) on basis pairs of P x M.
    f0_images = phi.f0.columns()
    f1_images = phi.f1.columns()
    report.check("equivariance", (p, m), lambda i, j: (
        phi.f1.apply(src.action.basis_act(i, j)),
        dst.action.act(f0_images[i], f1_images[j])))
    # Square: boundary' . f1 = f0 . boundary, compared column by column.
    left = dst.boundary.compose(phi.f1)
    right = phi.f0.compose(src.boundary)
    report.check("square", (m,), lambda j: (left.column(j), right.column(j)))
    return report


def compose_morphisms(phi: CrossedMorphism, chi: CrossedMorphism) -> CrossedMorphism:
    """Diagrammatic composite of phi: X -> X' and chi: X' -> X''."""
    if phi.target != chi.source:
        raise EndpointMismatchError(
            f"cannot compose: target {phi.target.name} is not source {chi.source.name}")
    return CrossedMorphism(phi.source, chi.target,
                           chi.f1.compose(phi.f1), chi.f0.compose(phi.f0))


def identity_morphism(xmod: CrossedModule) -> CrossedMorphism:
    field = xmod.field
    return CrossedMorphism(xmod, xmod,
                           LinearMap.identity(field, xmod.m_algebra.dim),
                           LinearMap.identity(field, xmod.p_algebra.dim))
