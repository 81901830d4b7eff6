"""Derivations along a morphism and the homotopies they generate.

Given a morphism f = (f1, f0) between crossed modules, a linear map
d: P -> M' satisfying

    d[p, p'] = f0(p) . d(p') - f0(p') . d(p) + [d(p), d(p')]

shifts f to a new morphism g with g0 = f0 + boundary' . d and
g1 = f1 + d . boundary.  Such a d is an arrow f => g; the zero map, -d and
d + d' provide identities, inverses and composition.

d is a LinearMap, so every arrow operation is map arithmetic on the
field's lifted numbers (see linalg).  is_f0_derivation evaluates the
derivation law's Law at f (CrossedMorphism._derivation_law), the filed
form the derivation scan walks (see _kernels), at d's stored entries first
and returns the passing report straight from it; only a d that fails runs
the check on basis vectors, which builds the Vector witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EndpointMismatchError,
    FieldMismatchError,
    InvalidDerivationError,
    InvariantError,
)
from .fields import same_field
from .linalg import LinearMap, _entries
from .morphisms import CrossedMorphism, validate_crossed_morphism
from .validation import ValidationReport


def _check_shape(d: LinearMap, f: CrossedMorphism):
    if not same_field(d.field, f.source.field):
        raise FieldMismatchError("derivation map over a different field")
    d._require_shape(f.target.m_algebra.dim, f.source.p_algebra.dim,
                     "derivation map")


@dataclass(frozen=True)
class Derivation:
    """An arrow of the homotopy groupoid: a verified d anchored at f.

    The constructor checks shapes only; use Derivation.checked to verify the
    derivation law on untrusted input.  Producers in this package only wrap
    maps that already passed the law.
    """

    source_morphism: CrossedMorphism
    d: LinearMap

    def __post_init__(self):
        _check_shape(self.d, self.source_morphism)

    @classmethod
    def checked(cls, f: CrossedMorphism, d: LinearMap) -> "Derivation":
        report = is_f0_derivation(d, f)
        if not report.ok:
            raise InvalidDerivationError(report)
        return cls(f, d)

    def target_morphism(self) -> CrossedMorphism:
        return shift_morphism(self.source_morphism, self.d)

    def __str__(self):
        return f"derivation {self.d} at {self.source_morphism}"


def is_f0_derivation(d: LinearMap, f: CrossedMorphism) -> ValidationReport:
    """Check the derivation law on all ordered basis pairs of P."""
    _check_shape(d, f)
    if f._derivation_law.holds(_entries(d)):
        return ValidationReport("derivation", ["derivation_law"])
    p_alg = f.source.p_algebra
    m_prime = f.target.m_algebra
    act = f.target.action.act
    f0_images = f.f0.columns()
    d_images = d.columns()
    report = ValidationReport("derivation")
    report.check("derivation_law", (p_alg.dim, p_alg.dim), lambda i, j: (
        d.apply(p_alg.basis_bracket(i, j)),
        act(f0_images[i], d_images[j]) - act(f0_images[j], d_images[i])
        + m_prime.bracket(d_images[i], d_images[j])))
    return report


def shift_morphism(f: CrossedMorphism, d: LinearMap) -> CrossedMorphism:
    """The raw shift (f0 + boundary'.d, f1 + d.boundary), no verification."""
    _check_shape(d, f)
    g0 = f.f0 + f.target.boundary.compose(d)
    g1 = f.f1 + d.compose(f.source.boundary)
    return CrossedMorphism(f.source, f.target, g1, g0)


def homotopy_target(f: CrossedMorphism, d: LinearMap) -> CrossedMorphism:
    """The morphism g that d carries f to, after checking d and g.

    InvalidDerivationError carries the report if d fails is_f0_derivation,
    InvariantError g's report if g is no crossed-module morphism (f was not
    one, or the modules break an axiom).  shift_morphism skips both checks.
    """
    report = is_f0_derivation(d, f)
    if not report.ok:
        raise InvalidDerivationError(report)
    g = shift_morphism(f, d)
    report = validate_crossed_morphism(g)
    if not report.ok:
        raise InvariantError("shifted map is not a crossed-module morphism",
                             report)
    return g


def connects(d: LinearMap, f: CrossedMorphism, g: CrossedMorphism) -> bool:
    """True iff d is an f0-derivation carrying f exactly to g."""
    if f.source != g.source or f.target != g.target:
        raise EndpointMismatchError("morphisms do not share endpoints")
    shifted = shift_morphism(f, d)
    if shifted.f0 != g.f0 or shifted.f1 != g.f1:
        return False
    return is_f0_derivation(d, f).ok


def identity_homotopy(f: CrossedMorphism) -> Derivation:
    """The zero derivation at f; connects f to f."""
    zero = LinearMap.zero(f.source.field,
                          f.target.m_algebra.dim, f.source.p_algebra.dim)
    return Derivation(f, zero)


def inverse_homotopy(h: Derivation) -> Derivation:
    """The arrow -d anchored at the target of h; undoes h."""
    return Derivation(h.target_morphism(), -h.d)


def concat_homotopies(h1: Derivation, h2: Derivation) -> Derivation:
    """The composite arrow d1 + d2, defined when h2 starts where h1 ends."""
    if h2.source_morphism != h1.target_morphism():
        raise EndpointMismatchError(
            "second homotopy is not anchored at the target of the first")
    return Derivation(h1.source_morphism, h1.d + h2.d)
