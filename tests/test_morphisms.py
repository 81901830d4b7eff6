"""Crossed-module morphisms: validation, identity, and composition."""

import pytest

import battery
from liecross import (
    CrossedModule,
    CrossedMorphism,
    FieldSpec,
    LinearMap,
    compose_morphisms,
    identity_morphism,
    inclusion_crossed_module,
    is_lie_morphism,
    validate_crossed_morphism,
)
from liecross.errors import EndpointMismatchError, ShapeMismatchError
from liecross.linalg import _entries
from liecross.morphisms import _morphism_law

QQ = FieldSpec.rational()
GF3 = FieldSpec.prime(3)


def aff_endo(field, a, b, d):
    """X_aff endomorphism candidate: f0 = [[a, 0], [b, d]], f1 = [[d]]."""
    xaff = battery.x_aff(field)
    return CrossedMorphism(xaff, xaff,
                           LinearMap.from_rows(field, [[d]]),
                           LinearMap.from_rows(field, [[a, 0], [b, d]]))


class TestIsLieMorphism:
    def test_identity(self):
        aff = battery.affine2(QQ)
        assert is_lie_morphism(LinearMap.identity(QQ, 2), aff, aff).ok

    def test_scaling_e2(self):
        aff = battery.affine2(QQ)
        f = LinearMap.from_rows(QQ, [[1, 0], [0, 2]])
        assert is_lie_morphism(f, aff, aff).ok

    def test_swap_fails_at_first_pair(self):
        aff = battery.affine2(QQ)
        swap = LinearMap.from_rows(QQ, [[0, 1], [1, 0]])
        report = is_lie_morphism(swap, aff, aff)
        first = report.failures[0]
        assert (first.check, first.indices) == ("lie_morphism", (1, 2))

    def test_shape_mismatch(self):
        aff = battery.affine2(QQ)
        with pytest.raises(ShapeMismatchError):
            is_lie_morphism(LinearMap.identity(QQ, 3), aff, aff)


class TestValidateCrossedMorphism:
    def test_identity_on_x_aff(self):
        assert validate_crossed_morphism(
            identity_morphism(battery.x_aff(GF3))).ok

    def test_documented_valid_endo(self):
        # f0(e1) = e1 + e2, f0(e2) = e2, f1 = id
        assert validate_crossed_morphism(aff_endo(GF3, 1, 1, 1)).ok

    def test_square_witness(self):
        # f0 = id but f1 doubles: the square fails on the only column.
        phi = aff_endo(GF3, 1, 0, 1)
        bad = CrossedMorphism(phi.source, phi.target,
                              LinearMap.from_rows(GF3, [[2]]), phi.f0)
        report = validate_crossed_morphism(bad)
        first = report.failures[0]
        assert (first.check, first.indices) == ("square", (1,))
        assert str(first.lhs) == "(0, 2)"
        assert str(first.rhs) == "(0, 1)"

    def test_equivariance_witness(self):
        # d(1 - a) != 0 breaks equivariance: a = 0 with d = 1.
        report = validate_crossed_morphism(aff_endo(GF3, 0, 0, 1))
        assert report.failures_for("equivariance")

    def test_component_morphism_checks_reported(self):
        xaff = battery.x_aff(GF3)
        swap = LinearMap.from_rows(GF3, [[0, 1], [1, 0]])
        bad = CrossedMorphism(xaff, xaff,
                              LinearMap.from_rows(GF3, [[1]]), swap)
        report = validate_crossed_morphism(bad)
        assert report.failures_for("f0_morphism")

    def test_cross_module_morphism(self):
        # Collapse X_aff onto X_triv over GF(3): only the zero pair works
        # since equivariance kills the unit on M.
        xaff = battery.x_aff(GF3)
        xtriv = battery.x_triv(GF3)
        zero = CrossedMorphism(xaff, xtriv,
                               LinearMap.zero(GF3, 1, 1),
                               LinearMap.zero(GF3, 1, 2))
        assert validate_crossed_morphism(zero).ok

    def test_law_cache_answers_only_its_own_target(self):
        # An entry under id(dst) held by another module is not dst's law:
        # other has a zero boundary, so its law fails the identity's square.
        xaff = battery.x_aff(GF3)
        ident = identity_morphism(xaff)
        other = CrossedModule("other", xaff.m_algebra, xaff.p_algebra,
                              LinearMap.zero(GF3, 2, 1), xaff.action)
        stale = _morphism_law(xaff, other)
        assert not stale.holds(_entries(ident.f1, ident.f0))
        xaff._laws[id(xaff)] = (other, stale)
        assert validate_crossed_morphism(ident).ok
        assert xaff._laws[id(xaff)][0] is xaff

    def test_shape_checks(self):
        xaff = battery.x_aff(GF3)
        with pytest.raises(ShapeMismatchError):
            CrossedMorphism(xaff, xaff,
                            LinearMap.identity(GF3, 2),
                            LinearMap.identity(GF3, 2))


class TestCategoryStructure:
    def test_identity_components(self):
        xaff = battery.x_aff(GF3)
        ident = identity_morphism(xaff)
        assert ident.f1 == LinearMap.identity(GF3, 1)
        assert ident.f0 == LinearMap.identity(GF3, 2)
        assert ident.is_endomorphism()

    def test_identity_is_two_sided_unit(self):
        phi = aff_endo(GF3, 1, 1, 1)
        ident = identity_morphism(phi.source)
        assert compose_morphisms(ident, phi) == phi
        assert compose_morphisms(phi, ident) == phi

    def test_documented_composition(self):
        # (a=1, b=1, d=1) composed with itself gives (a=1, b=2, d=1).
        phi = aff_endo(GF3, 1, 1, 1)
        squared = compose_morphisms(phi, phi)
        assert squared == aff_endo(GF3, 1, 2, 1)

    def test_compose_is_diagrammatic(self):
        # compose(phi, chi) applies phi first.
        xaff = battery.x_aff(GF3)
        xtriv = battery.x_triv(GF3)
        phi = aff_endo(GF3, 2, 0, 0)
        chi = CrossedMorphism(xaff, xtriv,
                              LinearMap.zero(GF3, 1, 1),
                              LinearMap.zero(GF3, 1, 2))
        comp = compose_morphisms(phi, chi)
        assert comp.source == xaff and comp.target == xtriv
        assert comp.f0 == chi.f0.compose(phi.f0)

    def test_compose_associative(self):
        a = aff_endo(GF3, 1, 1, 1)
        b = aff_endo(GF3, 2, 0, 0)
        c = aff_endo(GF3, 1, 2, 1)
        assert compose_morphisms(compose_morphisms(a, b), c) \
            == compose_morphisms(a, compose_morphisms(b, c))

    def test_composition_preserves_validity(self):
        a = aff_endo(GF3, 1, 1, 1)
        b = aff_endo(GF3, 2, 0, 0)
        assert validate_crossed_morphism(a).ok
        assert validate_crossed_morphism(b).ok
        assert validate_crossed_morphism(compose_morphisms(a, b)).ok

    def test_endpoint_mismatch(self):
        phi = aff_endo(GF3, 1, 1, 1)
        xtriv = battery.x_triv(GF3)
        chi = identity_morphism(xtriv)
        with pytest.raises(EndpointMismatchError):
            compose_morphisms(phi, chi)

    def test_zero_dimensional_identity(self):
        aff = battery.affine2(GF3)
        empty = inclusion_crossed_module(aff, [])
        ident = identity_morphism(empty)
        assert ident.f1.rows == 0 and ident.f1.cols == 0
        assert validate_crossed_morphism(ident).ok

    def test_module_equality_is_structural(self):
        # Two independently built copies of X_aff are the same object for
        # endpoint checks even though they are distinct Python values.
        phi = CrossedMorphism(battery.x_aff(GF3), battery.x_aff(GF3),
                              LinearMap.from_rows(GF3, [[1]]),
                              LinearMap.identity(GF3, 2))
        assert validate_crossed_morphism(phi).ok
        assert phi.is_endomorphism()
