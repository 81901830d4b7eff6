"""Groupoid construction, axiom validation, and homotopy classes."""

import pytest

import battery
import oracle_bruteforce as oracle
from fractions import Fraction

from liecross import (
    Arrow,
    Derivation,
    FieldSpec,
    HomGroupoid,
    LieAction,
    LieAlgebra,
    LinearMap,
    abelian_zero_crossed_module,
    build_hom_groupoid,
    homotopy_classes,
    identity_morphism,
    inclusion_crossed_module,
    validate_groupoid,
)

QQ = FieldSpec.rational()

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)


def flat(linear_map):
    return tuple(e.num for row in linear_map.entries for e in row)


@pytest.fixture(scope="module")
def aff_groupoid():
    return build_hom_groupoid(battery.x_aff(GF3), battery.x_aff(GF3))


@pytest.fixture(scope="module")
def triv_groupoid():
    return build_hom_groupoid(battery.x_triv(GF2), battery.x_triv(GF2))


class TestConstruction:
    def test_x_aff_counts(self, aff_groupoid):
        assert len(aff_groupoid.objects) == 15
        assert len(aff_groupoid.arrows) == 99

    def test_x_triv_counts(self, triv_groupoid):
        assert len(triv_groupoid.objects) == 2
        assert len(triv_groupoid.arrows) == 4

    def test_arrows_match_oracle_exactly(self, aff_groupoid):
        reference = oracle.groupoid_counts(oracle.x_aff(3), oracle.x_aff(3))
        ours = [(a.src, a.dst, flat(a.derivation.d))
                for a in aff_groupoid.arrows]
        assert ours == reference["arrows"]

    def test_arrow_anchoring(self, aff_groupoid):
        for arrow in aff_groupoid.arrows:
            assert arrow.derivation.source_morphism \
                == aff_groupoid.objects[arrow.src]

    def test_arrows_from(self, aff_groupoid):
        listed = aff_groupoid.arrows_from(0)
        assert listed == [a for a in aff_groupoid.arrows if a.src == 0]

    def test_rebuild_is_identical(self, aff_groupoid):
        again = build_hom_groupoid(battery.x_aff(GF3), battery.x_aff(GF3))
        assert [(a.src, a.dst, flat(a.derivation.d)) for a in again.arrows] \
            == [(a.src, a.dst, flat(a.derivation.d))
                for a in aff_groupoid.arrows]

    def test_workers_do_not_change_output(self, aff_groupoid):
        parallel = build_hom_groupoid(battery.x_aff(GF3), battery.x_aff(GF3),
                                      workers=8)
        assert [(a.src, a.dst, flat(a.derivation.d)) for a in parallel.arrows] \
            == [(a.src, a.dst, flat(a.derivation.d))
                for a in aff_groupoid.arrows]


class TestValidation:
    def test_x_aff_groupoid_valid(self, aff_groupoid):
        report = validate_groupoid(aff_groupoid)
        assert report.ok, report.summary()
        assert set(report.checks) \
            == {"endpoints", "identity", "inverse", "associativity"}

    def test_x_triv_groupoid_valid(self, triv_groupoid):
        assert validate_groupoid(triv_groupoid).ok

    def test_corrupted_target_fails_endpoints(self, aff_groupoid):
        arrows = list(aff_groupoid.arrows)
        victim = next(t for t, a in enumerate(arrows) if a.src != a.dst)
        bad = arrows[victim]
        arrows[victim] = Arrow(bad.src, bad.src, bad.derivation)
        corrupted = HomGroupoid(aff_groupoid.source_module,
                                aff_groupoid.target_module,
                                aff_groupoid.objects, tuple(arrows))
        report = validate_groupoid(corrupted)
        assert not report.ok
        fails = report.failures_for("endpoints")
        assert fails and fails[0].indices == (victim + 1,)

    def test_missing_identity_detected(self, triv_groupoid):
        arrows = tuple(a for a in triv_groupoid.arrows
                       if not (a.src == 0 and flat(a.derivation.d) == (0,)))
        pruned = HomGroupoid(triv_groupoid.source_module,
                             triv_groupoid.target_module,
                             triv_groupoid.objects, arrows)
        report = validate_groupoid(pruned)
        assert report.failures_for("identity")

    def test_rational_arrows_keyed_by_value(self):
        # Over QQ, 1/2 and -1/3 share their numerators with -1/2 and 1/3;
        # neither inverse is an arrow, so both loops must fail.
        line = LieAlgebra.abelian("line", QQ, 1)
        xmod = abelian_zero_crossed_module(line, LieAction.zero(line, line))
        ident = identity_morphism(xmod)
        loops = tuple(Arrow(0, 0, Derivation(ident, LinearMap.from_rows(QQ, [[d]])))
                      for d in (0, Fraction(1, 2), Fraction(-1, 3)))
        report = validate_groupoid(HomGroupoid(xmod, xmod, (ident,), loops))
        assert [f.indices for f in report.failures_for("inverse")] == [(2,), (3,)]
        assert not report.failures_for("identity")
        assert not report.failures_for("endpoints")

    def test_missing_inverse_detected(self, triv_groupoid):
        # Dropping one non-identity arrow leaves its partner inverse-less.
        arrows = list(triv_groupoid.arrows)
        victim = next(t for t, a in enumerate(arrows) if a.src != a.dst)
        del arrows[victim]
        pruned = HomGroupoid(triv_groupoid.source_module,
                             triv_groupoid.target_module,
                             triv_groupoid.objects, tuple(arrows))
        report = validate_groupoid(pruned)
        assert report.failures_for("inverse")


class TestHomotopyClasses:
    def test_x_aff_partition(self, aff_groupoid):
        classes = homotopy_classes(aff_groupoid)
        assert len(classes) == 3
        assert sorted(len(c) for c in classes) == [3, 3, 9]
        flattened = sorted(i for c in classes for i in c)
        assert flattened == list(range(15))

    def test_matches_oracle_partition(self, aff_groupoid):
        reference = oracle.groupoid_counts(oracle.x_aff(3), oracle.x_aff(3))
        assert homotopy_classes(aff_groupoid) == reference["classes"]

    def test_x_triv_single_class(self, triv_groupoid):
        assert homotopy_classes(triv_groupoid) == [[0, 1]]

    def test_components_ordered_by_smallest_member(self, aff_groupoid):
        classes = homotopy_classes(aff_groupoid)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        assert all(c == sorted(c) for c in classes)

    def test_classes_closed_under_arrows(self, aff_groupoid):
        classes = homotopy_classes(aff_groupoid)
        of = {i: k for k, c in enumerate(classes) for i in c}
        for a in aff_groupoid.arrows:
            assert of[a.src] == of[a.dst]

    def test_identity_only_groupoid_gives_singletons(self):
        # The zero ideal has a 0-dimensional module algebra, so the only
        # derivation anywhere is the empty map: all arrows are loops.
        aff = battery.affine2(GF3)
        empty = inclusion_crossed_module(aff, [])
        g = build_hom_groupoid(empty, empty)
        assert all(a.src == a.dst for a in g.arrows)
        assert validate_groupoid(g).ok
        assert homotopy_classes(g) == [[i] for i in range(len(g.objects))]

    def test_arrow_counts_symmetric_between_objects(self, aff_groupoid):
        counts = {}
        for a in aff_groupoid.arrows:
            counts[(a.src, a.dst)] = counts.get((a.src, a.dst), 0) + 1
        for (i, j), n in counts.items():
            assert counts.get((j, i)) == n
