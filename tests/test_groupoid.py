"""Groupoid construction, axiom validation, and homotopy classes."""

import hashlib
import json
import random

import pytest

import battery
import oracle_bruteforce as oracle
from battery import lines_module
from fractions import Fraction

from liecross import (
    Arrow,
    CrossedModule,
    Derivation,
    FieldSpec,
    HomGroupoid,
    LieAction,
    LieAlgebra,
    LinearMap,
    abelian_zero_crossed_module,
    build_hom_groupoid,
    enumerate_derivations,
    enumerate_morphisms,
    homotopy_classes,
    identity_morphism,
    inclusion_crossed_module,
    shift_morphism,
    validate_groupoid,
)
from liecross.cli import _groupoid_document
from liecross.groupoid import DEFAULT_BUDGET, _class_scans
from liecross.documents import _matrix_doc
from liecross.errors import BudgetExceededError, InvariantError

QQ = FieldSpec.rational()

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)


def flat(linear_map):
    return tuple(e.num for row in linear_map.entries for e in row)


def reference_failures(groupoid):
    """The checks validate_groupoid must fail, by nested loops over arrows
    and LinearMap sums.  An arrow is named by (src, d), the later of two
    equal names winning; a composite must exist and end where its second
    arrow does."""
    objects, arrows = groupoid.objects, groupoid.arrows
    failed = set()

    def named(src, d):
        found = None
        for t, a in enumerate(arrows):
            if a.src == src and a.derivation.d == d:
                found = t
        return found

    composites = {}
    for t1, a in enumerate(arrows):
        for t2, b in enumerate(arrows):
            if a.dst == b.src:
                t12 = named(a.src, a.derivation.d + b.derivation.d)
                if t12 is None or arrows[t12].dst != b.dst:
                    failed.add("associativity")
                    t12 = None
                composites[t1, t2] = t12

    def compose(t1, t2):
        return None if t1 is None or t2 is None else composites.get((t1, t2))

    for a in arrows:
        der = a.derivation
        if der.source_morphism != objects[a.src] \
                or shift_morphism(der.source_morphism, der.d) != objects[a.dst]:
            failed.add("endpoints")
    zero = LinearMap.zero(groupoid.source_module.field,
                          groupoid.target_module.m_algebra.dim,
                          groupoid.source_module.p_algebra.dim)
    # Identities are zero loops; arrows at an object without one skip the
    # unit and inverse laws.
    ident = [named(i, zero) for i in range(len(objects))]
    ident = [e if e is not None and arrows[e].dst == i else None
             for i, e in enumerate(ident)]
    if None in ident:
        failed.add("identity")
    for t, a in enumerate(arrows):
        home, away = ident[a.src], ident[a.dst]
        if home is None or away is None:
            continue
        if compose(home, t) != t or compose(t, away) != t:
            failed.add("identity")
        if not any(b.src == a.dst and compose(t, s) == home and compose(s, t) == away
                   for s, b in enumerate(arrows)):
            failed.add("inverse")
    for (t1, t2), t12 in composites.items():
        for t3, c in enumerate(arrows):
            if arrows[t2].dst != c.src:
                continue
            lhs, t23 = compose(t12, t3), compose(t2, t3)
            if None not in (lhs, t23) and compose(t1, t23) != lhs:
                failed.add("associativity")
    return failed


def corrupt(groupoid, rng):
    """groupoid after 1 to 8 random corruptions, each of one arrow: dropped,
    duplicated, given another src or dst, reversed with -d (anchored at its
    old dst) or given a different derivation.  Endpoints stay in range."""
    objects = groupoid.objects
    arrows = list(groupoid.arrows)
    kinds = ["drop", "duplicate", "reverse"]
    if len(objects) > 1:
        kinds += ["src", "dst"]
    if groupoid.target_module.m_algebra.dim * groupoid.source_module.p_algebra.dim:
        kinds.append("d")
    for _ in range(rng.randint(1, 8)):
        if not arrows:
            break
        t = rng.randrange(len(arrows))
        a = arrows[t]
        kind = rng.choice(kinds)
        if kind == "drop":
            del arrows[t]
        elif kind == "duplicate":
            arrows.insert(rng.randrange(len(arrows) + 1), a)
        elif kind == "src":
            others = [i for i in range(len(objects)) if i != a.src]
            arrows[t] = Arrow(rng.choice(others), a.dst, a.derivation)
        elif kind == "dst":
            others = [i for i in range(len(objects)) if i != a.dst]
            arrows[t] = Arrow(a.src, rng.choice(others), a.derivation)
        elif kind == "reverse":
            arrows[t] = Arrow(a.dst, a.src,
                              Derivation(objects[a.dst], -a.derivation.d))
        else:
            d = a.derivation.d
            while True:
                bump = LinearMap.from_rows(d.field, [
                    [rng.randrange(d.field.p) for _ in range(d.cols)]
                    for _ in range(d.rows)])
                if not bump.is_zero():
                    break
            arrows[t] = Arrow(a.src, a.dst,
                              Derivation(a.derivation.source_morphism, d + bump))
    return HomGroupoid(groupoid.source_module, groupoid.target_module,
                       objects, tuple(arrows))


def per_object_groupoid(source, target):
    """The hom-groupoid built object by object: every object's derivations,
    each shifted onto its target with shift_morphism."""
    objects = tuple(enumerate_morphisms(source, target))
    position = {(f.f1, f.f0): i for i, f in enumerate(objects)}
    arrows = []
    for i, f in enumerate(objects):
        for der in enumerate_derivations(f):
            g = shift_morphism(f, der.d)
            arrows.append(Arrow(i, position[g.f1, g.f0], der))
    return HomGroupoid(source, target, objects, tuple(arrows))


def loops_at(groupoid, i):
    """|pi1| at object i: the arrows from i to itself."""
    return sum(1 for a in groupoid.arrows if a.src == a.dst == i)


def shape(groupoid):
    """Object, arrow and class counts and sorted class sizes."""
    classes = homotopy_classes(groupoid)
    return (len(groupoid.objects), len(groupoid.arrows), len(classes),
            sorted(len(c) for c in classes))


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

    def test_module_breaking_cm2_raises(self):
        # Every homotopy target at object 0 is an object, so only the module
        # validation stops the build; the report names cm2 and nothing else.
        aff = battery.affine2(GF3)
        bad = CrossedModule("adjoint_zero", aff, aff, LinearMap.zero(GF3, 2, 2),
                            LieAction.adjoint(aff))
        with pytest.raises(InvariantError) as raised:
            build_hom_groupoid(bad, bad)
        report = raised.value.report
        assert {f.check for f in report.failures} == {"cm2"}
        assert set(report.checks) >= {"jacobi", "action_leibniz", "cm1", "cm2"}


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

    @pytest.mark.parametrize("end, index", [("dst", 7), ("src", 5), ("dst", -1)])
    def test_endpoint_naming_no_object_fails_endpoints(self, end, index):
        # The arrow fails endpoints once, without an exception, and is left
        # out of the laws: they report what they report with it dropped.
        g = build_hom_groupoid(battery.x_triv(GF3), battery.x_triv(GF3))
        first = g.arrows[0]
        ends = {"src": first.src, "dst": first.dst, end: index}
        report = validate_groupoid(HomGroupoid(
            g.source_module, g.target_module, g.objects,
            (Arrow(ends["src"], ends["dst"], first.derivation),) + g.arrows[1:]))
        what = "anchor" if end == "src" else "target"
        assert [(f.indices, f.lhs, f.rhs) for f in report.failures_for("endpoints")] \
            == [((1,), f"arrow {what}", f"objects[{index}], out of range")]
        dropped = validate_groupoid(HomGroupoid(
            g.source_module, g.target_module, g.objects, g.arrows[1:]))
        assert [(f.check, f.lhs) for f in report.failures if f.check != "endpoints"] \
            == [(f.check, f.lhs) for f in dropped.failures]

    @pytest.mark.parametrize("module, p", [("x_aff", 3), ("x_triv", 5)])
    def test_foreign_derivation_fails_endpoints_only(self, module, p):
        # A d of another shape (X_aff) or field (GF(5)) fails both endpoints,
        # without an exception, and is left out of the laws.
        g = build_hom_groupoid(battery.x_triv(GF3), battery.x_triv(GF3))
        xmod = getattr(battery, module)(FieldSpec.prime(p))
        foreign = build_hom_groupoid(xmod, xmod).arrows[0].derivation
        first = g.arrows[0]
        report = validate_groupoid(HomGroupoid(
            g.source_module, g.target_module, g.objects,
            (Arrow(first.src, first.dst, foreign),) + g.arrows[1:]))
        assert [(f.indices, f.lhs) for f in report.failures_for("endpoints")] \
            == [((1,), "arrow anchor"), ((1,), "arrow target")]
        dropped = validate_groupoid(HomGroupoid(
            g.source_module, g.target_module, g.objects, g.arrows[1:]))
        assert [(f.check, f.lhs) for f in report.failures if f.check != "endpoints"] \
            == [(f.check, f.lhs) for f in dropped.failures]

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


class TestCompositionTable:
    def test_missing_composites_fail_associativity(self, aff_groupoid):
        # Arrows 12 (3 -> 4, d = [[1, 0]]) and 24 (4 -> 3, d = [[2, 0]])
        # are each other's inverses, so every other law still holds; only
        # the composites that should be them are missing.
        dropped = [aff_groupoid.arrows[12], aff_groupoid.arrows[24]]
        assert [(a.src, a.dst, flat(a.derivation.d)) for a in dropped] \
            == [(3, 4, (1, 0)), (4, 3, (2, 0))]
        arrows = tuple(a for t, a in enumerate(aff_groupoid.arrows)
                       if t not in (12, 24))
        report = validate_groupoid(HomGroupoid(
            aff_groupoid.source_module, aff_groupoid.target_module,
            aff_groupoid.objects, arrows))
        assert not report.ok
        assert set(report.checks) \
            == {"endpoints", "identity", "inverse", "associativity"}
        assert {f.check for f in report.failures} == {"associativity"}
        assert all(len(f.indices) == 2 for f in report.failures)

    @pytest.mark.parametrize("p, seed", [(2, 21), (3, 22)])
    def test_matches_nested_loop_reference(self, p, seed):
        # Random 1-8-fold corruptions of small groupoids over GF(p), the
        # abelian zero-boundary ones among them, where every arrow is a loop.
        field = FieldSpec.prime(p)
        names = {"X_triv", "aff_on_line", "aff_on_line_zero", "aff_on_plane"}
        modules = [battery.x_aff(field)] + [
            x for x in battery.battery_modules(p) if x.name in names]
        groupoids = [build_hom_groupoid(x, x) for x in modules]
        groupoids = [g for g in groupoids if len(g.arrows) <= 160]
        assert any(all(a.src == a.dst for a in g.arrows) and len(g.arrows)
                   > len(g.objects) for g in groupoids)
        rng = random.Random(seed)
        seen = set()
        for g in groupoids:
            for case in [g] + [corrupt(g, rng) for _ in range(5)]:
                report = validate_groupoid(case)
                failed = {f.check for f in report.failures}
                assert failed == reference_failures(case), \
                    (g.source_module.name, report.lines())
                assert report.ok == (not failed)
                seen |= failed
        assert seen == {"endpoints", "identity", "inverse", "associativity"}


class TestGeneratedGroupoids:
    """Metamorphic checks on generated hom-groupoids over GF(2), GF(3) and
    GF(5): battery modules in random bases, dim-0 components and the abelian
    zero-boundary modules."""

    @staticmethod
    def pool(p, seed):
        field = FieldSpec.prime(p)
        pool = battery.battery_modules(p) + [
            lines_module(field, m, q) for m, q in [(0, 0), (0, 1), (1, 0)]]
        return [battery.change_basis(x, seed * 100 + k) for k, x in enumerate(pool)]

    @staticmethod
    def small(a, b):
        p = a.field.p
        dm, dp = a.m_algebra.dim, a.p_algebra.dim
        dm2, dp2 = b.m_algebra.dim, b.p_algebra.dim
        return p ** (dm2 * dm + dp2 * dp) <= 1024 and p ** (dm2 * dp) <= 27

    @pytest.mark.parametrize("p, seed", [(2, 31), (3, 32), (5, 33)])
    def test_arrows_count_by_class_and_vertex_group(self, p, seed):
        # #arrows = sum over classes C of |C|^2 |pi1(C)|, pi1(C) the loops
        # at C's first member, counted from the arrow list alone.
        pool = self.pool(p, seed)
        pairs = [(a, b) for a in pool for b in pool if self.small(a, b)]
        assert len(pairs) > 100
        nontrivial = 0
        for a, b in pairs:
            g = build_hom_groupoid(a, b)
            classes = homotopy_classes(g)
            counted = sum(len(c) ** 2 * loops_at(g, c[0]) for c in classes)
            assert len(g.arrows) == counted, (a.name, b.name)
            nontrivial += any(loops_at(g, c[0]) > 1 for c in classes)
        assert nontrivial

    @pytest.mark.parametrize("p, seed", [(2, 41), (3, 42), (5, 43)])
    def test_change_of_basis_preserves_shape(self, p, seed):
        pool = self.pool(p, seed)
        moved = [battery.change_basis(x, seed * 100 + 50 + k)
                 for k, x in enumerate(pool)]
        for a, a_moved in zip(pool, moved):
            for b, b_moved in zip(pool, moved):
                if not self.small(a, b):
                    continue
                expected = shape(build_hom_groupoid(a, b))
                assert shape(build_hom_groupoid(a_moved, b)) == expected, \
                    (a.name, b.name)
                assert shape(build_hom_groupoid(a, b_moved)) == expected, \
                    (a.name, b.name)
                assert shape(build_hom_groupoid(a_moved, b_moved)) == expected, \
                    (a.name, b.name)

    @pytest.mark.parametrize("p, seed", [(2, 61), (3, 62), (5, 63)])
    def test_budget_is_exact_at_the_largest_scan(self, p, seed):
        # budget = the largest scan space builds the whole groupoid; one less
        # stops at the first scan of that size, in the order they run.
        pool = self.pool(p, seed)
        for a, b in [(a, b) for a in pool for b in pool if self.small(a, b)]:
            dm, dp = a.m_algebra.dim, a.p_algebra.dim
            dm2, dp2 = b.m_algebra.dim, b.p_algebra.dim
            scans = [("f1 component scan", p ** (dm2 * dm)),
                     ("f0 component scan", p ** (dp2 * dp)),
                     ("derivation scan", p ** (dm2 * dp))]
            budget = max(space for _, space in scans)
            what = next(name for name, space in scans if space == budget)
            assert shape(build_hom_groupoid(a, b, budget=budget)) \
                == shape(build_hom_groupoid(a, b)), (a.name, b.name)
            with pytest.raises(BudgetExceededError) as err:
                build_hom_groupoid(a, b, budget=budget - 1)
            assert str(err.value) \
                == f"{what} has size {budget}, exceeding budget {budget - 1}"

    @pytest.mark.parametrize("p, seed", [(2, 71), (3, 72), (5, 73)])
    def test_matches_per_object_build(self, p, seed):
        # One derivation scan per class gives the objects, arrows and classes
        # of scanning at every object, in the same order, non-trivial pi1
        # included.
        pool = self.pool(p, seed)
        pairs = [(a, b) for a in pool for b in pool if self.small(a, b)]
        nontrivial = 0
        for a, b in pairs:
            g, reference = build_hom_groupoid(a, b), per_object_groupoid(a, b)
            assert g.objects == reference.objects, (a.name, b.name)
            assert [(t.src, t.dst, flat(t.derivation.d)) for t in g.arrows] \
                == [(t.src, t.dst, flat(t.derivation.d)) for t in reference.arrows], \
                (a.name, b.name)
            assert all(t.derivation.source_morphism == g.objects[t.src]
                       for t in g.arrows), (a.name, b.name)
            classes = homotopy_classes(g)
            assert classes == homotopy_classes(reference), (a.name, b.name)
            nontrivial += any(loops_at(g, c[0]) > 1 for c in classes)
        assert nontrivial

    @pytest.mark.parametrize("p, seed", [(2, 91), (3, 92), (5, 93)])
    def test_class_scans_give_the_classes(self, p, seed):
        # The classes CLI `classes` reads off one scan per class, without
        # arrows, are the components of the built groupoid.
        pool = self.pool(p, seed)
        for a, b in [(a, b) for a in pool for b in pool if self.small(a, b)]:
            objects, scans = _class_scans(a, b, DEFAULT_BUDGET)
            g = build_hom_groupoid(a, b)
            assert list(objects) == list(g.objects), (a.name, b.name)
            assert [sorted({j for _, j in reach}) for reach in scans] \
                == homotopy_classes(g), (a.name, b.name)

    @pytest.mark.parametrize("p, seed", [(2, 81), (3, 82), (5, 83)])
    def test_isomorphic_swap_preserves_shape(self, p, seed):
        # HOM(a, a'), HOM(a', a) and HOM(a, a) agree for a copy a' of a in
        # another basis.
        pool = self.pool(p, seed)
        moved = [battery.change_basis(x, seed * 100 + 50 + k)
                 for k, x in enumerate(pool)]
        for a, a_moved in zip(pool, moved):
            if not self.small(a, a):
                continue
            expected = shape(build_hom_groupoid(a, a))
            assert shape(build_hom_groupoid(a, a_moved)) == expected, a.name
            assert shape(build_hom_groupoid(a_moved, a)) == expected, a.name

    @pytest.mark.parametrize("p, seed", [(2, 91), (3, 92), (5, 93)])
    def test_cli_document_matches_json_dumps(self, p, seed):
        # The per-matrix encoding is json.dumps(indent=2) of the whole
        # document, 0-row and 0-column d matrices included.
        pool = self.pool(p, seed)
        shapes = set()
        for a, b in [(a, b) for a in pool for b in pool if self.small(a, b)]:
            g = build_hom_groupoid(a, b)
            classes = homotopy_classes(g)
            document = {
                "objects": [{"f1": _matrix_doc(f.f1), "f0": _matrix_doc(f.f0)}
                            for f in g.objects],
                "arrows": [{"src": t.src, "dst": t.dst, "d": _matrix_doc(t.derivation.d)}
                           for t in g.arrows],
                "classes": classes}
            assert _groupoid_document(g, classes) == json.dumps(document, indent=2), \
                (a.name, b.name)
            shapes.add((b.m_algebra.dim, a.p_algebra.dim))
        assert any(rows == 0 for rows, _ in shapes)
        assert any(cols == 0 for _, cols in shapes)
        empty = HomGroupoid(pool[0], pool[0], (), ())
        assert _groupoid_document(empty, []) \
            == json.dumps({"objects": [], "arrows": [], "classes": []}, indent=2)

    @pytest.mark.parametrize("p, seed, laws, classes", [
        (2, 101,
         "513749c0ff9ddac71bb10c9c285dd828c76350eb2f40cae195274cd4a33ed7b4",
         "5e8311d047aeeb770c50c94df4bda42b8c1d3d77acf40d56c418c462c4d6117a"),
        (3, 102,
         "b5a36469129c1bde8166e4864306b7b2e457d24ba78d6bb665efd1894c650329",
         "5232e53765d02d29b99a1d400ee8ce5c6ba0add80c822dacd2a4565910a17d06"),
        (5, 103,
         "a78e08799409b3064f84968ca0610d38f5858c809c9b6d0c365fb8089525799b",
         "dc8e7a47796f4398a795dbedcec65eaf88269715614d89d09e38a4bf2a1a0923")])
    def test_corrupted_outcomes_are_pinned(self, p, seed, laws, classes):
        # sha256 pins of validate_groupoid's checks and failures, and of
        # homotopy_classes' classes or InvariantError report, on generated
        # groupoids and their 1-8-fold corruptions.  The pins were taken
        # from an explicit pass over every composable triple, two lookups
        # per unit and inverse law and classes by union-find, so reading
        # the laws off the table moves no outcome.
        pool = self.pool(p, seed)
        rng = random.Random(seed)
        reports, partitions = [], []
        for a, b in [(a, b) for a in pool for b in pool if self.small(a, b)]:
            g = build_hom_groupoid(a, b)
            if not 2 <= len(g.arrows) <= 160:
                continue
            for case in [g] + [corrupt(g, rng) for _ in range(4)]:
                report = validate_groupoid(case)
                reports.append([report.checks, [
                    [f.check, f.indices, str(f.lhs), str(f.rhs)]
                    for f in report.failures]])
                try:
                    partitions.append(homotopy_classes(case))
                except InvariantError as err:
                    partitions.append(err.report.lines())

        def digest(outcomes):
            return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert len(reports) > 100
        assert any(r[1] for r in reports) and not all(r[1] for r in reports)
        assert (digest(reports), digest(partitions)) == (laws, classes)


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

    @pytest.mark.parametrize("module, stray", [("x_triv", 7), ("x_aff", -1)])
    def test_arrow_naming_no_object_raises(self, module, stray):
        # Arrows 0 -> stray and stray -> 0 are symmetric, but name no object:
        # they are reported under endpoints, worded as validate_groupoid
        # words them, instead of raising IndexError (7) or reading -1 as the
        # last object.
        xmod = getattr(battery, module)(GF3)
        g = build_hom_groupoid(xmod, xmod)
        d = g.arrows[0].derivation
        stray_arrows = (Arrow(0, stray, d), Arrow(stray, 0, d))
        broken = HomGroupoid(g.source_module, g.target_module, g.objects,
                             g.arrows + stray_arrows)
        with pytest.raises(InvariantError) as raised:
            homotopy_classes(broken)
        n = len(g.arrows)
        failures = raised.value.report.failures
        assert [(f.check, f.indices, f.lhs, f.rhs) for f in failures] == [
            ("endpoints", (n + 1,), "arrow target", f"objects[{stray}], out of range"),
            ("endpoints", (n + 2,), "arrow anchor", f"objects[{stray}], out of range")]
        assert failures == [f for f in validate_groupoid(broken).failures
                            if f.rhs.endswith("out of range")]

    def test_arrow_counts_symmetric_between_objects(self, aff_groupoid):
        counts = {}
        for a in aff_groupoid.arrows:
            counts[(a.src, a.dst)] = counts.get((a.src, a.dst), 0) + 1
        for (i, j), n in counts.items():
            assert counts.get((j, i)) == n
