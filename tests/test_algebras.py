"""Lie algebras, actions, crossed modules, and their axiom validators."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import battery
from battery import PARITY_FIELDS, numbers, raw_values, reduced, spellings
from liecross import (
    CrossedModule,
    FieldSpec,
    LieAction,
    LieAlgebra,
    LinearMap,
    MAX_DIM,
    Scalar,
    Vector,
    abelian_zero_crossed_module,
    image_is_ideal,
    inclusion_crossed_module,
    validate_action,
    validate_crossed_module,
    validate_lie_algebra,
)
from liecross import groupoid
from liecross.errors import (
    NotAbelianError,
    NotAnIdealError,
    ShapeMismatchError,
)
from liecross.fields import same_field

QQ = FieldSpec.rational()
GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)


class TestConstruction:
    def test_sparse_brackets_fill_both_halves(self):
        aff = battery.affine2(QQ)
        c = aff.structure
        assert c[0][1][1].num == 1
        assert c[1][0][1].num == -1
        assert all(not c[i][i][k] for i in range(2) for k in range(2))

    def test_sparse_requires_lower_triangle(self):
        with pytest.raises(ShapeMismatchError):
            LieAlgebra.from_sparse_brackets("bad", QQ, 2, [(2, 1, {2: 1})])
        with pytest.raises(ShapeMismatchError):
            LieAlgebra.from_sparse_brackets("bad", QQ, 2, [(1, 1, {2: 1})])

    def test_sparse_rejects_duplicates_and_bad_indices(self):
        with pytest.raises(ShapeMismatchError):
            LieAlgebra.from_sparse_brackets(
                "bad", QQ, 2, [(1, 2, {2: 1}), (1, 2, {2: 1})])
        with pytest.raises(ShapeMismatchError):
            LieAlgebra.from_sparse_brackets("bad", QQ, 2, [(1, 3, {2: 1})])
        with pytest.raises(ShapeMismatchError):
            LieAlgebra.from_sparse_brackets("bad", QQ, 2, [(1, 2, {3: 1})])

    def test_dimension_cap(self):
        LieAlgebra.abelian("edge", QQ, MAX_DIM)
        with pytest.raises(ShapeMismatchError):
            LieAlgebra.abelian("big", QQ, MAX_DIM + 1)

    def test_zero_dimensional(self):
        nil = LieAlgebra.abelian("nil", QQ, 0)
        assert validate_lie_algebra(nil).ok
        assert nil.basis_vectors() == []

    def test_name_ignored_by_equality(self):
        a = LieAlgebra.abelian("a", QQ, 2)
        b = LieAlgebra.abelian("b", QQ, 2)
        assert a == b
        assert battery.affine2(QQ) != a


class TestBracket:
    def test_abelian_brackets_vanish(self):
        ab = LieAlgebra.abelian("ab", GF3, 2)
        x, y = Vector.make(GF3, [1, 2]), Vector.make(GF3, [2, 1])
        assert ab.bracket(x, y).is_zero()

    def test_affine2_bracket(self):
        aff = battery.affine2(QQ)
        assert aff.bracket(aff.basis(0), aff.basis(1)) == aff.basis(1)
        assert aff.bracket(aff.basis(1), aff.basis(0)) == -aff.basis(1)

    def test_sl2_bracket(self):
        s = battery.sl2(QQ)
        h, e, f = s.basis_vectors()
        assert s.bracket(e, f) == h
        assert s.bracket(h, e) == e.scale(QQ.scalar(2))

    def test_bilinearity(self):
        s = battery.sl2(QQ)
        x = Vector.make(QQ, [1, 2, 3])
        y = Vector.make(QQ, ["1/2", 0, 1])
        z = Vector.make(QQ, [0, 1, 1])
        assert s.bracket(x + y, z) == s.bracket(x, z) + s.bracket(y, z)
        assert s.bracket(x, y) == -s.bracket(y, x)

    def test_member_checks(self):
        aff = battery.affine2(QQ)
        with pytest.raises(ShapeMismatchError):
            aff.bracket(Vector.make(QQ, [1]), aff.basis(0))
        with pytest.raises(Exception):
            aff.bracket(Vector.make(GF3, [1, 0]), aff.basis(0))


class TestBasisRows:
    """basis_bracket and basis_act read one row of the stored tensor and
    index it as the nested view is indexed, negative indices included."""

    @staticmethod
    def tensor(field, d0, d1, d2, seed):
        rng = random.Random(seed)
        return [[[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if field is QQ
                  else rng.randint(-4, 4) for _ in range(d2)]
                 for _ in range(d1)] for _ in range(d0)]

    @staticmethod
    def assert_rows(read, view, d0, d1, field):
        for i in range(-d0, d0):
            for j in range(-d1, d1):
                assert read(i, j) == Vector(field, view[i][j]), (i, j)
        for i, j in ((d0, 0), (-d0 - 1, 0), (0, d1), (0, -d1 - 1)):
            with pytest.raises(IndexError):
                read(i, j)

    @pytest.mark.parametrize("field", [GF2, QQ])
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 8])
    def test_basis_bracket_is_the_views_row(self, field, dim):
        alg = LieAlgebra("random", field, dim, self.tensor(field, dim, dim, dim, dim))
        self.assert_rows(alg.basis_bracket, alg.structure, dim, dim, field)

    @pytest.mark.parametrize("field", [GF2, QQ])
    def test_basis_act_is_the_views_row(self, field):
        actor = LieAlgebra.abelian("P", field, 2)
        acted = LieAlgebra.abelian("M", field, 3)
        action = LieAction(actor, acted, self.tensor(field, 2, 3, 3, 23))
        self.assert_rows(action.basis_act, action.tensor, 2, 3, field)


def raw_tensor(data, field, d0, d1, d2):
    return [[data.draw(raw_values(field, d2)) for _ in range(d1)] for _ in range(d0)]


def expand(tensor, x, y, d2):
    """sum over i, j of x[i] y[j] tensor[i][j], by nested loops."""
    return [sum(x[i] * y[j] * tensor[i][j][k]
                for i in range(len(x)) for j in range(len(y)))
            for k in range(d2)]


class TestSingleArithmeticPath:
    # Tensors need not satisfy the Lie axioms: bracket and act are plain
    # bilinear expansions, compared with the loop reference above.
    dims = st.integers(min_value=0, max_value=3)

    @given(st.data())
    def test_bracket_matches_reference(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        n = data.draw(self.dims)
        c = raw_tensor(data, field, n, n, n)
        x, y = data.draw(raw_values(field, n)), data.draw(raw_values(field, n))
        algebra = LieAlgebra("random", field, n, c)
        got = algebra.bracket(Vector.make(field, x), Vector.make(field, y))
        assert numbers(field, got.entries) == reduced(field, expand(c, x, y, n))

    @given(st.data())
    def test_act_matches_reference(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        dp, dm = data.draw(self.dims), data.draw(self.dims)
        a = raw_tensor(data, field, dp, dm, dm)
        p, m = data.draw(raw_values(field, dp)), data.draw(raw_values(field, dm))
        action = LieAction(LieAlgebra.abelian("P", field, dp),
                           LieAlgebra.abelian("M", field, dm), a)
        got = action.act(Vector.make(field, p), Vector.make(field, m))
        assert numbers(field, got.entries) == reduced(field, expand(a, p, m, dm))


def spelled_builds(data, field, tensor, make):
    """make(t) for t = tensor with every Scalar spelled one way (as itself,
    its literal, a Fraction, and an int where it is integral), and for two
    tensors with each Scalar's spelling drawn at random."""
    def respelled(pick):
        return [[[pick(s) for s in row] for row in plane] for plane in tensor]
    uniform = [make(respelled(lambda s: spellings(field, s)[kind]))
               for kind in (0, 1, 2, -1)]
    return uniform + [make(respelled(
        lambda s: data.draw(st.sampled_from(spellings(field, s))))) for _ in range(2)]


def assert_one_form(builds, field, shape, view):
    """Every build equals, hashes and pickles back as the first, and its
    view holds Scalars of field nested in shape."""
    first = builds[0]
    d0, d1, d2 = shape
    for built in builds:
        back = pickle.loads(pickle.dumps(built))
        for same in (built, back):
            assert same == first and hash(same) == hash(first)
            assert view(same) == view(first)
        tensor = view(built)
        assert len(tensor) == d0
        assert all(len(plane) == d1 for plane in tensor)
        assert all(len(row) == d2 for plane in tensor for row in plane)
        assert all(type(c) is Scalar and same_field(c.field, field)
                   for plane in tensor for row in plane for c in row)


class TestOneStoredForm:
    """A structure or action tensor built from Scalars, ints, Fractions or
    literals, from sparse entries, as an adjoint or from its own view is one
    tensor, as a map is in test_linalg."""

    dims = st.integers(min_value=0, max_value=3)

    @given(st.data())
    def test_every_build_of_an_algebra_is_one_algebra(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        n = data.draw(self.dims)
        upper = {(i, j): data.draw(raw_values(field, n))
                 for i in range(n) for j in range(i + 1, n)}
        want = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for (i, j), values in upper.items():
            for k, v in enumerate(values):
                want[i][j][k] = field.scalar(v)
                want[j][i][k] = -field.scalar(v)
        sparse = LieAlgebra.from_sparse_brackets(
            "sparse", field, n, [(i + 1, j + 1, dict(enumerate(values, 1)))
                                 for (i, j), values in upper.items()])
        builds = [sparse,
                  *spelled_builds(data, field, want,
                                  lambda t: LieAlgebra("spelled", field, n, t)),
                  LieAlgebra("view", field, n, sparse.structure)]
        assert_one_form(builds, field, (n, n, n), lambda a: a.structure)
        assert sparse.structure == tuple(tuple(map(tuple, plane)) for plane in want)
        adjoints = [LieAction.adjoint(b) for b in builds] \
            + [LieAction(sparse, sparse, want)]
        assert_one_form(adjoints, field, (n, n, n), lambda a: a.tensor)

    @given(st.data())
    def test_every_build_of_an_action_is_one_action(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        dp, dm = data.draw(self.dims), data.draw(self.dims)
        actor = LieAlgebra.abelian("P", field, dp)
        acted = LieAlgebra.abelian("M", field, dm)
        want = [[[field.scalar(v) for v in row] for row in plane]
                for plane in raw_tensor(data, field, dp, dm, dm)]
        action = LieAction.from_sparse(actor, acted, [
            (i + 1, j + 1, dict(enumerate(row, 1)))
            for i, plane in enumerate(want) for j, row in enumerate(plane)])
        builds = [action,
                  *spelled_builds(data, field, want,
                                  lambda t: LieAction(actor, acted, t)),
                  LieAction(actor, acted, action.tensor)]
        assert_one_form(builds, field, (dp, dm, dm), lambda a: a.tensor)
        assert action.tensor == tuple(tuple(map(tuple, plane)) for plane in want)

    @pytest.mark.parametrize("field", PARITY_FIELDS)
    def test_dimension_zero_views_keep_their_shape(self, field):
        plane = LieAlgebra.abelian("plane", field, 2)
        nil = LieAlgebra.abelian("nil", field, 0)
        assert nil.structure == ()
        assert LieAction.zero(plane, nil).tensor == ((), ())
        assert LieAction(plane, nil, [[], []]) == LieAction.zero(plane, nil)
        assert LieAction.zero(nil, plane).tensor == ()
        with pytest.raises(ShapeMismatchError):
            LieAction(plane, nil, [[]])

    def test_rebuilt_algebra_hits_the_scan_cache(self):
        aff = battery.affine2(GF3)
        rebuilt = LieAlgebra("rebuilt", GF3, 2, [
            [[c.num for c in row] for row in plane] for plane in aff.structure])
        first = groupoid._lie_morphism_scan(aff, aff)
        hits = groupoid._lie_morphism_scan.cache_info().hits
        assert groupoid._lie_morphism_scan(rebuilt, rebuilt) is first
        assert groupoid._lie_morphism_scan.cache_info().hits == hits + 1


class TestValidateLieAlgebra:
    def test_known_positives(self):
        for alg in (battery.affine2(QQ), battery.sl2(QQ),
                    battery.heisenberg3(GF3), LieAlgebra.abelian("ab", GF2, 3)):
            report = validate_lie_algebra(alg)
            assert report.ok, report.summary()

    def test_antisymmetry_witness(self):
        # c[1][2][2] = c[2][1][2] = 1 breaks antisymmetry at (1, 2, 2).
        tensor = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
        report = validate_lie_algebra(LieAlgebra("bad", QQ, 2, tensor))
        first = report.failures[0]
        assert (first.check, first.indices) == ("antisymmetry", (1, 2, 2))

    def test_jacobi_witness(self):
        # [e1,e2]=e3, [e1,e3]=e1: the Jacobi sum on (1,2,3) equals e3.
        alg = LieAlgebra.from_sparse_brackets(
            "bad", QQ, 3, [(1, 2, {3: 1}), (1, 3, {1: 1})])
        report = validate_lie_algebra(alg)
        assert not report.ok
        first = report.failures[0]
        assert (first.check, first.indices) == ("jacobi", (1, 2, 3))
        assert not report.failures_for("antisymmetry")

    def test_char2_requires_alternating_diagonal(self):
        # In GF(2), c[i][i][k] = -c[i][i][k] always holds; the validator
        # must still reject a nonzero diagonal.
        tensor = [[[1]]]
        report = validate_lie_algebra(LieAlgebra("bad", GF2, 1, tensor))
        assert report.failures[0].check == "antisymmetry"
        assert report.failures[0].indices == (1, 1, 1)


class TestValidateAction:
    def test_zero_action_valid(self):
        p = battery.affine2(QQ)
        m = LieAlgebra.abelian("m", QQ, 2)
        assert validate_action(LieAction.zero(p, m)).ok

    def test_adjoint_action_valid(self):
        for alg in (battery.affine2(QQ), battery.sl2(QQ)):
            assert validate_action(LieAction.adjoint(alg)).ok

    def test_bracket_axiom_witness(self):
        # a[1][1][1] = a[2][1][1] = 1 on a 1-dim module breaks
        # [e1,e2].m = e1.(e2.m) - e2.(e1.m) at (1, 2, 1).
        p = battery.affine2(GF3)
        m = LieAlgebra.abelian("m", GF3, 1)
        action = LieAction(p, m, [[[1]], [[1]]])
        report = validate_action(action)
        first = report.failures[0]
        assert (first.check, first.indices) == ("action_bracket", (1, 2, 1))

    def test_leibniz_witness(self):
        # Scaling action on a non-abelian module violates Leibniz.
        aff = battery.affine2(QQ)
        line = LieAlgebra.abelian("line", QQ, 1)
        action = LieAction(line, aff, [[[1, 0], [0, 1]]])
        report = validate_action(action)
        assert report.failures_for("action_leibniz")


class TestCrossedModules:
    def test_x_triv_valid(self):
        assert validate_crossed_module(battery.x_triv(GF2)).ok

    def test_x_aff_valid(self):
        assert validate_crossed_module(battery.x_aff(GF3)).ok

    def test_sl2_adjoint_valid(self):
        s = battery.sl2(QQ)
        adj = inclusion_crossed_module(s, s.basis_vectors(), name="sl2_adj")
        assert validate_crossed_module(adj).ok

    def test_cm1_witness_for_zero_action(self):
        xaff = battery.x_aff(GF3)
        broken = CrossedModule("broken", xaff.m_algebra, xaff.p_algebra,
                               xaff.boundary,
                               LieAction.zero(xaff.p_algebra, xaff.m_algebra))
        report = validate_crossed_module(broken)
        first = report.failures[0]
        assert (first.check, first.indices) == ("cm1", (1, 1))
        assert str(first.lhs) == "(0, 0)"
        assert str(first.rhs) == "(0, 1)"

    def test_cm2_witness(self):
        # Doubling the action tensor of X_aff breaks the Peiffer identity
        # exactly where the boundary feeds back into the action.
        xaff = battery.x_aff(GF3)
        doubled = LieAction(
            xaff.p_algebra, xaff.m_algebra,
            [[[e + e for e in row] for row in plane]
             for plane in xaff.action.tensor])
        report = validate_crossed_module(
            CrossedModule("broken", xaff.m_algebra, xaff.p_algebra,
                          xaff.boundary, doubled))
        assert report.failures_for("cm1") or report.failures_for("cm2")

    def test_boundary_must_be_morphism(self):
        s = battery.sl2(QQ)
        target = battery.sl2(QQ)
        bad = CrossedModule("bad", s, target,
                            LinearMap.from_rows(QQ, [[0, 1, 0],
                                                     [1, 0, 0],
                                                     [0, 0, 1]]),
                            LieAction.adjoint(s))
        report = validate_crossed_module(bad)
        assert report.failures_for("boundary_morphism")

    def test_shape_checks_at_construction(self):
        xaff = battery.x_aff(GF3)
        with pytest.raises(ShapeMismatchError):
            CrossedModule("bad", xaff.m_algebra, xaff.p_algebra,
                          LinearMap.zero(GF3, 1, 2), xaff.action)


class TestInclusionModule:
    def test_span_e2_reproduces_x_aff(self):
        aff = battery.affine2(GF3)
        xmod = inclusion_crossed_module(aff, [aff.basis(1)])
        assert xmod.m_algebra.dim == 1
        # boundary is the inclusion e -> e2
        assert [s.num for row in xmod.boundary.entries for s in row] == [0, 1]
        # action reads [e1, e2] = e2 through the ideal basis
        assert xmod.action.tensor[0][0][0].num == 1
        assert xmod.action.tensor[1][0][0].num == 0
        assert validate_crossed_module(xmod).ok

    def test_full_basis_gives_adjoint_module(self):
        s = battery.sl2(QQ)
        adj = inclusion_crossed_module(s, s.basis_vectors())
        assert adj.boundary == LinearMap.identity(QQ, 3)
        assert adj.action.tensor == s.structure
        assert validate_crossed_module(adj).ok

    def test_not_an_ideal(self):
        aff = battery.affine2(GF3)
        with pytest.raises(NotAnIdealError) as err:
            inclusion_crossed_module(aff, [aff.basis(0)])
        assert err.value.pair == (2, 1)
        assert "outside the span" in str(err.value)

    def test_restriction_consistency(self):
        # act(p, m) equals the ambient bracket [p, inc(m)] in ideal coordinates.
        h3 = battery.heisenberg3(GF3)
        ideal = [h3.basis(2), h3.basis(0)]
        xmod = inclusion_crossed_module(h3, ideal)
        inc = xmod.boundary
        for i in range(h3.dim):
            for j in range(xmod.m_algebra.dim):
                lifted = inc.apply(xmod.action.act(
                    h3.basis(i), xmod.m_algebra.basis(j)))
                direct = h3.bracket(h3.basis(i), inc.apply(xmod.m_algebra.basis(j)))
                assert lifted == direct

    def test_dependent_basis_rejected(self):
        aff = battery.affine2(GF3)
        with pytest.raises(ShapeMismatchError):
            inclusion_crossed_module(aff, [aff.basis(1),
                                           aff.basis(1).scale(GF3.scalar(2))])

    def test_zero_ideal(self):
        aff = battery.affine2(GF3)
        xmod = inclusion_crossed_module(aff, [])
        assert xmod.m_algebra.dim == 0
        assert validate_crossed_module(xmod).ok


class TestImageIsIdeal:
    def test_battery_images(self):
        for xmod in (battery.x_aff(GF3), battery.x_triv(GF2)):
            result = image_is_ideal(xmod)
            assert result
            assert result.is_ideal

    def test_spanning_set_brackets_back_into_image(self):
        xaff = battery.x_aff(GF3)
        result = image_is_ideal(xaff)
        span = list(result.spanning)
        assert len(span) == 1
        ambient = xaff.p_algebra
        image = LinearMap.from_columns(GF3, span, rows=ambient.dim)
        for i in range(ambient.dim):
            for v in span:
                assert image.solve(ambient.bracket(ambient.basis(i), v)) is not None

    def test_full_image(self):
        s = battery.sl2(QQ)
        adj = inclusion_crossed_module(s, s.basis_vectors())
        result = image_is_ideal(adj)
        assert result and len(result.spanning) == 3

    def test_non_ideal_image_reports_its_witness(self):
        # boundary = the inclusion of span(e1) in affine2: [e2, e1] = -e2
        # leaves the span.
        aff = battery.affine2(GF3)
        line = LieAlgebra.abelian("line", GF3, 1)
        xmod = CrossedModule("e1", line, aff, LinearMap.from_rows(GF3, [[1], [0]]),
                             LieAction.zero(aff, line))
        result = image_is_ideal(xmod)
        assert not result
        assert result.spanning == (aff.basis(0),)
        assert result.witness == ((2, 1), aff.basis(1).scale(GF3.scalar(-1)))


class TestAbelianZeroModule:
    def test_scaling_action_module(self):
        aff = battery.affine2(QQ)
        line = LieAlgebra.abelian("line", QQ, 1)
        action = LieAction.from_sparse(aff, line, [(1, 1, {1: 1})])
        xmod = abelian_zero_crossed_module(aff, action)
        assert xmod.boundary.is_zero()
        assert validate_crossed_module(xmod).ok

    def test_zero_action_module(self):
        h3 = battery.heisenberg3(GF3)
        plane = LieAlgebra.abelian("plane", GF3, 2)
        xmod = abelian_zero_crossed_module(h3, LieAction.zero(h3, plane))
        assert validate_crossed_module(xmod).ok

    def test_nonabelian_module_rejected(self):
        aff = battery.affine2(QQ)
        with pytest.raises(NotAbelianError):
            abelian_zero_crossed_module(aff, LieAction.adjoint(aff))

    def test_actor_mismatch_rejected(self):
        aff = battery.affine2(QQ)
        line = LieAlgebra.abelian("line", QQ, 1)
        other = battery.sl2(QQ)
        with pytest.raises(ShapeMismatchError):
            abelian_zero_crossed_module(other, LieAction.zero(aff, line))


class TestReportShape:
    def test_pass_lines(self):
        report = validate_lie_algebra(battery.affine2(QQ))
        lines = report.lines()
        assert "affine2 antisymmetry PASS" in lines
        assert "affine2 jacobi PASS" in lines

    def test_fail_lines_carry_witness(self):
        tensor = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
        report = validate_lie_algebra(LieAlgebra("bad", QQ, 2, tensor))
        line = [l for l in report.lines() if "FAIL" in l][0]
        assert line.startswith("bad antisymmetry FAIL")
        assert "(1, 2, 2)" in line

    def test_failures_sorted_lexicographically(self):
        alg = LieAlgebra.from_sparse_brackets(
            "bad", QQ, 3, [(1, 2, {3: 1}), (1, 3, {1: 1})])
        fails = validate_lie_algebra(alg).failures_for("jacobi")
        assert [f.indices for f in fails] == sorted(f.indices for f in fails)
