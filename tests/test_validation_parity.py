"""Every validator against the nested-loop reference in scalar_reference.

Generated inputs over QQ, GF(2) and GF(5): random structure and action
tensors, boundaries, maps and derivations of dimensions 0 to 3, almost all
of which break some law, plus the battery's valid modules, morphisms and
derivations.  Near misses hold the validators' residue fast path to the
reference where it decides: inputs that pass whatever their tensors are,
the same inputs with one entry changed, and inputs that fail only at
i = j or i > j.  The subject, the checks and every failure (check, indices
and both sides as printed) must agree with the reference, in order.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import battery
import scalar_reference as reference
from battery import PARITY_FIELDS, raw_values
from liecross import (
    CrossedModule,
    CrossedMorphism,
    FieldSpec,
    LieAction,
    LieAlgebra,
    LinearMap,
    enumerate_derivations,
    enumerate_morphisms,
    identity_morphism,
    is_f0_derivation,
    is_lie_morphism,
    shift_morphism,
    validate_action,
    validate_crossed_module,
    validate_crossed_morphism,
    validate_lie_algebra,
)
from liecross import _kernels
from liecross.linalg import Vector

# Dims 2 and 3 drawn more often than 0 and 1, where most laws hold vacuously.
dims = st.integers(min_value=0, max_value=3) | st.integers(min_value=2, max_value=3)
generated = settings(max_examples=60, deadline=None)


def witnesses(report):
    return (report.subject, report.checks,
            [(f.check, f.indices, str(f.lhs), str(f.rhs)) for f in report.failures])


def draw_tensor(data, field, d0, d1, d2):
    return [[data.draw(raw_values(field, d2)) for _ in range(d1)] for _ in range(d0)]


def draw_map(data, field, rows, cols):
    return LinearMap(field, rows, cols, tuple(
        tuple(map(field.scalar, data.draw(raw_values(field, cols))))
        for _ in range(rows)))


def draw_algebra(data, field, name):
    n = data.draw(dims)
    return LieAlgebra(name, field, n, draw_tensor(data, field, n, n, n))


def draw_module(data, field, name="X"):
    m_alg = draw_algebra(data, field, f"{name}_m")
    p_alg = draw_algebra(data, field, f"{name}_p")
    action = LieAction(p_alg, m_alg,
                       draw_tensor(data, field, p_alg.dim, m_alg.dim, m_alg.dim))
    return CrossedModule(name, m_alg, p_alg,
                         draw_map(data, field, p_alg.dim, m_alg.dim), action)


def draw_morphism(data, field):
    src, dst = draw_module(data, field, "X"), draw_module(data, field, "Y")
    return CrossedMorphism(
        src, dst,
        draw_map(data, field, dst.m_algebra.dim, src.m_algebra.dim),
        draw_map(data, field, dst.p_algebra.dim, src.p_algebra.dim))


fields = st.sampled_from(PARITY_FIELDS)


def sample(rng, results, k=2):
    """k random items of a lazy result, building only those."""
    return [results[i] for i in rng.sample(range(len(results)), min(k, len(results)))]


class TestGeneratedInputs:
    @generated
    @given(st.data())
    def test_lie_algebra(self, data):
        algebra = draw_algebra(data, data.draw(fields), "L")
        assert witnesses(validate_lie_algebra(algebra)) \
            == witnesses(reference.lie_algebra(algebra))

    @generated
    @given(st.data())
    def test_action(self, data):
        action = draw_module(data, data.draw(fields)).action
        assert witnesses(validate_action(action)) == witnesses(reference.action(action))

    @generated
    @given(st.data())
    def test_crossed_module(self, data):
        xmod = draw_module(data, data.draw(fields))
        assert witnesses(validate_crossed_module(xmod)) \
            == witnesses(reference.crossed_module(xmod))

    @generated
    @given(st.data())
    def test_lie_morphism(self, data):
        field = data.draw(fields)
        dom, cod = draw_algebra(data, field, "L"), draw_algebra(data, field, "K")
        f = draw_map(data, field, cod.dim, dom.dim)
        assert witnesses(is_lie_morphism(f, dom, cod)) \
            == witnesses(reference.lie_morphism(f, dom, cod))

    @generated
    @given(st.data())
    def test_crossed_morphism(self, data):
        phi = draw_morphism(data, data.draw(fields))
        assert witnesses(validate_crossed_morphism(phi)) \
            == witnesses(reference.crossed_morphism(phi))

    @generated
    @given(st.data())
    def test_f0_derivation(self, data):
        field = data.draw(fields)
        f = draw_morphism(data, field)
        d = draw_map(data, field, f.target.m_algebra.dim, f.source.p_algebra.dim)
        assert witnesses(is_f0_derivation(d, f)) == witnesses(reference.f0_derivation(d, f))


class TestBatteryInputs:
    """Valid modules, and the morphisms and derivations enumerated between
    them in random bases, where almost every check passes."""

    @pytest.mark.parametrize("p", [2, 5])
    def test_valid_inputs_match_reference(self, p):
        rng = random.Random(p)
        pool = [battery.change_basis(x, 300 + k)
                for k, x in enumerate(battery.battery_modules(p))]
        for x in pool:
            assert witnesses(validate_lie_algebra(x.m_algebra)) \
                == witnesses(reference.lie_algebra(x.m_algebra))
            assert witnesses(validate_lie_algebra(x.p_algebra)) \
                == witnesses(reference.lie_algebra(x.p_algebra))
            assert witnesses(validate_action(x.action)) \
                == witnesses(reference.action(x.action))
            assert witnesses(validate_crossed_module(x)) \
                == witnesses(reference.crossed_module(x))
        for x, y in rng.sample([(x, y) for x in pool for y in pool], 12):
            objects = enumerate_morphisms(x, y)
            for f in sample(rng, objects):
                assert witnesses(validate_crossed_morphism(f)) \
                    == witnesses(reference.crossed_morphism(f))
                for h in sample(rng, enumerate_derivations(f)):
                    assert witnesses(is_f0_derivation(h.d, f)) \
                        == witnesses(reference.f0_derivation(h.d, f))



def adjoint_module(algebra, boundary, name="A"):
    """algebra acting on itself by its bracket, with the given boundary."""
    return CrossedModule(name, algebra, algebra, boundary, LieAction.adjoint(algebra))


def validator_pairs(f_map, algebra, phi, d, base, xmod):
    """(library report, reference report) for every validator with a fast
    path: f_map as an endomorphism of algebra, phi, d at base, xmod."""
    return [
        (is_lie_morphism(f_map, algebra, algebra),
         reference.lie_morphism(f_map, algebra, algebra)),
        (validate_crossed_morphism(phi), reference.crossed_morphism(phi)),
        (is_f0_derivation(d, base), reference.f0_derivation(d, base)),
        (validate_crossed_module(xmod), reference.crossed_module(xmod)),
    ]


def passing_inputs(x):
    """Inputs that pass whatever x's tensors are: the identity map of x's base
    algebra, x's identity morphism, the zero derivation at it and the adjoint
    module of x's base algebra with the identity boundary."""
    field, p_alg = x.field, x.p_algebra
    ident, phi = LinearMap.identity(field, p_alg.dim), identity_morphism(x)
    return (ident, p_alg, phi, LinearMap.zero(field, x.m_algebra.dim, p_alg.dim),
            phi, adjoint_module(p_alg, ident))


def nonzero(field):
    if field.is_prime_field:
        return st.integers(min_value=1, max_value=field.p - 1)
    return st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1),
                     st.integers(1, 6))


def bumped(data, m):
    """m with one drawn entry changed by a nonzero amount (m if it has none)."""
    if not m.rows * m.cols:
        return m
    r = data.draw(st.integers(0, m.rows - 1))
    c = data.draw(st.integers(0, m.cols - 1))
    rows = [list(row) for row in m.entries]
    rows[r][c] = rows[r][c] + m.field.scalar(data.draw(nonzero(m.field)))
    return LinearMap(m.field, m.rows, m.cols, tuple(map(tuple, rows)))


def draw_lower_algebra(data, field, name="L"):
    """An algebra of dimension 1 to 3 bracketing only e_i with e_j for i >= j:
    not antisymmetric, so the i < j pairs alone see nothing of it."""
    n = data.draw(st.integers(min_value=1, max_value=3))
    return LieAlgebra(name, field, n, [
        [data.draw(raw_values(field, n)) if i >= j else [0] * n for j in range(n)]
        for i in range(n)])


class TestNearMisses:
    @generated
    @given(st.data())
    def test_passing_inputs(self, data):
        x = draw_module(data, data.draw(fields))
        for report, expected in validator_pairs(*passing_inputs(x)):
            assert report.ok
            assert witnesses(report) == witnesses(expected)

    @generated
    @given(st.data())
    def test_one_entry_changed(self, data):
        x = draw_module(data, data.draw(fields))
        ident, p_alg, phi, d, _, adjoint = passing_inputs(x)
        f1_changed = CrossedMorphism(x, x, bumped(data, phi.f1), phi.f0)
        f0_changed = CrossedMorphism(x, x, phi.f1, bumped(data, phi.f0))
        pairs = [
            *validator_pairs(bumped(data, ident), p_alg, f1_changed, bumped(data, d),
                             phi, adjoint_module(p_alg, bumped(data, adjoint.boundary))),
            (validate_crossed_morphism(f0_changed),
             reference.crossed_morphism(f0_changed)),
            # The zero derivation, unchanged, at a changed morphism.
            (is_f0_derivation(d, f1_changed), reference.f0_derivation(d, f1_changed)),
        ]
        for report, expected in pairs:
            assert witnesses(report) == witnesses(expected)

    @generated
    @given(st.data())
    def test_failures_only_at_i_not_below_j(self, data):
        field = data.draw(fields)
        algebra = draw_lower_algebra(data, field)
        n = algebra.dim
        diag = LinearMap.from_rows(field, [
            [data.draw(raw_values(field, 1))[0] if i == j else 0 for j in range(n)]
            for i in range(n)])
        zero = LinearMap.zero(field, n, n)
        x = adjoint_module(algebra, LinearMap.identity(field, n))
        # d = diag at the zero morphism obeys the derivation law iff it is a
        # Lie morphism.
        pairs = validator_pairs(diag, algebra, CrossedMorphism(x, x, diag, diag),
                                diag, CrossedMorphism(x, x, zero, zero),
                                adjoint_module(algebra, diag))
        for report, expected in pairs:
            assert witnesses(report) == witnesses(expected)
            assert all(f.indices[0] >= f.indices[1] for f in report.failures)

    def test_scaled_identity_fails_only_on_the_diagonal(self):
        gf5 = FieldSpec.prime(5)
        line = LieAlgebra("line", gf5, 1, [[[1]]])
        twice = LinearMap.from_rows(gf5, [[2]])
        report = is_lie_morphism(twice, line, line)
        assert [(f.check, f.indices, str(f.lhs), str(f.rhs))
                for f in report.failures] == [("lie_morphism", (1, 1), "(2)", "(4)")]
        assert witnesses(report) == witnesses(reference.lie_morphism(twice, line, line))
        # The scan tests every ordered pair, so it drops the map too.
        assert 2 not in _kernels.scan_lie_morphisms(5, (1,), (1,), 1, 1, 0, 5)


class TestFastPath:
    """A passing input is decided on residues: no Vector is built."""

    @pytest.fixture
    def vectors_built(self, monkeypatch):
        built = []
        init = Vector.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(Vector, "__init__", counting)
        return built

    @pytest.fixture(scope="class")
    def passing(self):
        """A battery module in a random basis, an endomorphism with more than
        one derivation, a nonzero derivation d at it and its target g."""
        for k, x in enumerate(battery.battery_modules(5)):
            x = battery.change_basis(x, 400 + k)
            for f in enumerate_morphisms(x, x):
                found = enumerate_derivations(f)
                if len(found) > 1:
                    d = found[len(found) // 2].d
                    return x, f, d, shift_morphism(f, d)
        raise AssertionError("no battery endomorphism has a nonzero derivation")

    def test_passing_checks_build_no_vector(self, passing, vectors_built):
        x, f, d, g = passing
        reports = [validate_crossed_morphism(f), validate_crossed_morphism(g),
                   is_f0_derivation(d, f)]
        assert vectors_built == []
        assert all(report.ok for report in reports)
        expected = [reference.crossed_morphism(f), reference.crossed_morphism(g),
                    reference.f0_derivation(d, f)]
        assert list(map(witnesses, reports)) == list(map(witnesses, expected))
