"""Every validator against the nested-loop reference in scalar_reference.

Generated inputs over QQ, GF(2) and GF(5): random structure and action
tensors, boundaries, maps and derivations of dimensions 0 to 3, almost all
of which break some law, plus the battery's valid modules, morphisms and
derivations.  The subject, the checks and every failure (check, indices and
both sides as printed) must agree with the reference, in order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import battery
import scalar_reference as reference
from battery import PARITY_FIELDS, raw_values
from liecross import (
    CrossedModule,
    CrossedMorphism,
    LieAction,
    LieAlgebra,
    LinearMap,
    enumerate_derivations,
    enumerate_morphisms,
    is_f0_derivation,
    is_lie_morphism,
    validate_action,
    validate_crossed_module,
    validate_crossed_morphism,
    validate_lie_algebra,
)

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

