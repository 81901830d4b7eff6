"""Exhaustive enumeration over prime fields, cross-checked against the
independent brute-force oracle."""

import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from math import prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import battery
from battery import lines_module
import oracle_bruteforce as oracle
from liecross import (
    CrossedModule,
    FieldSpec,
    KERNEL_BACKEND,
    LieAction,
    LieAlgebra,
    LinearMap,
    Vector,
    build_hom_groupoid,
    enumerate_derivations,
    enumerate_morphisms,
    identity_morphism,
    inclusion_crossed_module,
    is_f0_derivation,
    validate_crossed_module,
    validate_crossed_morphism,
)
from liecross.errors import (
    BudgetExceededError,
    FieldMismatchError,
    FiniteFieldRequiredError,
)
from liecross import _kernels, algebras, groupoid

GF2 = FieldSpec.prime(2)
GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)


def flat(linear_map):
    return tuple(e.num for row in linear_map.entries for e in row)


def as_pairs(morphisms):
    return [(flat(m.f1), flat(m.f0)) for m in morphisms]


def oracle_xmod(x):
    """The oracle's raw tables for a crossed module."""
    def table(tensor, a, b, n):
        return tuple(tuple(tuple(tensor[i][j][k].num for k in range(n))
                           for j in range(b)) for i in range(a))
    m, p = x.m_algebra.dim, x.p_algebra.dim
    return oracle.Xmod(x.field.p, m, p,
                       table(x.m_algebra.structure, m, m, m),
                       table(x.p_algebra.structure, p, p, p),
                       table(x.action.tensor, p, m, m), flat(x.boundary))


def morphism_space(source, target):
    """Size of the (f1, f0) product space the oracle walks."""
    return source.field.p ** (target.m_algebra.dim * source.m_algebra.dim
                              + target.p_algebra.dim * source.p_algebra.dim)


class TestOracleParity:
    def test_x_aff_gf3_morphisms_match_exactly(self):
        ours = as_pairs(enumerate_morphisms(battery.x_aff(GF3),
                                            battery.x_aff(GF3)))
        aff = oracle.x_aff(3)
        assert ours == oracle.enumerate_morphisms(aff, aff)
        assert len(ours) == 15

    def test_x_triv_gf2_morphisms_match_exactly(self):
        ours = as_pairs(enumerate_morphisms(battery.x_triv(GF2),
                                            battery.x_triv(GF2)))
        triv = oracle.x_triv(2)
        assert ours == oracle.enumerate_morphisms(triv, triv)
        assert ours == [((0,), (0,)), ((1,), (1,))]

    def test_cross_module_morphisms_match(self):
        # X_aff -> X_triv over GF(3): split-filter-join against the direct
        # product-space scan.
        ours = as_pairs(enumerate_morphisms(battery.x_aff(GF3),
                                            battery.x_triv(GF3)))
        assert ours == oracle.enumerate_morphisms(oracle.x_aff(3),
                                                  oracle.x_triv(3))

    @pytest.mark.parametrize("m_dims, p_dims, expected", [
        # Source base P = 0 into a 1-dimensional base: the square forces f1 = 0.
        ((1, 1), (0, 1), [((0,), ())]),
        # Source M = 1 into a zero module: the square forces f0 = 0.
        ((1, 0), (1, 1), [((), (0,))]),
    ])
    def test_zero_dimensional_components_match_oracle(self, m_dims, p_dims,
                                                      expected):
        (m, m2), (p, p2) = m_dims, p_dims
        source, target = lines_module(GF5, m, p), lines_module(GF5, m2, p2)
        assert as_pairs(enumerate_morphisms(source, target)) \
            == oracle.enumerate_morphisms(oracle_xmod(source), oracle_xmod(target)) \
            == expected

    def test_derivations_match_at_every_object(self):
        xaff = battery.x_aff(GF3)
        aff = oracle.x_aff(3)
        for f in enumerate_morphisms(xaff, xaff):
            ours = [flat(h.d) for h in enumerate_derivations(f)]
            assert ours == oracle.enumerate_derivations(aff, aff, flat(f.f0))

    def test_documented_derivation_counts(self):
        xaff = battery.x_aff(GF3)
        by_a = {}
        for f in enumerate_morphisms(xaff, xaff):
            a = f.f0.entries[0][0].num
            by_a.setdefault(a, []).append(len(enumerate_derivations(f)))
        # a = 1 objects admit 9 derivations; a in {0, 2} admit 3.
        assert set(by_a[1]) == {9}
        assert set(by_a[0]) == set(by_a[2]) == {3}


class TestGeneratedJoinParity:
    """The residue join against the oracle on generated inputs: battery
    modules in seeded random bases and the zero-dimensional shapes, over
    GF(2) and GF(3), every source/target pair with a small product space."""

    @pytest.mark.parametrize("p, seed", [(2, 11), (3, 12)])
    def test_random_bases_match_oracle(self, p, seed):
        field = FieldSpec.prime(p)
        shapes = [(0, 0), (0, 1), (1, 0), (1, 1)]
        pool = battery.battery_modules(p) + [lines_module(field, m, q)
                                             for m, q in shapes]
        pool = [battery.change_basis(x, seed * 100 + k) for k, x in enumerate(pool)]
        pairs = [(a, b) for a in pool for b in pool if morphism_space(a, b) <= 1024]
        assert len(pairs) > 100
        for a, b in pairs:
            assert as_pairs(enumerate_morphisms(a, b)) \
                == oracle.enumerate_morphisms(oracle_xmod(a), oracle_xmod(b)), \
                (a.name, b.name)

    @pytest.mark.parametrize("p, seed", [(2, 21), (3, 22)])
    def test_derivations_at_random_morphisms_match_oracle(self, p, seed):
        # Up to two random non-identity morphisms per pair of battery modules
        # in random bases; over a hundred of them have a nonzero f0.
        rng = random.Random(seed)
        pool = [battery.change_basis(x, seed * 100 + k)
                for k, x in enumerate(battery.battery_modules(p))]
        nonzero = 0
        for a in pool:
            for b in pool:
                if morphism_space(a, b) > 1024 \
                        or p ** (b.m_algebra.dim * a.p_algebra.dim) > 729:
                    continue
                objects = [f for f in enumerate_morphisms(a, b)
                           if f != identity_morphism(a)]
                for f in rng.sample(objects, min(2, len(objects))):
                    assert [flat(h.d) for h in enumerate_derivations(f)] \
                        == oracle.enumerate_derivations(oracle_xmod(a), oracle_xmod(b),
                                                        flat(f.f0)), (a.name, b.name)
                    nonzero += not f.f0.is_zero()
        assert nonzero > 100

    def test_bucket_with_several_actions(self):
        # aff_on_plane has boundary 0, so every pair of Lie morphisms lands in
        # one bucket, and the f0 there act on the plane in many ways; the
        # equivariance verdict then splits that bucket.
        x = battery.change_basis(next(x for x in battery.battery_modules(3)
                                      if x.name == "aff_on_plane"), 7)
        ours = as_pairs(enumerate_morphisms(x, x))
        assert ours == oracle.enumerate_morphisms(oracle_xmod(x), oracle_xmod(x))
        zero, ident = (0, 0, 0, 0), (1, 0, 0, 1)
        with_zero = [f0 for f1, f0 in ours if f1 == zero]
        with_ident = [f0 for f1, f0 in ours if f1 == ident]
        assert with_ident and len(with_ident) < len(with_zero)


class TestEquivarianceRows:
    """Equivariance is compared only on the coordinates of M' that can carry
    a defect, the free columns of boundary''s echelon form, unless a module
    fails validate_crossed_module: then on all of them."""

    @pytest.mark.parametrize("p, seed", [(2, 31), (3, 32), (5, 33)])
    def test_partial_kernels_match_oracle(self, p, seed):
        # Targets whose boundary kernel is neither 0 nor all of M', among
        # the battery, in seeded random bases.
        field = FieldSpec.prime(p)
        partial = battery.partial_kernel_modules(field)
        pool = [battery.change_basis(x, seed * 100 + k)
                for k, x in enumerate(battery.battery_modules(p) + partial)]
        pairs = [(a, b) for a in pool for b in pool if morphism_space(a, b) <= 1024]
        names = {x.name for x in partial}
        checked = rejected = 0
        for a, b in pairs:
            ours = as_pairs(enumerate_morphisms(a, b))
            assert ours == oracle.enumerate_morphisms(oracle_xmod(a), oracle_xmod(b)), \
                (a.name, b.name)
            if b.name in names:
                checked += 1
                rejected += len(ours) < len(square_pairs(a, b))
        # Equivariance rejects a pair that passes the square on some of them.
        assert checked >= 9 and rejected >= 2

    @staticmethod
    def gate_breakers(field):
        """Modules with an injective boundary that break cm1, or whose P
        bracket does not alternate."""
        line = LieAlgebra.abelian("line", field, 1)
        scaling = CrossedModule("scaling", line, line, LinearMap.identity(field, 1),
                                LieAction.from_sparse(line, line, [(1, 1, {1: 1})]))
        # [e, e] = e: cm1 and cm2 hold for the adjoint action, and the scans
        # check the (1, 1) pair too, so f0 is a Lie morphism there.
        idem = LieAlgebra("idem", field, 1, (((1,),),))
        idempotent = CrossedModule("idempotent", idem, idem,
                                   LinearMap.identity(field, 1), LieAction.adjoint(idem))
        solver = algebras.span_solver

        def doubled(vectors, field, dim):
            solve = solver(vectors, field, dim)
            return lambda w: None if (c := solve(w)) is None else c + c

        aff = battery.affine2(field)
        with mock.patch.object(algebras, "span_solver", doubled), \
                mock.patch.object(algebras, "_verified", lambda xmod: xmod):
            doubled_ideal = inclusion_crossed_module(aff, [aff.basis(1)], name="doubled")
        return [scaling, idempotent, doubled_ideal]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gate_breakers_match_oracle(self, p):
        field = FieldSpec.prime(p)
        scaling, idempotent, doubled_ideal = self.gate_breakers(field)
        assert [validate_crossed_module(x).ok
                for x in (scaling, idempotent, doubled_ideal)] == [False, True, False]
        # idempotent's M bracket does not alternate either; the f1 scan
        # checks every ordered pair, so it needs no help from equivariance.
        pool = [scaling, doubled_ideal, battery.x_triv(field), battery.x_aff(field)]
        pairs = [(a, b) for a in pool for b in pool] + [(idempotent, idempotent)]
        rejected = 0
        for a, b in pairs:
            ours = as_pairs(enumerate_morphisms(a, b))
            assert ours == oracle.enumerate_morphisms(oracle_xmod(a), oracle_xmod(b)), \
                (a.name, b.name)
            rejected += len(ours) < len(square_pairs(a, b))
        assert rejected >= 4

    def test_injective_boundaries_build_no_action_matrix(self, monkeypatch):
        # With boundary' injective no equivariance row is left, so no action
        # matrix is built; a zero boundary still compares every row.
        calls = []
        real = groupoid._acting_matrix
        monkeypatch.setattr(groupoid, "_acting_matrix",
                            lambda *args: calls.append(args) or real(*args))
        modules = {x.name: x for x in battery.battery_modules(5)}
        inclusions = [x for name, x in modules.items() if "_ideal_" in name]
        assert len(inclusions) == 12 and "h3_ideal_8" in modules
        for x in inclusions:
            assert len(enumerate_morphisms(x, x)) > 0, x.name
        assert calls == []
        assert len(enumerate_morphisms(modules["aff_on_plane"],
                                       modules["aff_on_plane"])) > 0
        assert calls


def square_pairs(source, target):
    """The (f1, f0) pairs of Lie morphisms that pass the boundary square,
    whether or not they are equivariant, by the oracle's own checks on
    every ordered pair."""
    x, y = oracle_xmod(source), oracle_xmod(target)
    unacted = oracle.Xmod(x.p, x.m_dim, x.p_dim, x.m_br, x.p_br,
                          tuple(tuple((0,) * x.m_dim for _ in range(x.m_dim))
                                for _ in range(x.p_dim)), x.boundary)
    inert = oracle.Xmod(y.p, y.m_dim, y.p_dim, y.m_br, y.p_br,
                        tuple(tuple((0,) * y.m_dim for _ in range(y.m_dim))
                              for _ in range(y.p_dim)), y.boundary)
    return oracle.enumerate_morphisms(unacted, inert)


class TestLazyResults:
    """Enumerations return read-only sequences built on access."""

    def test_sequence_protocol_matches_the_eager_list(self):
        xaff = battery.x_aff(GF3)
        aff = oracle.x_aff(3)
        eager = oracle.enumerate_morphisms(aff, aff)
        found = enumerate_morphisms(xaff, xaff)
        assert isinstance(found, Sequence)
        assert len(found) == len(eager) == 15
        assert as_pairs(found) == eager
        assert as_pairs([found[-1], found[-15]]) == [eager[-1], eager[-15]]
        for cut in (slice(2, 9, 3), slice(None, None, -4), slice(-3, None),
                    slice(20, 30)):
            assert isinstance(found[cut], list)
            assert as_pairs(found[cut]) == eager[cut]
        assert as_pairs(reversed(found)) == eager[::-1]
        assert found.index(found[7]) == 7 and found[7] in found
        with pytest.raises(TypeError):
            found[0] = found[1]

        ders = enumerate_derivations(found[-1])
        expected = oracle.enumerate_derivations(aff, aff, flat(found[-1].f0))
        assert [flat(h.d) for h in ders] == expected
        assert [flat(h.d) for h in ders[1::2]] == expected[1::2]
        assert flat(ders[-1].d) == expected[-1]

    def test_items_are_built_once(self):
        xaff = battery.x_aff(GF3)
        found = enumerate_morphisms(xaff, xaff)
        first = found[4]
        assert found[4] is first and found[4 - len(found)] is first
        assert list(found)[4] is first and found[3:5][1] is first
        ders = enumerate_derivations(first)
        assert ders[-1] is ders[len(ders) - 1] is list(ders)[-1]

    @pytest.mark.parametrize("position", [15, -16, 100])
    def test_out_of_range_raises_index_error(self, position):
        xaff = battery.x_aff(GF3)
        found = enumerate_morphisms(xaff, xaff)
        with pytest.raises(IndexError):
            found[position]
        ders = enumerate_derivations(found[0])
        with pytest.raises(IndexError):
            ders[position]

    def test_unaccessed_results_build_nothing(self, monkeypatch):
        built = {"morphisms": 0, "derivations": 0}

        def counting(cls, key):
            def make(*args):
                built[key] += 1
                return cls(*args)
            return make

        monkeypatch.setattr(groupoid, "CrossedMorphism",
                            counting(groupoid.CrossedMorphism, "morphisms"))
        monkeypatch.setattr(groupoid, "Derivation",
                            counting(groupoid.Derivation, "derivations"))
        xaff = battery.x_aff(GF3)
        found = enumerate_morphisms(xaff, xaff)
        ders = enumerate_derivations(identity_morphism(xaff))
        assert len(found) == 15 and len(ders) == 9
        assert built == {"morphisms": 0, "derivations": 0}
        assert found[-1] is found[-1] and ders[2] is ders[2]
        assert built == {"morphisms": 1, "derivations": 1}
        assert list(found) == list(found)
        assert built == {"morphisms": 15, "derivations": 1}

    def test_derivations_decode_only_the_survivors_read(self, monkeypatch):
        # h3 acting on itself has 15,625 derivations at the identity over
        # GF(5); a caller that reads ten of them decodes ten.
        decoded = []
        make = groupoid._row_decoder

        def counting(*args):
            rows_of = make(*args)

            def decode(index):
                decoded.append(index)
                return rows_of(index)
            return decode

        monkeypatch.setattr(groupoid, "_row_decoder", counting)
        h3 = battery.heisenberg3(GF5)
        adjoint = inclusion_crossed_module(h3, h3.basis_vectors())
        ders = enumerate_derivations(identity_morphism(adjoint))
        assert len(ders) == 15_625 and decoded == []
        first = ders[:10]
        assert len(decoded) == len(set(decoded)) == 10
        assert ders[:10] == first and len(decoded) == 10

    def test_equal_matrices_in_a_result_are_one_map(self):
        # With M = 0 every morphism has the same empty f1.
        line = lines_module(GF3, 0, 1)
        found = enumerate_morphisms(line, line)
        assert len(found) == 3 and all(f.f1 is found[0].f1 for f in found)
        xaff = battery.x_aff(GF3)
        found = enumerate_morphisms(xaff, xaff)
        arrows = build_hom_groupoid(xaff, xaff).arrows
        f1s = [f.f1 for f in found]
        ds = [a.derivation.d for a in arrows]
        assert len(set(f1s)) < len(f1s) and len(set(ds)) < len(ds)
        for maps in (f1s, [f.f0 for f in found], ds,
                     [h.d for h in enumerate_derivations(found[0])]):
            assert len({id(m) for m in maps}) == len(set(maps))


class TestOrderingAndDeterminism:
    def test_results_in_odometer_order(self):
        ms = enumerate_morphisms(battery.x_aff(GF3), battery.x_aff(GF3))
        keys = [flat(m.f1) + flat(m.f0) for m in ms]
        assert keys == sorted(keys)

    def test_repeat_runs_identical(self):
        args = (battery.x_aff(GF3), battery.x_aff(GF3))
        assert as_pairs(enumerate_morphisms(*args)) \
            == as_pairs(enumerate_morphisms(*args))

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_invisible(self, workers):
        xaff = battery.x_aff(GF3)
        base = enumerate_morphisms(xaff, xaff, workers=1)
        assert as_pairs(enumerate_morphisms(xaff, xaff, workers=workers)) \
            == as_pairs(base)
        ident = identity_morphism(xaff)
        assert [flat(h.d) for h in enumerate_derivations(ident, workers=workers)] \
            == [flat(h.d) for h in enumerate_derivations(ident, workers=1)]

    def test_zero_dimensional_module_has_empty_morphism(self):
        nil = LieAlgebra.abelian("nil", GF3, 0)
        empty = CrossedModule("empty", nil, nil,
                              LinearMap.zero(GF3, 0, 0),
                              LieAction.zero(nil, nil))
        ms = enumerate_morphisms(empty, empty)
        assert len(ms) == 1
        assert ms[0].f1.rows == 0 and ms[0].f0.rows == 0
        assert len(enumerate_derivations(ms[0])) == 1


class TestGuards:
    def test_rational_fields_rejected(self):
        xq = battery.x_aff(FieldSpec.rational())
        with pytest.raises(FiniteFieldRequiredError, match="finite field required"):
            enumerate_morphisms(xq, xq)
        with pytest.raises(FiniteFieldRequiredError):
            enumerate_derivations(identity_morphism(xq))

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            enumerate_morphisms(battery.x_aff(GF3), battery.x_aff(GF5))

    def test_budget_guard(self):
        xaff = battery.x_aff(GF5)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_morphisms(xaff, xaff, budget=10)
        assert "625" in str(err.value)
        ident = identity_morphism(xaff)
        with pytest.raises(BudgetExceededError):
            enumerate_derivations(ident, budget=3)

    def test_budget_boundary_is_inclusive(self):
        xaff = battery.x_aff(GF3)
        assert len(enumerate_morphisms(xaff, xaff, budget=81)) == 15


class TestKernelBackends:
    def test_active_backend_is_reported(self):
        assert KERNEL_BACKEND == "pure"

    def test_scans_are_looked_up_at_call_time(self, monkeypatch):
        # Tracers patch the kernels on the module, so enumerations must reach
        # them through it, with the whole range as the trailing (start, stop).
        calls = []

        def recording(name):
            kernel = getattr(_kernels, name)

            def wrapper(*args):
                calls.append((name, args[-2:]))
                return kernel(*args)
            return wrapper

        for name in ("scan_lie_morphisms", "scan_derivations"):
            monkeypatch.setattr(_kernels, name, recording(name))
        groupoid._lie_morphism_scan.cache_clear()
        p = 3
        xaff = battery.x_aff(GF3)
        objects = enumerate_morphisms(xaff, xaff)
        # f1: span_e2 -> span_e2 is 1x1, f0: affine2 -> affine2 is 2x2.
        assert sorted(calls) == [("scan_lie_morphisms", (0, p ** 1)),
                                 ("scan_lie_morphisms", (0, p ** 4))]
        calls.clear()
        derivations = enumerate_derivations(objects[0])
        # d: affine2 -> span_e2 is 1x2.
        assert calls == [("scan_derivations", (0, p ** 2))]
        assert derivations

    @staticmethod
    def _h3_oracle(p):
        """h3 ([x, y] = z) acting on itself by the adjoint action."""
        z = (0, 0, 0)
        br = ((z, (0, 0, 1), z), ((0, 0, p - 1), z, z), (z, z, z))
        return oracle.Xmod(p, 3, 3, br, br, br, (1, 0, 0, 0, 1, 0, 0, 0, 1))

    @staticmethod
    def _oracle_act_table(x, f0):
        """act[(i*n + b)*n + r] = r-th coordinate of f0(e_i) . e_b."""
        n = x.m_dim
        table = []
        for i in range(x.p_dim):
            image = oracle.column(f0, x.p_dim, x.p_dim, i)
            for b in range(n):
                table.extend(oracle.bilinear(x.p, x.action, image,
                                             oracle.basis(n, b), n))
        return tuple(table)

    @pytest.mark.parametrize("f0", [
        (1, 0, 0, 0, 1, 0, 0, 0, 1),  # identity: the adjoint action table
        (2, 0, 0, 1, 1, 0, 0, 1, 2),  # x -> 2x + y, y -> y + z, z -> 2z
    ])
    def test_pruned_derivation_scan_matches_oracle(self, f0):
        p = 3
        x = self._h3_oracle(p)
        expected = []
        for d in oracle.enumerate_derivations(x, x, f0):
            index = 0
            for digit in d:
                index = index * p + digit
            expected.append(index)
        br = tuple(c for row in x.p_br for cell in row for c in cell)
        args = (p, br, self._oracle_act_table(x, f0), br, 3, 3)
        total = p ** 9
        assert _kernels.scan_derivations(*args, 0, total) == expected

        # Cut points inside the widest gaps between survivors, which the walk
        # covers by cutting failing prefixes short: every range starting and
        # stopping there, and the partition at all of them.
        bounds = [-1] + expected + [total]
        gaps = sorted(zip(bounds, bounds[1:]), key=lambda g: g[0] - g[1])[:4]
        cuts = sorted({a + (b - a) // 3 for a, b in gaps}
                      | {b - (b - a) // 3 for a, b in gaps})
        for lo in cuts:
            for hi in cuts:
                if lo <= hi:
                    assert _kernels.scan_derivations(*args, lo, hi) \
                        == [i for i in expected if lo <= i < hi]
        edges = [0] + cuts + [total]
        split = []
        for lo, hi in zip(edges, edges[1:]):
            split.extend(_kernels.scan_derivations(*args, lo, hi))
        assert split == expected

    def test_range_partition_is_seamless(self):
        aff = battery.affine2(GF3)
        br = aff._numbers
        total = 3 ** 4
        whole = _kernels.scan_lie_morphisms(3, br, br, 2, 2, 0, total)
        split = []
        for lo, hi in ((0, 17), (17, 50), (50, total)):
            split.extend(_kernels.scan_lie_morphisms(3, br, br, 2, 2, lo, hi))
        assert split == whole


class TestNonAlternatingTables:
    """Both enumerations on brackets that do not alternate, built through the
    Python API (a document fills in the antisymmetric half), against the
    oracle, which checks every ordered pair; every item also validates."""

    @staticmethod
    def assert_match_oracle(a, b):
        ours = enumerate_morphisms(a, b)
        assert as_pairs(ours) == oracle.enumerate_morphisms(oracle_xmod(a),
                                                            oracle_xmod(b))
        for f in ours:
            assert validate_crossed_morphism(f).ok
            found = enumerate_derivations(f)
            assert [flat(h.d) for h in found] == oracle.enumerate_derivations(
                oracle_xmod(a), oracle_xmod(b), flat(f.f0))
            assert all(is_f0_derivation(h.d, f).ok for h in found)
        return ours

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_idempotent_line_matches_oracle(self, p):
        # [e, e] = e as M or as P, an abelian line as the other, zero
        # boundary and action: f(e) = a e is a Lie morphism of [e, e] = e
        # only for a = a^2, and a derivation d only for d = 0.
        field = FieldSpec.prime(p)
        idem = LieAlgebra("idem", field, 1, (((1,),),))
        line = LieAlgebra.abelian("line", field, 1)
        for m, q in ((idem, line), (line, idem)):
            x = CrossedModule("x", m, q, LinearMap.zero(field, 1, 1),
                              LieAction.from_sparse(q, m, []))
            ours = self.assert_match_oracle(x, x)
            assert len(ours) == 2 * p
            assert all(len(enumerate_derivations(f)) == 1 for f in ours)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_generated_tables_match_oracle(self, data):
        # Brackets of e_i with e_j for i >= j only.  A module is either two
        # such algebras with zero boundary and action, or one acting on
        # itself by its bracket with the identity boundary: that one passes
        # validate_crossed_module, so between two of them no equivariance
        # row is compared.
        p = data.draw(st.sampled_from([2, 3, 5]))
        field = FieldSpec.prime(p)

        def lower(name, n):
            return LieAlgebra(name, field, n, [
                [data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
                 if i >= j else [0] * n for j in range(n)] for i in range(n)])

        def module(name):
            m = data.draw(st.integers(1, 2 if p < 5 else 1))
            if data.draw(st.booleans()):
                alg = lower(name, m)
                return CrossedModule(name, alg, alg, LinearMap.identity(field, m),
                                     LieAction.adjoint(alg))
            q = data.draw(st.integers(1, 2 if p < 5 else 1))
            m_alg, p_alg = lower(name + "_m", m), lower(name + "_p", q)
            return CrossedModule(name, m_alg, p_alg, LinearMap.zero(field, q, m),
                                 LieAction.from_sparse(p_alg, m_alg, []))

        a, b = module("a"), module("b")
        assume(morphism_space(a, b) <= 729)
        self.assert_match_oracle(a, b)


@st.composite
def scan_inputs(draw):
    """(p, rows, cols, dom_br, act, cod_br, start, stop) with at most 1024
    candidates: arbitrary residue tables, neither antisymmetric nor from an
    action, act=None included, and any range 0 <= start <= stop <= p^n."""
    p = draw(st.sampled_from([2, 3, 5]))
    most = {2: 10, 3: 6, 5: 4}[p]  # digit positions with p^n <= 1024
    cols = draw(st.integers(0, min(8, most)))
    rows = draw(st.integers(0, 8 if cols == 0 else min(8, most // cols)))
    if p == 2:
        rows, cols = draw(st.sampled_from([(rows, cols), (1, 8), (8, 1)]))

    # Zero-heavy entries leave more survivors than uniform ones.
    entries = st.integers(0, p - 1) | st.just(0)

    def table(n):
        return tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    dom_br, cod_br = table(cols ** 3), table(rows ** 3)
    act = None if draw(st.booleans()) else table(cols * rows * rows)
    total = p ** (rows * cols)
    cut = st.lists(st.integers(0, total), min_size=2, max_size=2).map(sorted)
    start, stop = draw(st.just([0, total]) | cut)
    return p, rows, cols, dom_br, act, cod_br, start, stop


def candidate_digits(p, n, index):
    """The n base-p digits of a candidate index, most significant first."""
    digits = []
    for _ in range(n):
        index, digit = divmod(index, p)
        digits.append(digit)
    return digits[::-1]


def law_holds(p, rows, cols, dom_br, act, cod_br, index):
    """The scan_derivations law at one candidate, straight from its formula:
    D[e_i, e_j] = f0(e_i).D(e_j) - f0(e_j).D(e_i) + [D(e_i), D(e_j)] for
    every ordered pair (i, j), coordinate r; act=None is the zero action."""
    digits = candidate_digits(p, rows * cols, index)

    def d(r, c):
        return digits[r * cols + c]

    def acts(i, j, r):  # r-th coordinate of f0(e_i) . D(e_j)
        if act is None:
            return 0
        return sum(act[(i * rows + b) * rows + r] * d(b, j) for b in range(rows))

    for i in range(cols):
        for j in range(cols):
            for r in range(rows):
                lhs = sum(dom_br[(i * cols + j) * cols + k] * d(r, k)
                          for k in range(cols))
                rhs = (acts(i, j, r) - acts(j, i, r)
                       + sum(d(a, i) * d(b, j) * cod_br[(a * rows + b) * rows + r]
                             for a in range(rows) for b in range(rows)))
                if (lhs - rhs) % p:
                    return False
    return True


class TestScanProperty:
    @settings(max_examples=150, deadline=None)
    @given(scan_inputs())
    # The walk's branches, one example each.  [e, e] = e on both sides: the
    # one constraint at the digit, d - d^2, is quadratic in it.
    @example((5, 1, 1, (1,), None, (1,), 0, 5))
    # [e0, e1] = e0 + e1 and [e1, e0] = 2e0 + e1 into an abelian line: at
    # d1, d0 + d1 = 0 and 2d0 + d1 = 0 pin different values unless d0 = 0.
    @example((5, 1, 2, (0, 0, 1, 1, 2, 1, 0, 0), None, (0,), 0, 25))
    # An abelian plane into [e0, e1] = 3e1: at d3 the constraint
    # d0*d3 - d1*d2 has slope d0, zero at d0 = 0 while d1*d2 need not be.
    @example((5, 2, 2, (0,) * 8, None, (0, 0, 0, 3, 0, 2, 0, 0), 0, 625))
    # Only d0 is constrained (d0 = 0), so d1 is a free tail, cut at 1 and 2.
    @example((3, 1, 2, (1, 0, 0, 0, 0, 0, 0, 0), None, (0,), 1, 2))
    # Char 2, dim 0: the one empty matrix, with an action.
    @example((2, 2, 0, (), (), (0, 1, 1, 0, 1, 0, 0, 1), 0, 1))
    def test_scans_match_candidate_by_candidate_law(self, inputs):
        p, rows, cols, dom_br, act, cod_br, start, stop = inputs
        expected = [k for k in range(start, stop)
                    if law_holds(p, rows, cols, dom_br, act, cod_br, k)]
        assert _kernels.scan_derivations(p, dom_br, act, cod_br, rows, cols,
                                         start, stop) == expected
        lie = [k for k in range(start, stop)
               if law_holds(p, rows, cols, dom_br, None, cod_br, k)]
        assert _kernels.scan_lie_morphisms(p, dom_br, cod_br, rows, cols,
                                           start, stop) == lie
        # Law.holds reads the Law the walk reads, and agrees with it at
        # every candidate.
        for law_act, kept in ((act, expected), (None, lie)):
            law = _kernels.Law(p, rows * cols, _kernels.derivation_law(
                dom_br, law_act, cod_br, rows, cols))
            assert [k for k in range(start, stop)
                    if law.holds(candidate_digits(p, rows * cols, k))] == kept


def heisenberg_endomorphisms(p):
    """The Lie endomorphisms of h3 over GF(p), row-major, ascending by index.

    [F x, F y] = (F00 F11 - F01 F10) z must equal F[x, y] = F z, so
    F02 = F12 = 0 and F22 = F00 F11 - F01 F10, and the other six entries
    are free: p^6 of the p^9 candidates.
    """
    return [(f00, f01, 0, f10, f11, 0, f20, f21, (f00 * f11 - f01 * f10) % p)
            for f00, f01, f10, f11, f20, f21 in product(range(p), repeat=6)]


def candidate_index(p, entries):
    index = 0
    for e in entries:
        index = index * p + e
    return index


class TestHeisenbergEndomorphisms:
    """The Lie-morphism scan of h3 against its closed form, at 5^9
    candidates, beyond the brute-force oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_standard_basis(self, p):
        h3 = battery.heisenberg3(FieldSpec.prime(p))._numbers
        assert _kernels.scan_lie_morphisms(p, h3, h3, 3, 3, 0, p ** 9) \
            == [candidate_index(p, f) for f in heisenberg_endomorphisms(p)]

    @pytest.mark.parametrize("seed", [7, 101])
    def test_random_bases_conjugate(self, seed):
        # change_basis draws the new basis C of M first, from the seed, and
        # writes M's bracket in it; its endomorphisms are C^-1 F C.
        h3 = battery.change_basis(
            battery.h3_over_abelianization(GF5), seed).m_algebra._numbers
        c = battery._random_invertible(GF5, 3, random.Random(seed))
        c_inv = LinearMap.from_columns(
            GF5, [c.solve(Vector.basis(GF5, 3, i)) for i in range(3)])
        right, left = flat(c), flat(c_inv)

        def conjugate(f):
            fc = [sum(f[3 * r + k] * right[3 * k + j] for k in range(3))
                  for r in range(3) for j in range(3)]
            return [sum(left[3 * r + k] * fc[3 * k + j] for k in range(3)) % 5
                    for r in range(3) for j in range(3)]
        found = _kernels.scan_lie_morphisms(5, h3, h3, 3, 3, 0, 5 ** 9)
        assert len(found) == 5 ** 6
        assert set(found) == {candidate_index(5, conjugate(f))
                              for f in heisenberg_endomorphisms(5)}


def multiple(p, terms, k):
    """k times a constraint, its monomials in reverse order and each
    bilinear monomial's positions swapped."""
    return [(c * k % p if p else c * k, positions[::-1])
            for c, positions in reversed(terms)]


class TestDistinctConstraints:
    """Constraints are filed once each, up to a nonzero multiple."""

    @settings(max_examples=100, deadline=None)
    @given(scan_inputs(), st.data())
    def test_multiples_file_nothing_new(self, inputs, data):
        p, rows, cols, dom_br, act, cod_br, _, _ = inputs
        if data.draw(st.booleans()):  # over QQ, on Fractions
            p = None
            dom_br, cod_br = tuple(map(Fraction, dom_br)), tuple(map(Fraction, cod_br))
            act = act and tuple(map(Fraction, act))
        alone = list(_kernels.derivation_law(dom_br, act, cod_br, rows, cols))
        factors = (st.integers(1, p - 1) if p
                   else st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                  st.integers(1, 6)))
        repeated = [c for terms in alone
                    for c in (terms, multiple(p, terms, data.draw(factors)))]
        size = rows * cols
        law = _kernels.Law(p, size, alone)
        assert _kernels.Law(p, size, repeated).at == law.at
        if p is None:
            # holds is True exactly where every raw constraint vanishes;
            # zero-heavy points, so that points off zero pass too.
            values = st.sampled_from([0] * 6 + [1, -1, Fraction(1, 2)]).map(Fraction)
            for _ in range(3):
                x = data.draw(st.lists(values, min_size=size, max_size=size))
                assert law.holds(x) == all(
                    sum(c * prod(map(x.__getitem__, positions))
                        for c, positions in terms) == 0
                    for terms in alone)

    @settings(max_examples=100, deadline=None)
    @given(scan_inputs(), st.data())
    def test_alternating_tables_file_the_pairs_i_below_j(self, inputs, data):
        p, rows, cols, _, act, _, _, _ = inputs

        def alternating(n):
            table = [0] * n ** 3
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        c = data.draw(st.integers(0, p - 1))
                        table[(i * n + j) * n + k] = c
                        table[(j * n + i) * n + k] = -c % p
            return tuple(table)
        dom_br, cod_br = alternating(cols), alternating(rows)
        # derivation_law's constraint (i, j, r) comes at index
        # (i * cols + j) * rows + r.
        law = list(_kernels.derivation_law(dom_br, act, cod_br, rows, cols))
        below = [terms for n, terms in enumerate(law)
                 if n // rows // cols < n // rows % cols]
        assert _kernels.Law(p, rows * cols, below).at \
            == _kernels.Law(p, rows * cols, law).at
