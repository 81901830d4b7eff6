"""Exhaustive enumeration over prime fields, cross-checked against the
independent brute-force oracle."""

import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

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
    build_hom_groupoid,
    enumerate_derivations,
    enumerate_morphisms,
    identity_morphism,
)
from liecross.errors import (
    BudgetExceededError,
    FieldMismatchError,
    FiniteFieldRequiredError,
)
from liecross import _kernels, groupoid
from liecross.groupoid import _flat_structure

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
        br = _flat_structure(aff)
        total = 3 ** 4
        whole = _kernels.scan_lie_morphisms(3, br, br, 2, 2, 0, total)
        split = []
        for lo, hi in ((0, 17), (17, 50), (50, total)):
            split.extend(_kernels.scan_lie_morphisms(3, br, br, 2, 2, lo, hi))
        assert split == whole


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


def law_holds(p, rows, cols, dom_br, act, cod_br, index):
    """The scan_derivations law at one candidate, straight from its formula:
    D[e_i, e_j] = f0(e_i).D(e_j) - f0(e_j).D(e_i) + [D(e_i), D(e_j)] for all
    i < j, coordinate r; act=None is the zero action."""
    digits = []
    for _ in range(rows * cols):
        index, digit = divmod(index, p)
        digits.append(digit)
    digits.reverse()

    def d(r, c):
        return digits[r * cols + c]

    def acts(i, j, r):  # r-th coordinate of f0(e_i) . D(e_j)
        if act is None:
            return 0
        return sum(act[(i * rows + b) * rows + r] * d(b, j) for b in range(rows))

    for i in range(cols):
        for j in range(i + 1, cols):
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
