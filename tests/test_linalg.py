"""Vectors, exact linear maps, solving, and span coordinates."""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from battery import PARITY_FIELDS, numbers, raw_values, reduced, spellings
from liecross import FieldSpec, LinearMap, Scalar, Vector
from liecross.documents import _matrix_doc
from liecross.errors import FieldMismatchError, ShapeMismatchError
from liecross.fields import same_field

QQ = FieldSpec.rational()
GF3 = FieldSpec.prime(3)

residue = st.integers(min_value=0, max_value=2)
dims = st.integers(min_value=0, max_value=3)


def raw_matrix(data, field, rows, cols):
    return [data.draw(raw_values(field, cols)) for _ in range(rows)]


def make_map(field, raw, rows, cols):
    return LinearMap(field, rows, cols,
                     tuple(tuple(field.scalar(v) for v in row) for row in raw))


def vec3(values):
    return Vector.make(GF3, values)


class TestVector:
    def test_factories(self):
        assert Vector.zero(QQ, 3).is_zero()
        e1 = Vector.basis(QQ, 3, 0)
        assert [s.num for s in e1.entries] == [1, 0, 0]
        assert e1.dim == 3

    def test_arithmetic(self):
        a, b = vec3([1, 2, 0]), vec3([2, 2, 1])
        assert a + b == vec3([0, 1, 1])
        assert a - b == vec3([2, 0, 2])
        assert -a == vec3([2, 1, 0])
        assert a.scale(GF3.scalar(2)) == vec3([2, 1, 0])

    def test_shape_and_field_checks(self):
        with pytest.raises(ShapeMismatchError):
            vec3([1, 2]) + vec3([1, 2, 0])
        with pytest.raises(FieldMismatchError):
            Vector.make(QQ, [1]) + Vector.make(GF3, [1])

    @given(st.lists(residue, min_size=3, max_size=3),
           st.lists(residue, min_size=3, max_size=3))
    def test_group_laws(self, xs, ys):
        a, b = vec3(xs), vec3(ys)
        assert a + b == b + a
        assert a - a == Vector.zero(GF3, 3)
        assert a + Vector.zero(GF3, 3) == a


class TestLinearMap:
    def test_factories_and_shape(self):
        m = LinearMap.from_rows(QQ, [["1/2", 0], [3, 1]])
        assert (m.rows, m.cols) == (2, 2)
        assert LinearMap.identity(QQ, 2).apply(Vector.make(QQ, [4, 5])) \
            == Vector.make(QQ, [4, 5])
        assert LinearMap.zero(QQ, 2, 3).is_zero()
        with pytest.raises(ShapeMismatchError):
            LinearMap.from_rows(QQ, [[1, 2], [3]])

    def test_from_columns_matches_column(self):
        cols = [vec3([1, 0]), vec3([2, 1]), vec3([0, 1])]
        m = LinearMap.from_columns(GF3, cols, rows=2)
        assert m.columns() == cols
        assert m.column(1) == cols[1]

    def test_from_columns_infers_rows(self):
        cols = [vec3([1, 0]), vec3([2, 1])]
        assert LinearMap.from_columns(GF3, cols) \
            == LinearMap.from_columns(GF3, cols, rows=2)
        with pytest.raises(ShapeMismatchError, match="empty map"):
            LinearMap.from_columns(GF3, [])

    def test_apply_is_linear(self):
        m = LinearMap.from_rows(GF3, [[1, 2], [0, 1]])
        a, b = vec3([1, 1]), vec3([2, 0])
        assert m.apply(a + b) == m.apply(a) + m.apply(b)

    def test_compose_is_matrix_product(self):
        f = LinearMap.from_rows(GF3, [[1, 1], [0, 1]])
        g = LinearMap.from_rows(GF3, [[0, 1], [1, 0]])
        v = vec3([1, 2])
        assert f.compose(g).apply(v) == f.apply(g.apply(v))
        with pytest.raises(ShapeMismatchError):
            f.compose(LinearMap.zero(GF3, 3, 3))

    @given(st.data())
    def test_apply_matches_reference(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        rows, cols = data.draw(dims), data.draw(dims)
        a = raw_matrix(data, field, rows, cols)
        x = data.draw(raw_values(field, cols))
        got = make_map(field, a, rows, cols).apply(Vector.make(field, x))
        want = [sum(a[r][k] * x[k] for k in range(cols)) for r in range(rows)]
        assert numbers(field, got.entries) == reduced(field, want)

    @given(st.data())
    def test_compose_matches_reference(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        rows, inner, cols = data.draw(dims), data.draw(dims), data.draw(dims)
        a = raw_matrix(data, field, rows, inner)
        b = raw_matrix(data, field, inner, cols)
        got = make_map(field, a, rows, inner).compose(make_map(field, b, inner, cols))
        assert (got.rows, got.cols) == (rows, cols)
        for r in range(rows):
            want = [sum(a[r][k] * b[k][c] for k in range(inner)) for c in range(cols)]
            assert numbers(field, got.entries[r]) == reduced(field, want)

    def test_additive_ops(self):
        f = LinearMap.from_rows(GF3, [[1, 1], [0, 1]])
        g = LinearMap.from_rows(GF3, [[2, 0], [1, 1]])
        assert f + g == LinearMap.from_rows(GF3, [[0, 1], [1, 2]])
        assert f - f == LinearMap.zero(GF3, 2, 2)
        assert -f == LinearMap.from_rows(GF3, [[2, 2], [0, 2]])

    @given(st.data())
    def test_difference_is_one_map(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        rows, cols = data.draw(dims), data.draw(dims)
        a = make_map(field, raw_matrix(data, field, rows, cols), rows, cols)
        b = make_map(field, raw_matrix(data, field, rows, cols), rows, cols)
        init, made = LinearMap.__init__, []

        def counted(self, *args):
            made.append(args)
            init(self, *args)
        with mock.patch.object(LinearMap, "__init__", counted):
            difference = a - b
        assert len(made) == 1
        assert difference == a + (-b)

    def test_difference_checks_like_the_sum(self):
        f = LinearMap.identity(GF3, 2)
        with pytest.raises(FieldMismatchError):
            f - LinearMap.identity(FieldSpec.prime(5), 2)
        with pytest.raises(ShapeMismatchError):
            f - LinearMap.identity(GF3, 3)
        with pytest.raises(TypeError):
            f - Vector.zero(GF3, 2)
        assert f.__sub__(1) is NotImplemented

    def test_rank(self):
        assert LinearMap.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1
        assert LinearMap.identity(GF3, 2).rank() == 2
        assert LinearMap.zero(QQ, 2, 2).rank() == 0

    def test_str_is_row_major(self):
        m = LinearMap.from_rows(GF3, [[1, 0], [1, 2]])
        assert str(m) == "[[1,0],[1,2]]"


class TestSolve:
    def test_unique_solution(self):
        m = LinearMap.from_rows(QQ, [[2, 1], [1, 1]])
        x = m.solve(Vector.make(QQ, [3, 2]))
        assert m.apply(x) == Vector.make(QQ, [3, 2])
        assert [s.num for s in x.entries] == [1, 1]

    def test_inconsistent_returns_none(self):
        m = LinearMap.from_rows(QQ, [[1, 1], [1, 1]])
        assert m.solve(Vector.make(QQ, [0, 1])) is None

    def test_underdetermined_is_deterministic(self):
        # Free coordinates pinned to zero, so repeated solves agree.
        m = LinearMap.from_rows(QQ, [[1, 1]])
        x = m.solve(Vector.make(QQ, [5]))
        assert [s.num for s in x.entries] == [5, 0]
        assert x == m.solve(Vector.make(QQ, [5]))

    def test_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            LinearMap.identity(QQ, 2).solve(Vector.make(QQ, [1, 2, 3]))


class TestSpanSolver:
    def test_coordinates_in_span(self):
        coords = LinearMap.from_columns(
            GF3, [vec3([1, 1, 0]), vec3([0, 0, 1])], rows=3).solve
        got = coords(vec3([2, 2, 1]))
        assert [s.num for s in got.entries] == [2, 1]

    def test_outside_span(self):
        from liecross.linalg import span_solver
        coords = span_solver([vec3([1, 0, 0])], GF3, 3)
        assert coords(vec3([0, 1, 0])) is None

    def test_dependent_span_rejected(self):
        from liecross.linalg import span_solver
        with pytest.raises(ShapeMismatchError):
            span_solver([vec3([1, 0]), vec3([2, 0])], GF3, 2)

    def test_empty_span(self):
        from liecross.linalg import span_solver
        coords = span_solver([], GF3, 2)
        assert coords(Vector.zero(GF3, 2)).dim == 0
        assert coords(vec3([1, 0])) is None


class TestFieldChecks:
    """Operations that take a vector or a scalar refuse one of another
    field, whatever the dimension."""

    @pytest.mark.parametrize("field, other", [(GF3, FieldSpec.prime(5)),
                                              (GF3, QQ), (QQ, GF3)])
    def test_solve_refuses_a_vector_of_another_field(self, field, other):
        with pytest.raises(FieldMismatchError):
            LinearMap.zero(field, 1, 1).solve(Vector.make(other, [0]))

    @pytest.mark.parametrize("other", [FieldSpec.prime(5), QQ])
    @pytest.mark.parametrize("dim", [0, 2])
    def test_scale_refuses_a_scalar_of_another_field(self, other, dim):
        with pytest.raises(FieldMismatchError):
            Vector.zero(GF3, dim).scale(other.one())


def spelled(data, field, scalars):
    return [data.draw(st.sampled_from(spellings(field, s))) for s in scalars]


def scalar_rows(data, field, rows, cols):
    raw = raw_matrix(data, field, rows, cols)
    return [[field.scalar(v) for v in row] for row in raw]


def assert_reads_as(value, field, scalars):
    """value's Scalar view is scalars, all of field, and it prints as they do."""
    if isinstance(value, Vector):
        assert value.entries == tuple(scalars)
        assert all(type(e) is Scalar and same_field(e.field, field)
                   for e in value.entries)
        assert str(value) == "(" + ", ".join(map(str, scalars)) + ")"
        return
    assert value.entries == tuple(map(tuple, scalars))
    assert all(type(e) is Scalar and same_field(e.field, field)
               for row in value.entries for e in row)
    assert str(value) == "[" + ",".join(
        "[" + ",".join(map(str, row)) + "]" for row in scalars) + "]"
    assert _matrix_doc(value._numbers) == [[str(e) for e in row] for row in scalars]


class TestOneStoredForm:
    """A map or vector built from Scalars, from ints, Fractions or literals,
    or by arithmetic equals, hashes, prints and reads back as the same one."""

    @given(st.data())
    def test_every_build_of_a_map_is_one_map(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        rows, cols = data.draw(dims), data.draw(dims)
        want = scalar_rows(data, field, rows, cols)
        m = LinearMap(field, rows, cols, tuple(map(tuple, want)))
        other = LinearMap(field, rows, cols, scalar_rows(data, field, rows, cols))
        basis = [Vector.basis(field, cols, j) for j in range(cols)]
        builds = [
            m,
            (m - other) + other,
            other + (m - other),
            -(-m),
            m.compose(LinearMap.identity(field, cols)),
            LinearMap.identity(field, rows).compose(m),
            LinearMap.from_columns(field, [m.apply(e) for e in basis], rows=rows),
        ]
        if rows:
            builds += [LinearMap.from_rows(field, [spelled(data, field, row)
                                                   for row in want])
                       for _ in range(2)]
        for built in builds:
            assert built == m and hash(built) == hash(m)
            assert (built.rows, built.cols) == (rows, cols)
            assert_reads_as(built, field, want)

    @given(st.data())
    def test_every_build_of_a_vector_is_one_vector(self, data):
        field = data.draw(st.sampled_from(PARITY_FIELDS))
        n = data.draw(dims)
        want = [field.scalar(v) for v in data.draw(raw_values(field, n))]
        v = Vector(field, tuple(want))
        other = Vector.make(field, data.draw(raw_values(field, n)))
        builds = [
            v,
            Vector.make(field, spelled(data, field, want)),
            Vector.make(field, spelled(data, field, want)),
            (v - other) + other,
            other + (v - other),
            -(-v),
            v.scale(field.one()),
            LinearMap.identity(field, n).apply(v),
            LinearMap.from_columns(field, [v], rows=n).apply(Vector.make(field, [1])),
        ]
        for built in builds:
            assert built == v and hash(built) == hash(v)
            assert_reads_as(built, field, want)

    @given(st.data())
    def test_maps_of_other_fields_differ(self, data):
        rows, cols = data.draw(dims), data.draw(dims)
        values = [[0] * cols for _ in range(rows)]
        maps = [LinearMap(field, rows, cols, values) for field in PARITY_FIELDS]
        assert len(set(maps)) == len(PARITY_FIELDS)
