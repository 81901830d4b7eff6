"""Vectors, exact linear maps, solving, and span coordinates."""

import pytest
from hypothesis import given, strategies as st

from battery import PARITY_FIELDS, numbers, raw_values, reduced
from liecross import FieldSpec, LinearMap, Vector
from liecross.errors import FieldMismatchError, ShapeMismatchError

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
