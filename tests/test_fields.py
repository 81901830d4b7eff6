"""Exact scalar arithmetic over the rationals and prime fields."""

import io
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liecross import FieldSpec, LinearMap, Scalar, Vector
from liecross.cli import run_command
from liecross.errors import FieldMismatchError
from liecross.fields import _is_prime

QQ = FieldSpec.rational()
GF5 = FieldSpec.prime(5)


class TestFieldSpec:
    def test_rational_field_spec(self):
        assert QQ == FieldSpec.rational()
        assert not QQ.is_prime_field
        assert str(QQ) == "QQ"

    def test_prime_field(self):
        assert GF5.is_prime_field
        assert GF5.p == 5
        assert str(GF5) == "GF(5)"

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 9, -3])
    def test_rejects_non_primes(self, n):
        with pytest.raises(ValueError):
            FieldSpec.prime(n)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(-3, 20_000) if _is_prime(n)] \
            == [n for n in range(-3, 20_000) if trial(n)]

    @pytest.mark.parametrize("n", [
        # Carmichael numbers, then strong pseudoprimes to the first few bases.
        561, 1105, 41041, 825265, 2047, 3215031751, 3825123056546413051])
    def test_rejects_pseudoprimes(self, n):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="prime modulus"):
            FieldSpec.prime(n)

    @pytest.mark.parametrize("p", [2 ** 61 - 1, 18446744073709551557])
    def test_large_primes_are_decided_fast(self, p):
        start = time.perf_counter()
        assert FieldSpec.prime(p).p == p
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [
        # 318665857834031151167461 is composite but passes all twelve bases.
        2 ** 64, 2 ** 64 + 13, 318665857834031151167461, 2 ** 89 - 1])
    def test_rejects_moduli_from_2_64(self, n):
        with pytest.raises(ValueError, match="below 2\\^64"):
            FieldSpec.prime(n)

    def test_cli_reports_huge_modulus_at_field(self, tmp_path):
        path = tmp_path / "huge.yaml"
        for p, code, line in [
                (2 ** 61 - 1, 0, "span_e2 jacobi PASS"),
                (2 ** 64 + 13, 2, f"error: field: prime modulus must be below "
                                  f"2^64, got {2 ** 64 + 13}")]:
            path.write_text(f"field: GF({p})\nalgebras:\n  span_e2:\n"
                            "    dim: 1\n    brackets: []\n")
            out = io.StringIO()
            assert run_command(["validate", str(path)], out=out) == code
            assert line in out.getvalue().splitlines()

    def test_elements_enumerates_residues(self):
        assert [s.num for s in GF5.elements()] == [0, 1, 2, 3, 4]

    def test_rational_elements_unavailable(self):
        with pytest.raises(ValueError):
            list(QQ.elements())


class TestSharedFields:
    def test_prime_fields_and_residues_are_shared(self):
        assert FieldSpec.prime(5) is GF5
        assert GF5.scalar(3) is GF5.scalar(8)
        assert GF5.one() + GF5.one() is GF5.scalar(2)

    def test_directly_built_field_mixes_with_shared(self):
        direct = FieldSpec("prime", 5)
        assert direct == GF5 and hash(direct) == hash(GF5)
        a, b = direct.scalar(3), GF5.scalar(3)
        assert a == b and hash(a) == hash(b)
        assert {a: "three"}[b] == "three"
        assert (a + b).num == 1 and (b * a).num == 4 and a - b == GF5.zero()
        assert Vector.make(direct, [1, 2]) == Vector.make(GF5, [1, 2])
        assert LinearMap.identity(direct, 2).apply(Vector.make(GF5, [1, 2])) \
            == Vector.make(GF5, [1, 2])

    def test_gf3_gf5_mix_rejected(self):
        gf3 = FieldSpec.prime(3)
        with pytest.raises(FieldMismatchError):
            gf3.one() + GF5.one()
        with pytest.raises(FieldMismatchError):
            FieldSpec("prime", 3).one() * GF5.one()
        with pytest.raises(FieldMismatchError):
            LinearMap.identity(gf3, 1).apply(Vector.make(GF5, [1]))

    def test_pickled_scalars_land_on_the_shared_field(self):
        s = pickle.loads(pickle.dumps(FieldSpec("prime", 5).scalar(4)))
        assert s.field is GF5 and s == GF5.scalar(4)


class TestCanonicalForm:
    def test_lowest_terms(self):
        s = Scalar(QQ, 6, 4)
        assert (s.num, s.den) == (3, 2)

    def test_denominator_sign(self):
        s = Scalar(QQ, 1, -2)
        assert (s.num, s.den) == (-1, 2)

    def test_zero_normalizes(self):
        assert Scalar(QQ, 0, 7) == QQ.zero()

    def test_residue_reduction(self):
        assert Scalar(GF5, 12).num == 2
        assert Scalar(GF5, -1).num == 4

    def test_prime_scalars_reject_denominators(self):
        with pytest.raises(ValueError):
            Scalar(GF5, 1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(QQ, 1, 0)

    def test_structural_equality_and_hash(self):
        assert Scalar(QQ, 2, 4) == Scalar(QQ, 1, 2)
        assert hash(Scalar(QQ, 2, 4)) == hash(Scalar(QQ, 1, 2))
        assert Scalar(QQ, 1) != Scalar(GF5, 1)

    def test_coercions(self):
        assert QQ.scalar(Fraction(6, 4)) == Scalar(QQ, 3, 2)
        assert QQ.scalar("3/2") == Scalar(QQ, 3, 2)
        assert GF5.scalar(Fraction(1, 2)).num == 3  # 1/2 = 1 * inv(2) = 3
        with pytest.raises(TypeError):
            QQ.scalar(1.5)
        with pytest.raises(FieldMismatchError):
            QQ.scalar(GF5.one())


class TestArithmetic:
    def test_rational_ops(self):
        a, b = Scalar(QQ, 1, 2), Scalar(QQ, 1, 3)
        assert a + b == Scalar(QQ, 5, 6)
        assert a - b == Scalar(QQ, 1, 6)
        assert a * b == Scalar(QQ, 1, 6)
        assert a / b == Scalar(QQ, 3, 2)
        assert -a == Scalar(QQ, -1, 2)

    def test_prime_ops(self):
        a, b = GF5.scalar(3), GF5.scalar(4)
        assert (a + b).num == 2
        assert (a - b).num == 4
        assert (a * b).num == 2
        assert (a / b).num == 2  # 4 * 2 = 8 = 3 mod 5
        assert (-a).num == 2

    def test_division_by_zero(self):
        for field in (QQ, GF5):
            with pytest.raises(ZeroDivisionError):
                field.one() / field.zero()

    def test_truthiness(self):
        assert not QQ.zero()
        assert GF5.scalar(3)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            QQ.one() + GF5.one()
        with pytest.raises(TypeError):
            QQ.one() + 1  # raw ints are not scalars

    @given(st.fractions(), st.fractions())
    def test_rational_ops_match_fractions(self, x, y):
        a = Scalar(QQ, x.numerator, x.denominator)
        b = Scalar(QQ, y.numerator, y.denominator)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b).as_fraction() == x + y
        assert (a * b).as_fraction() == x * y

    @given(st.integers(), st.integers())
    def test_prime_field_laws(self, x, y):
        a, b = GF5.scalar(x), GF5.scalar(y)
        assert a + b == GF5.scalar(x + y)
        assert a * b == GF5.scalar(x * y)
        assert a - a == GF5.zero()
        if b:
            assert (a / b) * b == a


class TestParsing:
    def test_rational_literals(self):
        assert QQ.parse_scalar("3/4") == Scalar(QQ, 3, 4)
        assert QQ.parse_scalar("-2") == QQ.scalar(-2)
        assert QQ.parse_scalar("0") == QQ.zero()

    def test_prime_literals(self):
        assert GF5.parse_scalar("4").num == 4

    @pytest.mark.parametrize("text", ["5", "-1", "1/2", "x", ""])
    def test_prime_rejects_out_of_range(self, text):
        with pytest.raises(ValueError):
            GF5.parse_scalar(text)

    @pytest.mark.parametrize("text", ["x", "1/0", "1.5", "1/2/3"])
    def test_rational_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            QQ.parse_scalar(text)

    def test_str_round_trip(self):
        for s in (Scalar(QQ, 7, 3), QQ.scalar(-2), GF5.scalar(4)):
            assert s.field.parse_scalar(str(s)) == s
