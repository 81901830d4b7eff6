"""Workspace documents: parsing, error paths, and round-tripping."""

import pytest

from liecross import FieldSpec, LieAlgebra, Workspace, validate_lie_algebra
from liecross.documents import parse_workspace, serialize_workspace
from liecross.errors import DocumentError

X_AFF_DOC = """\
field: GF(3)
algebras:
  affine2:
    dim: 2
    brackets:
      - {i: 1, j: 2, out: [{k: 2, c: "1"}]}
  span_e2:
    dim: 1
    brackets: []
crossed_modules:
  X_aff:
    m: span_e2
    p: affine2
    boundary: [["0"], ["1"]]
    action:
      - {i: 1, j: 1, out: [{k: 1, c: "1"}]}
morphisms:
  ident:
    source: X_aff
    target: X_aff
    f1: [["1"]]
    f0: [["1", "0"], ["0", "1"]]
derivations:
  shear:
    base: ident
    d: [["1", "1"]]
"""


class TestParsing:
    def test_minimal_document(self):
        ws = parse_workspace("field: QQ\nalgebras:\n  a:\n    dim: 1\n")
        assert ws.field == FieldSpec.rational()
        assert ws.algebras["a"].dim == 1

    def test_full_document(self):
        ws = parse_workspace(X_AFF_DOC)
        assert ws.field == FieldSpec.prime(3)
        assert ws.algebras["affine2"].dim == 2
        xmod = ws.require_module("X_aff")
        assert xmod.p_algebra is ws.algebras["affine2"]
        ident = ws.require_morphism("ident")
        assert ident.source is xmod
        cert = ws.require_derivation("shear")
        assert cert.base is ident
        assert cert.d.rows == 1 and cert.d.cols == 2

    def test_field_spellings(self):
        assert parse_workspace("field: QQ\n").field == FieldSpec.rational()
        assert parse_workspace("field: rational\n").field == FieldSpec.rational()
        assert parse_workspace("field: GF(7)\n").field == FieldSpec.prime(7)
        mapping = "field:\n  kind: prime\n  p: 5\n"
        assert parse_workspace(mapping).field == FieldSpec.prime(5)

    def test_rational_field_mapping(self):
        assert parse_workspace("field: {kind: rational}\n").field \
            == FieldSpec.rational()

    def test_missing_action_is_zero(self):
        doc = X_AFF_DOC.replace(
            '    action:\n      - {i: 1, j: 1, out: [{k: 1, c: "1"}]}\n', "")
        xmod = parse_workspace(doc).require_module("X_aff")
        assert not any(c for plane in xmod.action.tensor
                       for row in plane for c in row)

    def test_brackets_fill_antisymmetric_half(self):
        ws = parse_workspace(X_AFF_DOC)
        aff = ws.algebras["affine2"]
        assert aff.structure[1][0][1].num == 2  # -1 mod 3


class TestParseErrors:
    def check(self, doc, fragment):
        with pytest.raises(DocumentError) as err:
            parse_workspace(doc)
        assert fragment in str(err.value), str(err.value)

    def test_syntax_error_reports_position(self):
        self.check("field: [unclosed", "syntax error at line 1")

    def test_empty_document(self):
        self.check("", "empty document")

    def test_missing_field(self):
        self.check("algebras: {}\n", "field")

    def test_unknown_top_level_key(self):
        self.check(X_AFF_DOC + "extras: {}\n", "unknown key 'extras'")

    def test_unknown_algebra_reference(self):
        doc = X_AFF_DOC.replace("p: affine2", "p: missing")
        self.check(doc, "crossed_modules.X_aff.p: unknown algebra 'missing'")

    def test_unknown_morphism_reference(self):
        doc = X_AFF_DOC.replace("base: ident", "base: nope")
        self.check(doc, "derivations.shear.base: unknown morphism 'nope'")

    def test_bad_scalar_literal_path(self):
        doc = X_AFF_DOC.replace('c: "1"}]}\n  span_e2', 'c: "9"}]}\n  span_e2')
        self.check(doc, "algebras.affine2.brackets[0].out[0].c")

    def test_bad_matrix_cell_path(self):
        doc = X_AFF_DOC.replace('boundary: [["0"], ["1"]]',
                                'boundary: [["0"], ["x"]]')
        self.check(doc, "boundary[1][0]")

    def test_float_scalars_rejected(self):
        doc = X_AFF_DOC.replace('c: "1"', "c: 1.5", 1)
        self.check(doc, "affine2")

    def test_upper_triangle_bracket_rejected(self):
        doc = X_AFF_DOC.replace("{i: 1, j: 2,", "{i: 2, j: 1,", 1)
        self.check(doc, "i < j")

    def test_ragged_matrix_rejected(self):
        doc = X_AFF_DOC.replace('f0: [["1", "0"], ["0", "1"]]',
                                'f0: [["1", "0"], ["0"]]')
        self.check(doc, "f0")

    def test_wrong_matrix_shape_rejected(self):
        doc = X_AFF_DOC.replace('d: [["1", "1"]]', 'd: [["1"]]')
        self.check(doc, "shear")

    def test_morphism_field_mismatch(self):
        doc = X_AFF_DOC.replace('f1: [["1"]]', 'f1: [["4"]]')
        self.check(doc, "f1")

    @pytest.mark.parametrize("line, path, kind", [
        ("m: span_e2", "crossed_modules.X_aff.m", "algebra"),
        ("p: affine2", "crossed_modules.X_aff.p", "algebra"),
        ("source: X_aff", "morphisms.ident.source", "crossed module"),
        ("target: X_aff", "morphisms.ident.target", "crossed module"),
        ("base: ident", "derivations.shear.base", "morphism"),
    ], ids=["m", "p", "source", "target", "base"])
    @pytest.mark.parametrize("text, name", [
        ("missing", "missing"), ("[span_e2]", ["span_e2"]), ("{x: 1}", {"x": 1})],
        ids=["missing", "list", "mapping"])
    def test_every_reference_names_its_path(self, line, path, kind, text, name):
        # A list or mapping is no name, so it is unknown like a missing one.
        key = line.split(":")[0]
        with pytest.raises(DocumentError) as err:
            parse_workspace(X_AFF_DOC.replace(line, f"{key}: {text}"))
        assert err.value.path == path
        assert str(err.value) == f"{path}: unknown {kind} {name!r}"


class TestRoundTrip:
    def test_serialize_reparses_bit_exactly(self):
        ws = parse_workspace(X_AFF_DOC)
        out = serialize_workspace(ws)
        assert serialize_workspace(parse_workspace(out)) == out

    def test_round_trip_preserves_structure(self):
        ws = parse_workspace(X_AFF_DOC)
        again = parse_workspace(serialize_workspace(ws))
        assert again.field == ws.field
        assert again.algebras["affine2"] == ws.algebras["affine2"]
        assert again.require_module("X_aff") \
            == ws.require_module("X_aff")
        assert again.require_morphism("ident") == ws.require_morphism("ident")
        assert again.require_derivation("shear").d \
            == ws.require_derivation("shear").d

    def test_serializer_emits_sparse_lower_triangle_only(self):
        ws = parse_workspace(X_AFF_DOC)
        out = serialize_workspace(ws)
        assert "i: 1" in out
        assert "GF(3)" in out
        # the automatically filled (2,1) half must not be written back
        assert "i: 2" not in out

    def test_rational_workspace_round_trip(self):
        doc = X_AFF_DOC.replace("field: GF(3)", "field: QQ") \
                       .replace('c: "1"', 'c: "-1/2"', 1)
        ws = parse_workspace(doc)
        assert ws.algebras["affine2"].structure[0][1][1] \
            == FieldSpec.rational().parse_scalar("-1/2")
        out = serialize_workspace(ws)
        assert serialize_workspace(parse_workspace(out)) == out

    def test_unregistered_algebra_names_its_module(self):
        ws = parse_workspace(X_AFF_DOC)
        bare = Workspace(ws.field)
        bare.crossed_modules["X_aff"] = ws.require_module("X_aff")
        with pytest.raises(DocumentError) as err:
            serialize_workspace(bare)
        assert str(err.value) == ("crossed_modules.X_aff: algebra 'span_e2' "
                                  "is not registered")

    def test_non_alternating_algebra_is_refused(self):
        # c[1][1] != 0 and c[2][1] != -c[1][2]: the i < j entries alone
        # would name another algebra, one that passes validation.
        gf2 = FieldSpec.prime(2)
        bad = LieAlgebra("bad", gf2, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
        assert validate_lie_algebra(bad).failures_for("antisymmetry")
        ws = Workspace(gf2)
        ws.algebras["bad"] = bad
        with pytest.raises(DocumentError) as err:
            serialize_workspace(ws)
        assert err.value.path == "algebras.bad"
        assert "i < j" in str(err.value)

    def test_jacobi_failure_round_trips(self):
        # [e1,e2]=e3, [e1,e3]=e1 alternates but breaks Jacobi: the document
        # can say it, so it is written and read back equal.
        broken = LieAlgebra.from_sparse_brackets(
            "broken", FieldSpec.rational(), 3, [(1, 2, {3: 1}), (1, 3, {1: 1})])
        report = validate_lie_algebra(broken)
        assert report.failures_for("jacobi")
        assert not report.failures_for("antisymmetry")
        ws = Workspace(FieldSpec.rational())
        ws.algebras["broken"] = broken
        assert parse_workspace(serialize_workspace(ws)).algebras["broken"] \
            == broken


class TestWorkspaceLookups:
    def test_require_reports_unknown_names(self):
        ws = parse_workspace(X_AFF_DOC)
        with pytest.raises(DocumentError, match="unknown"):
            ws.require_module("missing")
        with pytest.raises(DocumentError, match="unknown"):
            ws.require_morphism("missing")
        with pytest.raises(DocumentError, match="unknown"):
            ws.require_derivation("missing")

    @pytest.mark.parametrize("method, path, kind", [
        ("require_module", "crossed_modules", "crossed module"),
        ("require_morphism", "morphisms", "morphism"),
        ("require_derivation", "derivations", "derivation"),
    ], ids=["module", "morphism", "derivation"])
    @pytest.mark.parametrize("name", ["missing", ["X_aff"], {"x": 1}],
                             ids=["missing", "list", "mapping"])
    def test_require_names_its_section(self, method, path, kind, name):
        ws = parse_workspace(X_AFF_DOC)
        with pytest.raises(DocumentError) as err:
            getattr(ws, method)(name)
        assert err.value.path == path
        assert str(err.value) == f"{path}: unknown {kind} {name!r}"
