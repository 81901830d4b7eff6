"""Command-line driver: exit codes, report lines, and deterministic output."""

import hashlib
import io
import json
import subprocess
import sys

import pytest

import battery
from liecross import FieldSpec, Workspace, inclusion_crossed_module, serialize_workspace
from liecross.cli import run_command

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
  zero_endo:
    source: X_aff
    target: X_aff
    f1: [["0"]]
    f0: [["0", "0"], ["0", "0"]]
  shifted:
    source: X_aff
    target: X_aff
    f1: [["2"]]
    f0: [["1", "0"], ["1", "2"]]
derivations:
  shear:
    base: ident
    d: [["1", "1"]]
  slide:
    base: zero_endo
    d: [["1", "0"]]
"""

BROKEN_CERT_DOC = X_AFF_DOC + """\
  broken:
    base: zero_endo
    d: [["0", "1"]]
"""

RATIONAL_DOC = """\
field: QQ
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
"""

# A second module with a morphism of its own: ident and line_ident do not
# share endpoints.
TWO_MODULE_DOC = X_AFF_DOC.replace("morphisms:\n", """\
  X_line:
    m: span_e2
    p: span_e2
    boundary: [["1"]]
    action: []
morphisms:
  line_ident:
    source: X_line
    target: X_line
    f1: [["1"]]
    f0: [["1"]]
""", 1)

INVALID_DOC = """\
field: QQ
algebras:
  broken:
    dim: 3
    brackets:
      - {i: 1, j: 2, out: [{k: 3, c: "1"}]}
      - {i: 1, j: 3, out: [{k: 1, c: "1"}]}
"""

# Boundary id: M -> P on lines with P scaling M breaks CM1 and CM2, so the
# hom-groupoid's homotopy targets are not all morphisms.
UNVALIDATED_MODULE_DOC = """\
field: GF(3)
algebras:
  m:
    dim: 1
    brackets: []
  p:
    dim: 1
    brackets: []
crossed_modules:
  bad:
    m: m
    p: p
    boundary: [["1"]]
    action:
      - {i: 1, j: 1, out: [{k: 1, c: "1"}]}
"""

# f1 = 0 with f0 = id breaks the boundary square of X_aff; the zero
# derivation passes its law and shifts onto the same non-morphism.
NON_MORPHISM_DOC = X_AFF_DOC.split("morphisms:")[0] + """\
morphisms:
  unsquare:
    source: X_aff
    target: X_aff
    f1: [["0"]]
    f0: [["1", "0"], ["0", "1"]]
derivations:
  still:
    base: unsquare
    d: [["0", "0"]]
"""


@pytest.fixture
def ws_path(tmp_path):
    path = tmp_path / "ws.yaml"
    path.write_text(X_AFF_DOC)
    return str(path)


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


class TestValidate:
    def test_valid_workspace_exits_zero(self, ws_path):
        code, text = run(["validate", ws_path])
        assert code == 0
        assert "affine2 jacobi PASS" in text
        assert "X_aff cm1 PASS" in text
        assert "X_aff cm2 PASS" in text
        assert "ident equivariance PASS" in text
        assert "shear derivation_law PASS" in text
        assert "FAIL" not in text

    def test_axiom_violation_exits_one(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(INVALID_DOC)
        code, text = run(["validate", str(path)])
        assert code == 1
        assert "broken jacobi FAIL" in text
        assert "(1, 2, 3)" in text  # first failing triple is the witness

    def test_invalid_derivation_certificate_fails(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(BROKEN_CERT_DOC)
        code, text = run(["validate", str(path)])
        assert code == 1
        assert "broken derivation_law FAIL" in text

    def test_structured_format(self, ws_path):
        code, text = run(["validate", ws_path, "--format", "structured"])
        assert code == 0
        data = json.loads(text)
        assert data["ok"] is True
        subjects = {r["subject"] for r in data["reports"]}
        assert {"affine2", "X_aff", "ident", "shear"} <= subjects


class TestUsageErrors:
    def test_missing_file(self):
        code, text = run(["validate", "/nonexistent/ws.yaml"])
        assert code == 2
        assert "cannot read" in text

    def test_document_not_utf8(self, tmp_path):
        path = tmp_path / "bin.yaml"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, text = run(["validate", str(path)])
        assert code == 2
        assert text.startswith(f"error: cannot read {path}: 'utf-8' codec")

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("field: [unclosed")
        code, text = run(["validate", str(path)])
        assert code == 2
        assert "syntax error" in text

    def test_unknown_reference(self, ws_path):
        code, text = run(["enumerate-morphisms", ws_path,
                          "--source", "X_aff", "--target", "missing"])
        assert code == 2
        assert "unknown" in text

    def test_list_reference_exits_two_with_its_path(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text(X_AFF_DOC.replace("p: affine2", "p: [affine2]"))
        code, text = run(["validate", str(path)])
        assert code == 2
        assert text == ("error: crossed_modules.X_aff.p: unknown algebra "
                        "['affine2']\n")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_unwritable_emit_exits_two(self, ws_path, tmp_path, fmt):
        emit = tmp_path / "missing" / "groupoid.json"
        code, text = run(["groupoid", ws_path, "--hom", "X_aff", "X_aff",
                          "--emit", str(emit), "--format", fmt])
        assert code == 2
        assert text.startswith(f"error: cannot write {emit}: ")
        assert text.count("\n") == 1

    def test_rational_enumeration_rejected(self, tmp_path):
        path = tmp_path / "rat.yaml"
        path.write_text(RATIONAL_DOC)
        code, text = run(["enumerate-morphisms", str(path),
                          "--source", "X_aff", "--target", "X_aff"])
        assert code == 2
        assert "finite field required" in text

    def test_unknown_subcommand(self, ws_path):
        code, _ = run(["frobnicate", ws_path])
        assert code == 2

    def test_budget_exceeded_exits_three(self, ws_path):
        code, text = run(["groupoid", ws_path, "--hom", "X_aff", "X_aff",
                          "--budget", "10"])
        assert code == 3
        assert "budget" in text

    @pytest.mark.parametrize("command", ["groupoid", "classes"])
    def test_unvalidated_module_exits_one_with_witness(self, tmp_path, command):
        path = tmp_path / "bad.yaml"
        path.write_text(UNVALIDATED_MODULE_DOC)
        code, text = run([command, str(path), "--hom", "bad", "bad"])
        assert code == 1
        lines = text.splitlines()
        assert lines[0] == ("error: a homotopy target at object 0 is missing "
                            "from the object list")
        assert "morphism equivariance FAIL equivariance fails at (1, 1): " \
               "(2) != (1)" in lines[1:]

    def test_target_of_non_morphism_exits_one_with_witness(self, tmp_path):
        path = tmp_path / "unsquare.yaml"
        path.write_text(NON_MORPHISM_DOC)
        code, text = run(["target", str(path), "--from", "unsquare",
                          "--via", "still"])
        assert code == 1
        lines = text.splitlines()
        assert lines[0] == "error: shifted map is not a crossed-module morphism"
        assert "morphism square FAIL square fails at (1): (0, 0) != (0, 1)" \
            in lines[1:]


class TestEnumeration:
    def test_morphism_listing(self, ws_path):
        code, text = run(["enumerate-morphisms", ws_path,
                          "--source", "X_aff", "--target", "X_aff"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "morphisms=15"
        assert len([l for l in lines if l.startswith("morphism ")]) == 15

    def test_derivation_listing(self, ws_path):
        code, text = run(["enumerate-derivations", ws_path, "--base", "ident"])
        assert code == 0
        assert text.splitlines()[0] == "derivations=9"

    def test_classes_line_is_exact(self, ws_path):
        code, text = run(["classes", ws_path, "--hom", "X_aff", "X_aff"])
        assert code == 0
        assert text == "objects=15 classes=3 sizes=[3,3,9]\n"

    def test_groupoid_summary_and_emit(self, ws_path, tmp_path):
        emit = tmp_path / "groupoid.json"
        code, text = run(["groupoid", ws_path, "--hom", "X_aff", "X_aff",
                          "--emit", str(emit)])
        assert code == 0
        head = text.splitlines()[0]
        assert head == "objects=15 arrows=99 classes=3 sizes=[3,3,9]"
        assert f"emitted {emit}" in text
        data = json.loads(emit.read_text())
        assert len(data["objects"]) == 15
        assert len(data["arrows"]) == 99
        assert data["classes"][0] == [0, 1, 2]
        # scalars serialized as strings
        assert data["arrows"][0]["d"] == [["0", "0"]]

    def test_groupoid_structured_output(self, ws_path):
        code, text = run(["groupoid", ws_path, "--hom", "X_aff", "X_aff",
                          "--format", "structured"])
        assert code == 0
        data = json.loads(text)
        assert len(data["arrows"]) == 99

    def test_structured_stdout_is_the_emit_file(self, ws_path, tmp_path):
        emit = tmp_path / "groupoid.json"
        code, text = run(["groupoid", ws_path, "--hom", "X_aff", "X_aff",
                          "--format", "structured", "--emit", str(emit)])
        assert code == 0
        assert text.encode() == emit.read_bytes()


class TestHomotopyCommands:
    def test_check_homotopy_pass(self, ws_path):
        code, text = run(["check-homotopy", ws_path,
                          "--from", "ident", "--to", "shifted", "--via", "shear"])
        assert code == 0
        assert "shear homotopy_equations PASS" in text
        assert "shear derivation_law PASS" in text

    def test_check_homotopy_wrong_target(self, ws_path):
        code, text = run(["check-homotopy", ws_path,
                          "--from", "ident", "--to", "ident", "--via", "shear"])
        assert code == 1
        assert "homotopy_equations FAIL" in text

    def test_check_homotopy_law_failure(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(BROKEN_CERT_DOC)
        code, text = run(["check-homotopy", str(path),
                          "--from", "zero_endo", "--to", "zero_endo",
                          "--via", "broken"])
        assert code == 1
        assert "broken derivation_law FAIL" in text

    def test_check_homotopy_mismatched_endpoints_exit_two(self, tmp_path):
        path = tmp_path / "two.yaml"
        path.write_text(TWO_MODULE_DOC)
        code, text = run(["check-homotopy", str(path), "--from", "ident",
                          "--to", "line_ident", "--via", "shear"])
        assert code == 2
        assert text == "error: morphisms do not share endpoints\n"

    def test_target_documented_example(self, ws_path):
        code, text = run(["target", ws_path, "--from", "ident", "--via", "shear"])
        assert code == 0
        assert "target: f1=[[2]] f0=[[1,0],[1,2]]" in text

    def test_target_rejects_non_derivation(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(BROKEN_CERT_DOC)
        code, text = run(["target", str(path), "--from", "zero_endo",
                          "--via", "broken"])
        assert code == 1
        assert "broken derivation_law FAIL" in text


class TestDeterminism:
    def test_byte_identical_across_runs_and_workers(self, ws_path):
        outputs = [run(["groupoid", ws_path, "--hom", "X_aff", "X_aff",
                        "--workers", w])[1]
                   for w in ("1", "1", "8")]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_subprocess_entry_point(self, ws_path):
        # Same bytes through the real process boundary.
        res = [subprocess.run([sys.executable, "-m", "liecross", "classes",
                               ws_path, "--hom", "X_aff", "X_aff"],
                              capture_output=True, check=True)
               for _ in range(2)]
        assert res[0].stdout == res[1].stdout
        assert res[0].stdout == b"objects=15 classes=3 sizes=[3,3,9]\n"


class TestGroupoidBytes:
    """groupoid stdout and --emit bytes, pinned by sha256 on a 243-object,
    19,683-arrow groupoid: span(y, z) in h3 over GF(3) in a random basis.
    The text digest is taken with the emit path written as EMIT."""

    TEXT_STDOUT = "0a78ed67beea96ef9ebe7243d4f32926da47d57ee53ea0d07ce85eb1e99641c9"
    DOCUMENT = "95926ba8624a2d9a98ded39afba0c038ae201620630987a4239b3e9ea95bfa03"

    @pytest.fixture(scope="class")
    def doc_path(self, tmp_path_factory):
        gf3 = FieldSpec.prime(3)
        h3 = battery.heisenberg3(gf3)
        xmod = battery.change_basis(inclusion_crossed_module(
            h3, [h3.basis(1), h3.basis(2)], name="h3_plane"), 5)
        ws = Workspace(gf3)
        ws.algebras["X_m"] = xmod.m_algebra
        ws.algebras["X_p"] = xmod.p_algebra
        ws.crossed_modules["X"] = xmod
        path = tmp_path_factory.mktemp("pinned") / "h3_plane.yaml"
        path.write_text(serialize_workspace(ws))
        return str(path)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_stdout_and_emit_digests(self, doc_path, tmp_path, fmt):
        emit = tmp_path / "groupoid.json"
        code, text = run(["groupoid", doc_path, "--hom", "X", "X",
                          "--emit", str(emit), "--format", fmt])
        assert code == 0
        stdout = text.replace(str(emit), "EMIT").encode()
        expected = self.TEXT_STDOUT if fmt == "text" else self.DOCUMENT
        assert hashlib.sha256(stdout).hexdigest() == expected
        assert hashlib.sha256(emit.read_bytes()).hexdigest() == self.DOCUMENT


# The README workspace with one action coefficient changed (cm1 fails, and
# shear's derivation law with it) and shifted's f1 changed (square fails).
BROKEN_LAW_DOC = (
    X_AFF_DOC.replace('{i: 1, j: 1, out: [{k: 1, c: "1"}]}',
                      '{i: 1, j: 1, out: [{k: 1, c: "2"}]}')
    .replace('f1: [["2"]]', 'f1: [["1"]]'))


class TestReportBytes:
    """validate, target and check-homotopy stdout, pinned by sha256 in both
    formats on the README workspace (with the morphisms its check-homotopy
    example names) and on a copy that fails a law of each kind."""

    COMMANDS = {
        "validate": [],
        "target": ["--from", "ident", "--via", "shear"],
        "check-homotopy": ["--from", "ident", "--to", "shifted", "--via", "shear"],
    }
    DIGESTS = {
        ("passing", "validate", "text"):
            "bbc1152d627a13a2062707cc8a0d46e0cd60fb80c776abdabcf67fe0d8bf1ede",
        ("passing", "validate", "structured"):
            "c030ac5e272014f8562049d272cd92c7ccfde7574a5fd70322c9b92d5c6a0d0a",
        ("passing", "target", "text"):
            "b74c17e9cbfb1be5176bd92c50b36005bc86322b37adbf904edec1e60dee0c71",
        ("passing", "target", "structured"):
            "c0fad697c75c2e99c7742b98d19d64435e9ddf107b1257e965cf8a64df3fecff",
        ("passing", "check-homotopy", "text"):
            "348c95ff9230a9f88936ac1f450b1b6bb787449a507fbcb90e119595f05adb8a",
        ("passing", "check-homotopy", "structured"):
            "f72a76e255896cf4e50e1ece07c1b43408f3df1256b6ad321337399f3cec8852",
        ("broken", "validate", "text"):
            "3629737f5dc55fecc41f51844f5a72442d0d7b6fbedec38d445fc28ee9834869",
        ("broken", "validate", "structured"):
            "c9cbc25700414c357aa76663d2894939221828e8a56fdd9e1b7806fbfc25daca",
        ("broken", "target", "text"):
            "aafebd59d5cadc9e37e6451da357c4f8b042e81d341811d489be893104061cad",
        ("broken", "target", "structured"):
            "9fcc72ca5cdf5e49f49c91692f4b75625b1a65ccaf09512436cf61b2c1e8eaf0",
        ("broken", "check-homotopy", "text"):
            "54d382ec11d683f259d32fbc7b1e6dbc2e419ae890f42e67ea2d15ed9272b5de",
        ("broken", "check-homotopy", "structured"):
            "c014233583f2ba4150b63e0bae461f4f25f7d6a76c767b92f51c3d04065cc1ad",
    }

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("doc", ["passing", "broken"])
    def test_stdout_digest(self, tmp_path, doc, command, fmt):
        path = tmp_path / "ws.yaml"
        path.write_text(X_AFF_DOC if doc == "passing" else BROKEN_LAW_DOC)
        code, text = run([command, str(path), *self.COMMANDS[command],
                          "--format", fmt])
        assert code == (0 if doc == "passing" else 1)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.DIGESTS[doc, command, fmt]
