"""Workspace documents: declarative YAML input and its serializer.

A document declares one ground field and named objects over it:

    field: GF(3)
    algebras:
      affine2:
        dim: 2
        brackets:
          - {i: 1, j: 2, out: [{k: 2, c: "1"}]}
    crossed_modules:
      X_aff:
        m: ideal_m
        p: affine2
        boundary: [["0"], ["1"]]
        action:
          - {i: 1, j: 1, out: [{k: 1, c: "1"}]}
    morphisms:
      f:
        source: X_aff
        target: X_aff
        f1: [["1"]]
        f0: [["1", "0"], ["0", "1"]]
    derivations:
      h:
        base: f
        d: [["0", "1"]]

Basis indices are 1-based; bracket entries carry only i < j (the other half
and the zero diagonal are implied).  Matrices are row-major lists of scalar
strings.  Parsing applies shape checks only; axiom validation is a separate
step, so invalid algebras can be loaded and then reported on.  Every parse
error carries the path of the offending node.

One lookup rule resolves every reference: m, p, source, target, base and the
names the Workspace.require_* methods take.  A reference is a string naming
an object of its kind; anything else, a YAML list or mapping included, is an
"unknown <kind>" error at the reference's path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

import yaml

from .algebras import CrossedModule, LieAction, LieAlgebra, validate_lie_algebra
from .errors import DocumentError, LiecrossError
from .fields import FieldSpec
from .linalg import LinearMap
from .morphisms import CrossedMorphism

_FIELD_RE = re.compile(r"^GF\((\d+)\)$")

_TOP_KEYS = {"field", "algebras", "crossed_modules", "morphisms", "derivations"}
_ALGEBRA_KEYS = {"dim", "brackets"}
_XMOD_KEYS = {"m", "p", "boundary", "action"}
_MORPHISM_KEYS = {"source", "target", "f1", "f0"}
_DERIVATION_KEYS = {"base", "d"}
_BRACKET_KEYS = {"i", "j", "out"}
_OUT_KEYS = {"k", "c"}


@dataclass(frozen=True)
class DerivationCertificate:
    """A named candidate homotopy: a base morphism and a raw d matrix.

    The derivation law is deliberately not checked at parse time; commands
    decide whether to verify or report.
    """

    base_name: str
    base: CrossedMorphism
    d: LinearMap


@dataclass
class Workspace:
    """Everything a document declares, fully resolved over one field."""

    field: FieldSpec
    algebras: dict[str, LieAlgebra] = dc_field(default_factory=dict)
    crossed_modules: dict[str, CrossedModule] = dc_field(default_factory=dict)
    morphisms: dict[str, CrossedMorphism] = dc_field(default_factory=dict)
    derivations: dict[str, DerivationCertificate] = dc_field(default_factory=dict)

    def require_module(self, name: str) -> CrossedModule:
        return _lookup(self.crossed_modules, name, "crossed module", "crossed_modules")

    def require_morphism(self, name: str) -> CrossedMorphism:
        return _lookup(self.morphisms, name, "morphism", "morphisms")

    def require_derivation(self, name: str) -> DerivationCertificate:
        return _lookup(self.derivations, name, "derivation", "derivations")


def _lookup(table: dict, name, kind: str, path: str):
    """table[name], or an "unknown <kind>" DocumentError at path.  Tables are
    keyed by strings, so a name of another type (a YAML list, say) is unknown."""
    if not isinstance(name, str) or name not in table:
        raise DocumentError(path, f"unknown {kind} {name!r}")
    return table[name]


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise DocumentError(path, "expected a mapping")
    return node


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise DocumentError(path, "expected a list")
    return node


def _check_keys(node: dict, allowed: set, path: str):
    unknown = set(node) - allowed
    if unknown:
        raise DocumentError(path, f"unknown key {sorted(unknown)[0]!r}")


def _get(node: dict, key: str, path: str):
    if key not in node:
        raise DocumentError(path, f"missing key {key!r}")
    return node[key]


def _expect_index(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise DocumentError(path, "expected an integer index")
    return node


def _parse_scalar(field: FieldSpec, node, path: str):
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise DocumentError(path, "expected a scalar literal string")
    try:
        return field.parse_scalar(str(node))
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from exc


def _parse_matrix(field: FieldSpec, node, rows: int, cols: int,
                  path: str) -> LinearMap:
    data = _expect_list(node, path)
    if len(data) != rows:
        raise DocumentError(path, f"expected {rows} rows, got {len(data)}")
    entries = []
    for r, row in enumerate(data):
        row = _expect_list(row, f"{path}[{r}]")
        if len(row) != cols:
            raise DocumentError(f"{path}[{r}]",
                                f"expected {cols} entries, got {len(row)}")
        entries.append([_parse_scalar(field, cell, f"{path}[{r}][{c}]")
                        for c, cell in enumerate(row)])
    return LinearMap.from_rows(field, entries) if rows and cols else \
        LinearMap.zero(field, rows, cols)


def _parse_field_spec(node, path: str) -> FieldSpec:
    if isinstance(node, str):
        text = node.strip()
        if text in ("QQ", "rational"):
            return FieldSpec.rational()
        m = _FIELD_RE.match(text)
        if m:
            try:
                return FieldSpec.prime(int(m.group(1)))
            except ValueError as exc:
                raise DocumentError(path, str(exc)) from exc
        raise DocumentError(path, f"unrecognized field {text!r}")
    if isinstance(node, dict):
        _check_keys(node, {"kind", "p"}, path)
        kind = _get(node, "kind", path)
        try:
            if kind == "rational":
                if "p" in node:
                    raise DocumentError(path, "rational field takes no p")
                return FieldSpec.rational()
            if kind == "prime":
                return FieldSpec.prime(_expect_index(_get(node, "p", path),
                                                     f"{path}.p"))
        except ValueError as exc:
            raise DocumentError(path, str(exc)) from exc
        raise DocumentError(f"{path}.kind", f"unknown field kind {kind!r}")
    raise DocumentError(path, "expected a field name or mapping")


def _parse_sparse_entries(field: FieldSpec, node, path: str):
    """Sparse tensor rows [{i, j, out: [{k, c}]}] to (i, j, {k: scalar})."""
    entries = []
    for t, item in enumerate(_expect_list(node, path)):
        ipath = f"{path}[{t}]"
        item = _expect_mapping(item, ipath)
        _check_keys(item, _BRACKET_KEYS, ipath)
        i = _expect_index(_get(item, "i", ipath), f"{ipath}.i")
        j = _expect_index(_get(item, "j", ipath), f"{ipath}.j")
        out = {}
        for u, cell in enumerate(_expect_list(_get(item, "out", ipath),
                                              f"{ipath}.out")):
            cpath = f"{ipath}.out[{u}]"
            cell = _expect_mapping(cell, cpath)
            _check_keys(cell, _OUT_KEYS, cpath)
            k = _expect_index(_get(cell, "k", cpath), f"{cpath}.k")
            if k in out:
                raise DocumentError(cpath, f"duplicate output index {k}")
            out[k] = _parse_scalar(field, _get(cell, "c", cpath), f"{cpath}.c")
        entries.append((i, j, out))
    return entries


def _parse_algebra(name: str, node, field: FieldSpec, path: str) -> LieAlgebra:
    node = _expect_mapping(node, path)
    _check_keys(node, _ALGEBRA_KEYS, path)
    dim = _expect_index(_get(node, "dim", path), f"{path}.dim")
    entries = _parse_sparse_entries(field, node.get("brackets", []),
                                    f"{path}.brackets")
    try:
        return LieAlgebra.from_sparse_brackets(name, field, dim, entries)
    except LiecrossError as exc:
        raise DocumentError(path, str(exc)) from exc


def _parse_crossed_module(name: str, node, ws: Workspace,
                          path: str) -> CrossedModule:
    node = _expect_mapping(node, path)
    _check_keys(node, _XMOD_KEYS, path)
    m_alg = _lookup(ws.algebras, _get(node, "m", path), "algebra", f"{path}.m")
    p_alg = _lookup(ws.algebras, _get(node, "p", path), "algebra", f"{path}.p")
    boundary = _parse_matrix(ws.field, _get(node, "boundary", path),
                             p_alg.dim, m_alg.dim, f"{path}.boundary")
    if "action" in node:
        entries = _parse_sparse_entries(ws.field, node["action"], f"{path}.action")
        try:
            action = LieAction.from_sparse(p_alg, m_alg, entries)
        except LiecrossError as exc:
            raise DocumentError(f"{path}.action", str(exc)) from exc
    else:
        action = LieAction.zero(p_alg, m_alg)
    # The parse fixed every shape and the field: the constructor cannot fail.
    return CrossedModule(name, m_alg, p_alg, boundary, action)


def _parse_morphism(node, ws: Workspace, path: str) -> CrossedMorphism:
    node = _expect_mapping(node, path)
    _check_keys(node, _MORPHISM_KEYS, path)
    src, dst = (_lookup(ws.crossed_modules, _get(node, end, path),
                        "crossed module", f"{path}.{end}")
                for end in ("source", "target"))
    f1 = _parse_matrix(ws.field, _get(node, "f1", path),
                       dst.m_algebra.dim, src.m_algebra.dim, f"{path}.f1")
    f0 = _parse_matrix(ws.field, _get(node, "f0", path),
                       dst.p_algebra.dim, src.p_algebra.dim, f"{path}.f0")
    # The parse fixed every shape and the field: the constructor cannot fail.
    return CrossedMorphism(src, dst, f1, f0)


def _parse_derivation(node, ws: Workspace, path: str) -> DerivationCertificate:
    node = _expect_mapping(node, path)
    _check_keys(node, _DERIVATION_KEYS, path)
    base_name = _get(node, "base", path)
    base = _lookup(ws.morphisms, base_name, "morphism", f"{path}.base")
    d = _parse_matrix(ws.field, _get(node, "d", path),
                      base.target.m_algebra.dim, base.source.p_algebra.dim,
                      f"{path}.d")
    return DerivationCertificate(base_name, base, d)


def parse_workspace(text: str) -> Workspace:
    """Parse a document into a resolved Workspace; no axiom validation."""
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "?"
        raise DocumentError("", f"syntax error at {where}") from exc
    if root is None:
        raise DocumentError("", "empty document")
    root = _expect_mapping(root, "")
    _check_keys(root, _TOP_KEYS, "document")
    ws = Workspace(_parse_field_spec(_get(root, "field", "document"), "field"))
    for name, node in _expect_mapping(root.get("algebras", {}),
                                      "algebras").items():
        ws.algebras[str(name)] = _parse_algebra(str(name), node, ws.field,
                                                f"algebras.{name}")
    for name, node in _expect_mapping(root.get("crossed_modules", {}),
                                      "crossed_modules").items():
        ws.crossed_modules[str(name)] = _parse_crossed_module(
            str(name), node, ws, f"crossed_modules.{name}")
    for name, node in _expect_mapping(root.get("morphisms", {}),
                                      "morphisms").items():
        ws.morphisms[str(name)] = _parse_morphism(node, ws,
                                                  f"morphisms.{name}")
    for name, node in _expect_mapping(root.get("derivations", {}),
                                      "derivations").items():
        ws.derivations[str(name)] = _parse_derivation(node, ws,
                                                      f"derivations.{name}")
    return ws


def _matrix_doc(rows: tuple) -> list[list[str]]:
    return [list(map(str, row)) for row in rows]


def _sparse_doc(tensor, antisymmetric: bool) -> list[dict]:
    """Nonzero tensor entries back to 1-based sparse rows (i < j if required)."""
    rows = []
    for i, plane in enumerate(tensor):
        for j, row in enumerate(plane):
            if antisymmetric and i >= j:
                continue
            out = [{"k": k + 1, "c": str(c)} for k, c in enumerate(row) if c]
            if out:
                rows.append({"i": i + 1, "j": j + 1, "out": out})
    return rows


def _name_of(table: dict, value, kind: str, path: str) -> str:
    """The name value is registered under in table; the reverse of _lookup."""
    for name, candidate in table.items():
        if candidate == value:
            return name
    raise DocumentError(path, f"{kind} {value.name!r} is not registered")


def serialize_workspace(ws: Workspace) -> str:
    """Render a workspace back to its document form; parses back equal.

    An algebra whose brackets do not alternate has no document form and
    raises DocumentError; one that fails only Jacobi is written as it is.
    """
    doc: dict = {"field": str(ws.field)}
    for name, alg in ws.algebras.items():
        if validate_lie_algebra(alg).failures_for("antisymmetry"):
            raise DocumentError(f"algebras.{name}", "brackets do not alternate, "
                                "and a document carries only their i < j entries")
    if ws.algebras:
        doc["algebras"] = {
            name: ({"dim": alg.dim, "brackets": brackets}
                   if (brackets := _sparse_doc(alg.structure, True))
                   else {"dim": alg.dim})
            for name, alg in ws.algebras.items()}
    if ws.crossed_modules:
        section = {}
        for name, xm in ws.crossed_modules.items():
            entry = {
                "m": _name_of(ws.algebras, xm.m_algebra, "algebra",
                              f"crossed_modules.{name}"),
                "p": _name_of(ws.algebras, xm.p_algebra, "algebra",
                              f"crossed_modules.{name}"),
                "boundary": _matrix_doc(xm.boundary._numbers),
            }
            action = _sparse_doc(xm.action.tensor, False)
            if action:
                entry["action"] = action
            section[name] = entry
        doc["crossed_modules"] = section
    if ws.morphisms:
        doc["morphisms"] = {
            name: {"source": _name_of(ws.crossed_modules, f.source,
                                      "crossed module", f"morphisms.{name}"),
                   "target": _name_of(ws.crossed_modules, f.target,
                                      "crossed module", f"morphisms.{name}"),
                   "f1": _matrix_doc(f.f1._numbers),
                   "f0": _matrix_doc(f.f0._numbers)}
            for name, f in ws.morphisms.items()}
    if ws.derivations:
        doc["derivations"] = {
            name: {"base": cert.base_name, "d": _matrix_doc(cert.d._numbers)}
            for name, cert in ws.derivations.items()}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
