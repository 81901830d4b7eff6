"""Exhaustive enumeration over prime fields and the homotopy groupoid.

Morphism enumeration does not walk the raw product of both matrix spaces.
Each component space is scanned once for the Lie-morphism property (the scan
is cached per algebra pair), survivors are joined on the boundary-square
condition via a bucket key, and only joined pairs get the equivariance
check.  The output order still matches the odometer over concatenated
(f1, f0) entries, so results are identical to a full product scan.

All kernel work happens on plain integer residues; exact Scalar objects are
only materialized for accepted results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import mul

from . import _kernels
from ._kernels import decode
from .algebras import CrossedModule, LieAction, LieAlgebra
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    FiniteFieldRequiredError,
    InvariantError,
)
from .fields import FieldSpec, same_field
from .homotopy import Derivation, identity_homotopy, shift_morphism
from .linalg import LinearMap
from .morphisms import CrossedMorphism, validate_crossed_morphism
from .validation import ValidationReport

DEFAULT_BUDGET = 100_000_000

_scan_cache: dict[tuple, tuple[int, ...]] = {}
_scan_cache_lock = threading.Lock()


@dataclass(frozen=True)
class Arrow:
    """One groupoid arrow: derivation anchored at objects[src], into objects[dst]."""

    src: int
    dst: int
    derivation: Derivation


@dataclass(frozen=True)
class HomGroupoid:
    """All morphisms between two crossed modules and all homotopies between them."""

    source_module: CrossedModule
    target_module: CrossedModule
    objects: tuple[CrossedMorphism, ...]
    arrows: tuple[Arrow, ...]

    def arrows_from(self, i: int) -> list[Arrow]:
        return [a for a in self.arrows if a.src == i]

    def __str__(self):
        return (f"HOM({self.source_module.name}, {self.target_module.name}): "
                f"{len(self.objects)} objects, {len(self.arrows)} arrows")


def _require_prime(field: FieldSpec):
    if not field.is_prime_field:
        raise FiniteFieldRequiredError()


def _check_budget(space: int, budget: int, what: str):
    if space > budget:
        raise BudgetExceededError(space, budget, what)


def _flat_structure(algebra: LieAlgebra) -> tuple[int, ...]:
    n = algebra.dim
    c = algebra.structure
    return tuple(c[i][j][k].num
                 for i in range(n) for j in range(n) for k in range(n))


def _digit_matrix(index: int, p: int, rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    d = decode(index, p, rows * cols)
    return tuple(tuple(d[r * cols:(r + 1) * cols]) for r in range(rows))


def _matrices_from_indices(field: FieldSpec, indices, rows: int,
                           cols: int) -> list[LinearMap]:
    """The matrices named by candidate indices, built from shared scalars.

    Row r of a matrix is base-p digit block r of its index.  Survivors repeat
    rows a lot, so each distinct row is built once and shared.
    """
    p = field.p
    residues = field._residues
    width = p ** cols
    shifts = [width ** (rows - 1 - r) for r in range(rows)]
    built: dict[int, tuple] = {}
    out = []
    for index in indices:
        entries = []
        for shift in shifts:
            value = index // shift % width
            row = built.get(value)
            if row is None:
                row = built[value] = tuple([residues[d]
                                            for d in decode(value, p, cols)])
            entries.append(row)
        out.append(LinearMap(field, rows, cols, tuple(entries)))
    return out


def _matmul_mod(a, b, cols: int, p: int) -> tuple[tuple[int, ...], ...]:
    """a . b mod p, for b with the given column count (b may have no rows)."""
    b_cols = [[row[c] for row in b] for c in range(cols)]
    return tuple([tuple([sum(map(mul, row, col)) % p for col in b_cols])
                  for row in a])


def _lie_morphism_scan(p: int, dom: LieAlgebra, cod: LieAlgebra) -> tuple[int, ...]:
    """Cached full scan of Lie morphisms dom -> cod over GF(p)."""
    dom_br = _flat_structure(dom)
    cod_br = _flat_structure(cod)
    key = (p, dom_br, cod_br, cod.dim, dom.dim)
    with _scan_cache_lock:
        hit = _scan_cache.get(key)
    if hit is not None:
        return hit
    found = tuple(_kernels.scan_lie_morphisms(p, dom_br, cod_br, cod.dim, dom.dim,
                                              0, p ** (cod.dim * dom.dim)))
    with _scan_cache_lock:
        _scan_cache[key] = found
    return found


def _action_matrices(action: LieAction) -> list[tuple[tuple[int, ...], ...]]:
    """mats[i][r][b] = r-th coordinate of e_i . e_b, as plain residues."""
    t = action.tensor
    m = action.acted.dim
    return [tuple(tuple(t[i][b][r].num for b in range(m)) for r in range(m))
            for i in range(action.actor.dim)]


def _acting_matrix(coords, mats, dim: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The matrix of v = sum_a coords[a] e_a acting on the dim-dimensional
    module: sum_a coords[a] * mats[a]."""
    acc = [[0] * dim for _ in range(dim)]
    for c, mat in zip(coords, mats):
        if not c:
            continue
        for acc_row, row in zip(acc, mat):
            for b, v in enumerate(row):
                acc_row[b] += c * v
    return tuple(tuple(v % p for v in row) for row in acc)


def _columns(m, cols: int) -> list[tuple[int, ...]]:
    return [tuple(row[i] for row in m) for i in range(cols)]


def enumerate_morphisms(source: CrossedModule, target: CrossedModule,
                        budget: int = DEFAULT_BUDGET,
                        workers: int = 1) -> list[CrossedMorphism]:
    """All crossed-module morphisms source -> target over a prime field.

    Results are sorted by the base-p odometer over concatenated (f1, f0)
    matrix entries, f1 block most significant; deterministic for fixed
    inputs.  workers is accepted for compatibility and has no effect: the
    scans run in the calling thread.
    """
    if not same_field(source.field, target.field):
        raise FieldMismatchError("modules over different fields")
    _require_prime(source.field)
    field = source.field
    p = field.p
    dm, dm2 = source.m_algebra.dim, target.m_algebra.dim
    dp, dp2 = source.p_algebra.dim, target.p_algebra.dim
    _check_budget(p ** (dm2 * dm), budget, "f1 component scan")
    _check_budget(p ** (dp2 * dp), budget, "f0 component scan")

    s1 = _lie_morphism_scan(p, source.m_algebra, target.m_algebra)
    s0 = _lie_morphism_scan(p, source.p_algebra, target.p_algebra)
    if not s1 or not s0:
        return []

    b_src = source.boundary._residue_rows
    b_dst = target.boundary._residue_rows

    act_src = _action_matrices(source.action)
    act_dst = _action_matrices(target.action)

    # Bucket f0 survivors by their side of the square, f0 . boundary, each
    # with rho'(f0 e_i), the action of its columns on M' (columns repeat).
    acting: dict[tuple[int, ...], tuple] = {}
    buckets: dict[tuple, list[tuple[int, tuple]]] = {}
    for idx0 in s0:
        f0 = _digit_matrix(idx0, p, dp2, dp)
        rho = []
        for col in _columns(f0, dp):
            if col not in acting:
                acting[col] = _acting_matrix(col, act_dst, dm2, p)
            rho.append(acting[col])
        buckets.setdefault(_matmul_mod(f0, b_src, dm, p), []).append((idx0, tuple(rho)))

    accepted: list[tuple[int, int]] = []
    for idx1 in s1:
        f1 = _digit_matrix(idx1, p, dm2, dm)
        group = buckets.get(_matmul_mod(b_dst, f1, dm, p))
        if not group:
            continue
        # Equivariance, f1 . rho(e_i) = rho'(f0 e_i) . f1 for every basis
        # vector e_i of P, depends on f1 and rho' only; many f0 share rho'.
        lhs = [_matmul_mod(f1, mat, dm, p) for mat in act_src]
        verdicts: dict[tuple, bool] = {}
        for idx0, rho in group:
            ok = verdicts.get(rho)
            if ok is None:
                ok = verdicts[rho] = all(_matmul_mod(r, f1, dm, p) == l
                                         for r, l in zip(rho, lhs))
            if ok:
                accepted.append((idx1, idx0))

    f1s = _matrices_from_indices(field, [idx1 for idx1, _ in accepted], dm2, dm)
    f0s = _matrices_from_indices(field, [idx0 for _, idx0 in accepted], dp2, dp)
    return [CrossedMorphism(source, target, f1, f0) for f1, f0 in zip(f1s, f0s)]


def enumerate_derivations(f: CrossedMorphism, budget: int = DEFAULT_BUDGET,
                          workers: int = 1) -> list[Derivation]:
    """All derivations along f over a prime field, in odometer order.

    workers is accepted for compatibility and has no effect.
    """
    _require_prime(f.source.field)
    field = f.source.field
    p = field.p
    rows = f.target.m_algebra.dim
    cols = f.source.p_algebra.dim
    _check_budget(p ** (rows * cols), budget, "derivation scan")

    dom_br = _flat_structure(f.source.p_algebra)
    cod_br = _flat_structure(f.target.m_algebra)
    mats = _action_matrices(f.target.action)
    rho = [_acting_matrix(col, mats, rows, p)
           for col in _columns(f.f0._residue_rows, cols)]
    act_flat = tuple(rho[i][r][b]
                     for i in range(cols) for b in range(rows) for r in range(rows))

    found = _kernels.scan_derivations(p, dom_br, act_flat, cod_br, rows, cols,
                                      0, p ** (rows * cols))
    return [Derivation(f, d) for d in _matrices_from_indices(field, found, rows, cols)]


def build_hom_groupoid(source: CrossedModule, target: CrossedModule,
                       budget: int = DEFAULT_BUDGET,
                       workers: int = 1) -> HomGroupoid:
    """Objects, then all derivations at each object with resolved targets.

    Every homotopy target is itself a morphism, so it was enumerated; when
    one is missing (the modules break an axiom they were not validated
    against) InvariantError carries the target's morphism report.  workers
    has no effect.
    """
    objects = enumerate_morphisms(source, target, budget=budget)
    position = {(f.f1._residue_rows, f.f0._residue_rows): i
                for i, f in enumerate(objects)}
    arrows = []
    for i, f in enumerate(objects):
        for der in enumerate_derivations(f, budget=budget):
            g = shift_morphism(f, der.d)
            j = position.get((g.f1._residue_rows, g.f0._residue_rows))
            if j is None:
                raise InvariantError(
                    f"a homotopy target at object {i} is missing from the "
                    "object list", validate_crossed_morphism(g))
            arrows.append(Arrow(i, j, der))
    return HomGroupoid(source, target, tuple(objects), tuple(arrows))


def validate_groupoid(groupoid: HomGroupoid) -> ValidationReport:
    """Exhaustively verify endpoint bookkeeping and the groupoid laws."""
    report = ValidationReport(
        f"HOM({groupoid.source_module.name}, {groupoid.target_module.name})")
    for check in ("endpoints", "identity", "inverse", "associativity"):
        report.record(check)

    objects = groupoid.objects
    arrows = groupoid.arrows

    # Arrow endpoints: anchored at objects[src], shifting onto objects[dst].
    targets = []
    for t, a in enumerate(arrows):
        der = a.derivation
        shifted = shift_morphism(der.source_morphism, der.d)
        targets.append(shifted)
        if der.source_morphism != objects[a.src]:
            report.fail("endpoints", (t + 1,),
                        "arrow anchor", f"objects[{a.src}]")
        if shifted != objects[a.dst]:
            report.fail("endpoints", (t + 1,),
                        "arrow target", f"objects[{a.dst}]")

    by_key = {(a.src, a.derivation.d._residue_rows): t
              for t, a in enumerate(arrows)}

    def zero_key(i: int):
        return (i, identity_homotopy(objects[i]).d._residue_rows)

    # Identity arrows exist and are two-sided units.
    for i in range(len(objects)):
        if zero_key(i) not in by_key:
            report.fail("identity", (i + 1,), "no identity arrow", "zero derivation")
    for t, a in enumerate(arrows):
        der = a.derivation
        left = identity_homotopy(objects[a.src]).d + der.d
        right = der.d + identity_homotopy(objects[a.dst]).d
        if left != der.d or right != der.d:
            report.fail("identity", (t + 1,), "unit law", "arrow unchanged")

    # Inverses: -d anchored at the target, composing to identities both ways.
    zero_maps = {i: identity_homotopy(objects[i]).d for i in range(len(objects))}
    for t, a in enumerate(arrows):
        inv_key = (a.dst, (-a.derivation.d)._residue_rows)
        if inv_key not in by_key:
            report.fail("inverse", (t + 1,), "no inverse arrow", "-d at target")
            continue
        round_trip = a.derivation.d + (-a.derivation.d)
        if round_trip != zero_maps[a.src]:
            report.fail("inverse", (t + 1,), round_trip, zero_maps[a.src])

    # Associativity on all composable triples; composition adds the d's.
    out_of: dict[int, list[int]] = {}
    for t, a in enumerate(arrows):
        out_of.setdefault(a.src, []).append(t)
    for t1, a in enumerate(arrows):
        for t2 in out_of.get(a.dst, ()):
            b = arrows[t2]
            ab = a.derivation.d + b.derivation.d
            for t3 in out_of.get(b.dst, ()):
                c = arrows[t3]
                lhs = ab + c.derivation.d
                rhs = a.derivation.d + (b.derivation.d + c.derivation.d)
                if lhs != rhs:
                    report.fail("associativity", (t1 + 1, t2 + 1, t3 + 1), lhs, rhs)
    return report


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def homotopy_classes(groupoid: HomGroupoid) -> list[list[int]]:
    """Connected components of the groupoid, as sorted 0-based object indices.

    Components are ordered by smallest member.  Directed and undirected
    reachability agree because every arrow has an inverse.  The symmetry is
    checked rather than re-proved: an arrow i -> j without some arrow
    j -> i raises InvariantError, whose report names the first such pair.
    """
    edges = {(a.src, a.dst) for a in groupoid.arrows}
    one_way = min(((i, j) for i, j in edges if (j, i) not in edges), default=None)
    if one_way is not None:
        i, j = one_way
        report = ValidationReport(str(groupoid))
        report.fail("inverse", (i + 1, j + 1), f"arrow {i} -> {j}",
                    f"no arrow {j} -> {i}")
        raise InvariantError("arrow set is not symmetric", report)
    uf = _UnionFind(len(groupoid.objects))
    for i, j in edges:
        uf.union(i, j)
    components: dict[int, list[int]] = {}
    for i in range(len(groupoid.objects)):
        components.setdefault(uf.find(i), []).append(i)
    return [sorted(members) for _, members in sorted(components.items())]
