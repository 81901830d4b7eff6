"""Exhaustive enumeration over prime fields and the homotopy groupoid.

Morphism enumeration does not walk the raw product of both matrix spaces.
Each component space is scanned once for the Lie-morphism property (its
survivors' residue rows are cached per algebra pair), survivors are
joined on the boundary-square condition via a bucket key, and only joined
pairs get the equivariance check.  The output order still matches the
odometer over concatenated (f1, f0) entries, so results are identical to a
full product scan.

All kernel and join work happens on plain integer residues, and survivors
stay residue rows until a result item is built: both enumerations return a
LazySequence whose LinearMaps of exact Scalars, and the CrossedMorphism or
Derivation around them, are built on access.  Equal matrices in one result
share one LinearMap.

build_hom_groupoid scans derivations once per homotopy class, at the class's
first object f.  Arrows compose by adding derivations and f => g by d_g has
the inverse -d_g at g, so the derivations at another member g are exactly
d_h - d_g for d_h in Der(f), ending where d_h does: they are residue
differences, with no further scan or shift.  That argument needs the
crossed-module axioms, so both modules are validated before any arrow is
derived.  validate_groupoid stays independent of it: it adds the
derivations of each composable pair once into a composition table that
names each arrow by (src, d).  An arrow answers to at most one name, so both
bracketings of a triple look up the same name and associativity is reported
as closure; the unit and inverse laws are one lookup each.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, mul

from . import _kernels
from ._kernels import decode
from .algebras import (
    CrossedModule,
    LieAction,
    LieAlgebra,
    _flat_structure,
    validate_action,
    validate_crossed_module,
    validate_lie_algebra,
)
from .errors import (
    BudgetExceededError,
    FieldMismatchError,
    FiniteFieldRequiredError,
    InvariantError,
)
from .fields import FieldSpec, same_field
from .homotopy import Derivation, shift_morphism
from .linalg import LinearMap
from .morphisms import CrossedMorphism, validate_crossed_morphism
from .validation import ValidationReport

DEFAULT_BUDGET = 100_000_000

# A matrix over GF(p) as a tuple of rows of residues.
Rows = tuple[tuple[int, ...], ...]


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


class LazySequence(Sequence):
    """A read-only sequence whose items are built on first access.

    make(k) builds item k; each item is built once and then returned again
    on every later access.  Length, negative indices, slices (as lists) and
    iteration behave as on a list of the built items.
    """

    __slots__ = ("_items", "_make")

    def __init__(self, length: int, make: Callable[[int], object]):
        self._items: list = [None] * length
        self._make = make

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self._items)))]
        items = self._items
        item = items[k]
        if item is None:
            item = items[k] = self._make(k % len(items))
        return item

    def __iter__(self):
        items, make = self._items, self._make
        for k, item in enumerate(items):
            if item is None:
                item = items[k] = make(k)
            yield item


class _Memo(dict):
    """key -> fn(key), computed on the first lookup of each key."""

    def __init__(self, fn: Callable):
        super().__init__()
        self._fn = fn

    def __missing__(self, key):
        value = self[key] = self._fn(key)
        return value


def _row_decoder(p: int, rows: int, cols: int) -> Callable[[int], Rows]:
    """index -> the residue rows of the rows x cols matrix it names: row r is
    base-p digit block r of the index, each distinct block decoded once."""
    width = p ** cols
    shifts = [width ** (rows - 1 - r) for r in range(rows)]
    made = _Memo(lambda value: tuple(decode(value, p, cols))).__getitem__
    return lambda index: tuple([made(index // shift % width) for shift in shifts])


def _map_maker(field: FieldSpec, rows: int, cols: int) -> _Memo:
    """Residue rows -> the rows x cols LinearMap they name over field: each
    distinct row is lowered once and each distinct matrix makes one map."""
    lowered = _Memo(lambda row: tuple(map(field._lower, row))).__getitem__
    return _Memo(lambda m: LinearMap(field, rows, cols, tuple(map(lowered, m))))


def _transpose(m: Rows, cols: int) -> Rows:
    """The transpose of a matrix with the given column count (it may have no rows)."""
    return tuple(zip(*m)) if m else ((),) * cols


def _weights(rows: int, cols: int, p: int) -> list[list[int]]:
    """weights[r][c] = p ** (number of entries after (r, c) in row-major
    order): a rows x cols matrix is coded as the sum of its entries times
    their weights, its index among base-p candidates."""
    return [[p ** ((rows - 1 - r) * cols + cols - 1 - c) for c in range(cols)]
            for r in range(rows)]


def _shares(vectors: Rows, weights: list[int], p: int) -> _Memo:
    """v -> sum of (v . w mod p) * weight over the vectors w and their weights,
    memoized per distinct v."""
    pairs = list(zip(vectors, weights))
    return _Memo(lambda v: sum([sum(map(mul, v, w)) % p * k for w, k in pairs]))


def _row_shares(b: Rows, b_cols: int, weights: list[list[int]], p: int) -> list[_Memo]:
    """Memos that code A . B row by row: memo r maps row r of A to row r's
    share of the code, so the code is sum(map(getitem, memos, A))."""
    columns = _transpose(b, b_cols)
    return [_shares(columns, row, p) for row in weights]


def _column_shares(a: Rows, weights: list[list[int]], cols: int, p: int) -> list[_Memo]:
    """Memos that code A . B column by column: memo j maps column j of B to
    column j's share, so the code is sum(map(getitem, memos, zip(*B)))."""
    return [_shares(a, [row[j] for row in weights], p) for j in range(cols)]


@lru_cache(maxsize=64)
def _lie_morphism_scan(dom: LieAlgebra, cod: LieAlgebra) -> tuple[Rows, ...]:
    """Cached full scan of Lie morphisms dom -> cod over their prime field:
    the survivors' matrices as residue rows, in odometer order.  Algebra
    equality covers the field, the dimension and the tensor, so equal pairs
    share one entry."""
    p = dom.field.p
    found = _kernels.scan_lie_morphisms(
        p, _flat_structure(dom), _flat_structure(cod), cod.dim, dom.dim,
        0, p ** (cod.dim * dom.dim))
    return tuple(map(_row_decoder(p, cod.dim, dom.dim), found))


def _acting_matrix(action: LieAction, coords) -> Rows:
    """The residue matrix of v = sum_a coords[a] e_a acting on the acted
    module: entry (r, b) is the r-th coordinate of v . e_b."""
    p = action.field.p
    return tuple(tuple(v % p for v in row) for row in action._matrix(coords))


def enumerate_morphisms(source: CrossedModule, target: CrossedModule,
                        budget: int = DEFAULT_BUDGET,
                        workers: int = 1) -> Sequence[CrossedMorphism]:
    """All crossed-module morphisms source -> target over a prime field.

    Results are sorted by the base-p odometer over concatenated (f1, f0)
    matrix entries, f1 block most significant; deterministic for fixed
    inputs.  The result is a LazySequence: each morphism is built on first
    access.  workers is accepted for compatibility and has no effect: the
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

    f1s = _lie_morphism_scan(source.m_algebra, target.m_algebra)
    f0s = _lie_morphism_scan(source.p_algebra, target.p_algebra)

    # The boundary square boundary' . f1 = f0 . boundary, as a bucket join
    # on the code of each side: column j of boundary' . f1 depends on column
    # j of f1 only, row r of f0 . boundary on row r of f0 only, so both codes
    # are sums of per-distinct-vector shares.  Only the f0 whose code some
    # f1 has are kept.
    square = _weights(dp2, dm, p)
    f1_side = _column_shares(target.boundary._raw_rows, square, dm, p)
    f0_side = _row_shares(source.boundary._raw_rows, dm, square, p)
    f1_keys = [sum(map(getitem, f1_side, zip(*f1))) for f1 in f1s]
    wanted = set(f1_keys)
    buckets: dict[int, list[int]] = {}
    for k0, f0 in enumerate(f0s):
        key = sum(map(getitem, f0_side, f0))
        if key in wanted:
            buckets.setdefault(key, []).append(k0)

    # rho'(f0 e_i), the action of column i of f0 on M', only for the f0 in a
    # bucket.  Each distinct action matrix gets an id, and each distinct
    # rho' (a tuple of action ids) gets an id of its own.
    acting_ids: dict[Rows, int] = {}
    acting = _Memo(lambda col: acting_ids.setdefault(
        _acting_matrix(target.action, col), len(acting_ids))).__getitem__
    rho_ids: dict[tuple[int, ...], int] = {}
    rho_of = [0] * len(f0s)
    for bucket in buckets.values():
        for k0 in bucket:
            rho_of[k0] = rho_ids.setdefault(
                tuple(map(acting, _transpose(f0s[k0], dp))), len(rho_ids))
    rhos = list(rho_ids)

    # Equivariance, f1 . rho(e_i) = rho'(f0 e_i) . f1 for every basis vector
    # e_i of P, compared on codes: the left side row by row of f1, the right
    # side column by column.  Each (i, action id) verdict is shared by every
    # f0 of the bucket that needs it.
    equivariance = _weights(dm2, dm, p)
    basis = [tuple(int(a == i) for a in range(dp)) for i in range(dp)]
    lhs_side = [_row_shares(_acting_matrix(source.action, e), dm, equivariance, p)
                for e in basis]
    rhs_side = [_column_shares(mat, equivariance, dm, p) for mat in acting_ids]
    out1, out0 = [], []  # the survivors' f1 and f0 rows, position for position
    for f1, key in zip(f1s, f1_keys):
        bucket = buckets.get(key)
        if bucket is None:
            continue
        columns = tuple(zip(*f1))
        lhs = [sum(map(getitem, shares, f1)) for shares in lhs_side]
        verdicts: dict[tuple[int, int], bool] = {}
        ok = set()
        for rid in {rho_of[k0] for k0 in bucket}:
            for i, mid in enumerate(rhos[rid]):
                holds = verdicts.get((i, mid))
                if holds is None:
                    holds = verdicts[i, mid] = (
                        sum(map(getitem, rhs_side[mid], columns)) == lhs[i])
                if not holds:
                    break
            else:
                ok.add(rid)
        if ok:
            passed = [f0s[k0] for k0 in bucket if rho_of[k0] in ok]
            out1 += [f1] * len(passed)
            out0 += passed

    f1_map = _map_maker(field, dm2, dm)
    f0_map = _map_maker(field, dp2, dp)
    return LazySequence(len(out1), lambda k: CrossedMorphism(
        source, target, f1_map[out1[k]], f0_map[out0[k]]))


def enumerate_derivations(f: CrossedMorphism, budget: int = DEFAULT_BUDGET,
                          workers: int = 1) -> Sequence[Derivation]:
    """All derivations along f over a prime field, in odometer order.

    The result is a LazySequence: each derivation is built on first access.
    workers is accepted for compatibility and has no effect.
    """
    _require_prime(f.source.field)
    field = f.source.field
    p = field.p
    rows = f.target.m_algebra.dim
    cols = f.source.p_algebra.dim
    _check_budget(p ** (rows * cols), budget, "derivation scan")

    found = _kernels.scan_derivations(
        p, _flat_structure(f.source.p_algebra), f._f0_action,
        _flat_structure(f.target.m_algebra), rows, cols, 0, p ** (rows * cols))
    rows_of = _row_decoder(p, rows, cols)
    d_map = _map_maker(field, rows, cols)
    return LazySequence(len(found), lambda k: Derivation(f, d_map[rows_of(found[k])]))


def _module_report(source: CrossedModule, target: CrossedModule) -> ValidationReport:
    """Every axiom of both modules in one report: the algebras, the action and
    the crossed-module axioms, each module once."""
    report = ValidationReport(f"HOM({source.name}, {target.name})")
    for xmod in (source,) if target == source else (source, target):
        report.merge(validate_lie_algebra(xmod.m_algebra))
        report.merge(validate_lie_algebra(xmod.p_algebra))
        report.merge(validate_action(xmod.action))
        report.merge(validate_crossed_module(xmod))
    return report


def _class_scans(source: CrossedModule, target: CrossedModule,
                 budget: int) -> tuple[Sequence[CrossedMorphism],
                                       list[list[tuple[Rows, int]]]]:
    """The objects, and one derivation scan per homotopy class.

    Classes come in the order of their first object f, where the scan runs:
    one enumerate_derivations and one shift_morphism per derivation, each
    shifted map looked up among the objects.  A scan is the list of
    (d rows, target index) of the derivations at f, in odometer order; its
    targets are f's class.  A missing target (the modules break an axiom
    they were not validated against) raises InvariantError with the
    target's morphism report.  After the first scan both modules are
    validated: the four algebras, the actions and the crossed-module
    axioms.  A failure raises InvariantError with the merged report.
    """
    objects = enumerate_morphisms(source, target, budget=budget)
    position = {(f.f1._raw_rows, f.f0._raw_rows): i
                for i, f in enumerate(objects)}
    scans = []
    classed = [False] * len(objects)
    for i, f in enumerate(objects):
        if classed[i]:
            continue
        reach = []
        for der in enumerate_derivations(f, budget=budget):
            g = shift_morphism(f, der.d)
            j = position.get((g.f1._raw_rows, g.f0._raw_rows))
            if j is None:
                raise InvariantError(
                    f"a homotopy target at object {i} is missing from the "
                    "object list", validate_crossed_morphism(g))
            reach.append((der.d._raw_rows, j))
        if i == 0:
            report = _module_report(source, target)
            if not report.ok:
                raise InvariantError("a module of the hom-groupoid fails an axiom",
                                     report)
        for _, j in reach:
            classed[j] = True
        scans.append(reach)
    return objects, scans


def build_hom_groupoid(source: CrossedModule, target: CrossedModule,
                       budget: int = DEFAULT_BUDGET,
                       workers: int = 1) -> HomGroupoid:
    """Objects, then all derivations at each object with resolved targets.

    Derivations are scanned once per homotopy class, at the first object f
    not yet in a class, with the checks and errors of _class_scans: a
    missing target or a module that fails an axiom raises InvariantError
    before any arrow is derived.  Every other member g of the class,
    reached from f by some d_g, gets the derivations d_h - d_g for d_h in
    Der(f), each ending where d_h does.  Each object's arrows are sorted by
    their rows, the odometer order of a scan at that object.  workers has
    no effect.
    """
    objects, scans = _class_scans(source, target, budget)
    p = source.field.p
    d_map = _map_maker(source.field, target.m_algebra.dim, source.p_algebra.dim)
    minus = _Memo(lambda rs: tuple([(a - b) % p for a, b in zip(*rs)]))
    # out_of[j] lists (d rows, target) of the arrows at object j.
    out_of: list[list[tuple[Rows, int]]] = [[] for _ in objects]
    for reach in scans:
        anchors: dict[int, Rows] = {}
        for d, j in reach:
            anchors.setdefault(j, d)
        for j, d_j in anchors.items():
            out_of[j] = sorted((tuple(map(minus.__getitem__, zip(d, d_j))), h)
                               for d, h in reach)
    arrows = [Arrow(j, h, Derivation(g, d_map[d]))
              for j, g in enumerate(objects) for d, h in out_of[j]]
    return HomGroupoid(source, target, tuple(objects), tuple(arrows))


def validate_groupoid(groupoid: HomGroupoid) -> ValidationReport:
    """Exhaustively verify endpoint bookkeeping, closure and the groupoid laws.

    Each composable pair is added once into a table of arrows, where (src, d)
    names the later of two equal arrows; a sum naming no arrow into the
    pair's end fails associativity there.  The unit and inverse laws are one
    lookup each in the table; arrows at an object without an identity loop
    skip them.  An arrow answers to at most one name, its own, so nothing
    else can fail:
    - (t1 t2) t3 and t1 (t2 t3) both look up (src1, d1 + d2 + d3) and must
      end where t3 does, so associativity is reported as closure;
    - e t and t e', for the identities e and e' at t's ends, both look up
      t's own name and must end where t does;
    - t s = e names e, so d_s = -d_t, and s t looks up the zero derivation
      at t's end, which is e'.
    """
    source, target = groupoid.source_module, groupoid.target_module
    objects, arrows = groupoid.objects, groupoid.arrows
    report = ValidationReport(f"HOM({source.name}, {target.name})",
                              ["endpoints", "identity", "inverse", "associativity"])

    # Arrow endpoints: anchored at objects[src], shifting onto objects[dst].
    # An arrow with an endpoint that names no object, or whose d is no
    # dim M' x dim P map over the field, is kept out of the laws.
    objs = range(len(objects))
    shape = (target.m_algebra.dim, source.p_algebra.dim)
    kept = []
    for t, a in enumerate(arrows):
        f, d = a.derivation.source_morphism, a.derivation.d
        for end, i, got in (("anchor", a.src, f),
                            ("target", a.dst, shift_morphism(f, d))):
            if i not in objs:
                report.fail("endpoints", (t + 1,), f"arrow {end}",
                            f"objects[{i}], out of range")
            elif got != objects[i]:
                report.fail("endpoints", (t + 1,), f"arrow {end}", f"objects[{i}]")
        fits = (d.rows, d.cols) == shape and same_field(d.field, source.field)
        if a.src in objs and a.dst in objs and fits:
            kept.append(t)

    by_key = {(arrows[t].src, arrows[t].derivation.d._raw_rows): t for t in kept}
    out_of: list[list[int]] = [[] for _ in objects]
    for t in kept:
        out_of[arrows[t].src].append(t)
    pos = {t: k for out in out_of for k, t in enumerate(out)}

    # table[t][k] composes t with out_of[arrows[t].dst][k]; None if missing.
    # d1 + d2 is summed on raw rows, each distinct pair of rows once.
    lift, lower = source.field._lift, source.field._lower
    plus = _Memo(lambda rs: tuple([lift(lower(x + y)) for x, y in zip(*rs)]))
    table: list[list[int | None]] = [[] for _ in arrows]
    for t1 in kept:
        a, row = arrows[t1], table[t1]
        d1 = a.derivation.d._raw_rows
        for t2 in out_of[a.dst]:
            b = arrows[t2]
            d12 = tuple(map(plus.__getitem__, zip(d1, b.derivation.d._raw_rows)))
            t12 = by_key.get((a.src, d12))
            if t12 is None or arrows[t12].dst != b.dst:
                report.fail("associativity", (t1 + 1, t2 + 1),
                            "no composite arrow", f"d1 + d2 into objects[{b.dst}]")
                t12 = None
            row.append(t12)

    # Identities are zero-derivation loops; inverses compose to them.
    zero = LinearMap.zero(source.field, *shape)._raw_rows
    ident = [by_key.get((i, zero)) for i in range(len(objects))]
    for i, e in enumerate(ident):
        if e is None or arrows[e].dst != i:
            ident[i] = None
            report.fail("identity", (i + 1,), "no identity arrow", "zero derivation")
    for t in kept:
        a = arrows[t]
        home, away, row = ident[a.src], ident[a.dst], table[t]
        if home is None or away is None:
            continue
        if row[pos[away]] != t:
            report.fail("identity", (t + 1,), "unit law", "arrow unchanged")
        if home not in row:
            report.fail("inverse", (t + 1,), "no inverse arrow", "-d at target")
    return report


def homotopy_classes(groupoid: HomGroupoid) -> list[list[int]]:
    """Connected components of the groupoid, as sorted 0-based object indices.

    An arrow whose src or dst names no object raises InvariantError with an
    endpoints report, as validate_groupoid words it.  Every arrow has an
    inverse, so directed reachability is the component; the symmetry is
    checked rather than re-proved: an arrow i -> j without some arrow
    j -> i raises InvariantError, whose report names the first such pair.
    The classes are then one walk along the arrows, each started at the
    first object not yet in a class, so they come ordered by smallest
    member.
    """
    objs = range(len(groupoid.objects))
    report = ValidationReport(str(groupoid))
    for t, a in enumerate(groupoid.arrows):
        for end, i in (("anchor", a.src), ("target", a.dst)):
            if i not in objs:
                report.fail("endpoints", (t + 1,), f"arrow {end}",
                            f"objects[{i}], out of range")
    if not report.ok:
        raise InvariantError("an arrow endpoint names no object", report)
    edges = {(a.src, a.dst) for a in groupoid.arrows}
    one_way = min(((i, j) for i, j in edges if (j, i) not in edges), default=None)
    if one_way is not None:
        i, j = one_way
        report.fail("inverse", (i + 1, j + 1), f"arrow {i} -> {j}",
                    f"no arrow {j} -> {i}")
        raise InvariantError("arrow set is not symmetric", report)
    reach: list[list[int]] = [[] for _ in objs]
    for i, j in edges:
        reach[i].append(j)
    classed = [False] * len(objs)
    classes = []
    for i in objs:
        if classed[i]:
            continue
        classed[i] = True
        members = [i]
        for k in members:  # members grows as the walk reaches new objects
            for j in reach[k]:
                if not classed[j]:
                    classed[j] = True
                    members.append(j)
        classes.append(sorted(members))
    return classes
