"""The compiled laws, and the two scans behind morphism and derivation search.

One compiler writes the laws of the morphism searches and their validators
as residue terms: the derivation law (the Lie-morphism law is its
zero-action case), and equivariance and the boundary square of a
crossed-module morphism.  Each *_law function yields one constraint per
basis tuple and output coordinate: a list of monomials (c, positions) over
the row-major positions of the unknown matrices, where positions is (t,)
for a linear term and (s, t) for a bilinear one.  A constraint is the
coordinate's lhs - rhs, so it holds when its monomials sum to zero.  The
derivation law is written on every ordered pair (i, j), so nothing rests on
the brackets alternating, and both readers take each distinct constraint
once (_distinct).  The checks run in two stages:

* The scans file the derivation law by highest position and walk the
  digits depth first (below).
* A Law compiles its laws for evaluation at a point.
  validate_crossed_morphism and is_f0_derivation first evaluate their Law
  at the lifted entries of the maps under test and return the passing
  report when every constraint vanishes; only an input that fails goes
  through the checks on vectors that build the witnesses.

A candidate index names a rows x cols matrix over GF(p): entries are base-p
digits of the index in row-major order, first entry most significant.  Each
scan returns the indices in a contiguous range whose matrix passes the
kernel's condition, in ascending order.

The scan is a depth-first walk over digit positions.  Every (i, j, r)
constraint of the law is linear or bilinear in the digits (quadratic in one
digit for an i = j constraint of a bracket that does not alternate), so its
value is fixed once the digits up to its highest position are; it is filed
under that position.  The walk sets digit t to 0..p-1, tests only the
constraints filed at t and goes one digit deeper only when they all hold, so
no failing prefix is extended.  Leaves arrive in ascending index order and
are kept when their index lies in the range: the survivors of a
candidate-by-candidate walk.

All tensor arguments are flat tuples of lifted numbers (residues over
GF(p)): bracket tensors are indexed by (i*dim + j)*dim + k, action tensors
by (i*acted + j)*acted + k, and the action table of a derivation law by
(i*rows + b)*rows + r, where act[(i*rows + b)*rows + r] is the r-th
coordinate of f0(e_i) acting on the b-th codomain basis vector.
"""

from __future__ import annotations

from operator import itemgetter, mul

# Reported as liecross.KERNEL_BACKEND: the kernels are plain Python.
BACKEND = "pure"


def derivation_law(dom_br, act, cod_br, rows, cols, at=0):
    """Constraint (i, j, r) for every ordered pair i, j < cols and r < rows,
    in that lexicographic order: the r-th coordinate of

        D[e_i, e_j] - f0(e_i).D(e_j) + f0(e_j).D(e_i) - [D(e_i), D(e_j)]

    for a rows x cols matrix D whose entries start at position at.
    act=None stands for the zero action, which leaves the Lie-morphism law
    F[e_i, e_j] - [F(e_i), F(e_j)].
    """
    for i in range(cols):
        for j in range(cols):
            base = (i * cols + j) * cols
            for r in range(rows):
                terms = [(dom_br[base + k], (at + r * cols + k,)) for k in range(cols)]
                if act is not None:
                    for b in range(rows):
                        terms.append((-act[(i * rows + b) * rows + r],
                                      (at + b * cols + j,)))
                        terms.append((act[(j * rows + b) * rows + r],
                                      (at + b * cols + i,)))
                terms += [(-cod_br[(a * rows + b) * rows + r],
                           (at + a * cols + i, at + b * cols + j))
                          for a in range(rows) for b in range(rows)]
                yield terms


def equivariance_law(src_act, dst_act, dm, dm2, dp, dp2):
    """Constraint (i, j, r), i < dp, j < dm, r < dm2: the r-th coordinate of
    f1(e_i . e_j) - f0(e_i) . f1(e_j), with f1 (dm2 x dm) at position 0 and
    f0 (dp2 x dp) right after it."""
    at = dm2 * dm
    for i in range(dp):
        for j in range(dm):
            base = (i * dm + j) * dm
            for r in range(dm2):
                yield ([(src_act[base + k], (r * dm + k,)) for k in range(dm)]
                       + [(-dst_act[(a * dm2 + b) * dm2 + r],
                           (at + a * dp + i, b * dm + j))
                          for a in range(dp2) for b in range(dm2)])


def square_law(bd, bd2, dm, dm2, dp, dp2):
    """Constraint (j, r), j < dm, r < dp2: entry (r, j) of
    boundary' . f1 - f0 . boundary, positions as in equivariance_law and the
    boundaries (dp x dm and dp2 x dm2) flat in row-major order."""
    at = dm2 * dm
    for j in range(dm):
        for r in range(dp2):
            yield ([(bd2[r * dm2 + b], (b * dm + j,)) for b in range(dm2)]
                   + [(-bd[a * dm + j], (at + r * dp + a,)) for a in range(dp)])


def _distinct(p, constraints):
    """Each distinct constraint once, in first-seen order, as {positions: c}.

    Monomials are merged by their sorted positions, coefficients reduced
    mod p (kept exact when p is None) and zeros dropped.  An empty
    constraint always holds and is dropped; the rest are scaled to 1 at
    their least positions, since nonzero multiples vanish together, and
    equal ones are kept once.  On alternating brackets that leaves only
    i < j constraints of the derivation law: those at i = j are empty, and
    each (j, i) one is a multiple of the (i, j) one.
    """
    distinct = {}
    for terms in constraints:
        merged: dict[tuple[int, ...], object] = {}
        for c, key in terms:
            if len(key) == 2 and key[0] > key[1]:
                key = key[1], key[0]
            merged[key] = merged.get(key, 0) + c
        merged = {key: c for key, c in merged.items() if (c % p if p else c)}
        if merged:
            lead = merged[min(merged)]
            scale = pow(lead, -1, p) if p else 1 / lead
            merged = {key: c * scale % p if p else c * scale
                      for key, c in merged.items()}
            distinct.setdefault(frozenset(merged.items()), merged)
    return distinct.values()


class Law:
    """Constraints compiled for evaluation at a point.

    holds(x) is True exactly when every constraint vanishes at x, the size
    entries of the maps under test as a list of lifted numbers: mod p over
    GF(p) (p the modulus), exactly over QQ (p None).  Each distinct
    constraint (_distinct) is linear over x extended by the products its
    bilinear terms need; it is kept as an itemgetter of those slots and
    their coefficients.
    """

    def __init__(self, p, size, constraints):
        products: dict[tuple[int, int], int] = {}
        rows = []
        for merged in _distinct(p, constraints):
            kept = [(key[0] if len(key) == 1
                     else size + products.setdefault(key, len(products)), c)
                    for key, c in merged.items()]
            # Two slots at least, so the itemgetter returns a tuple.
            kept += [(0, 0)] * (2 - len(kept))
            slots, cs = zip(*kept)
            rows.append((itemgetter(*slots), cs))
        self._p = p
        self._left = tuple(s for s, _ in products)
        self._right = tuple(t for _, t in products)
        self._rows = rows

    def holds(self, x) -> bool:
        at = x.__getitem__
        ext = [*x, *map(mul, map(at, self._left), map(at, self._right))]
        p, rows = self._p, self._rows
        if p is None:
            return not any([sum(map(mul, cs, get(ext))) for get, cs in rows])
        return not any([sum(map(mul, cs, get(ext))) % p for get, cs in rows])


def _constraints(p, dom_br, act, cod_br, rows, cols):
    """The derivation law on every ordered pair, each distinct constraint
    once, as (linear terms, bilinear terms) filed by highest position.

    Linear terms are (t, c), sorted by t, and bilinear terms (s, t, c), from
    _distinct.  Entry h of the result lists the constraints whose highest
    position is h, in first-seen order.
    """
    at = [[] for _ in range(rows * cols)]
    for merged in _distinct(p, derivation_law(dom_br, act, cod_br, rows, cols)):
        lin_terms = sorted((key[0], c) for key, c in merged.items() if len(key) == 1)
        bil_terms = [(*key, c) for key, c in merged.items() if len(key) == 2]
        at[max(map(max, merged))].append((lin_terms, bil_terms))
    return at


def _walk(p, at, start, stop):
    """Survivors in [start, stop) of the filed constraints, depth first."""
    n = len(at)
    digits = [0] * n
    out = []

    def visit(t, index):
        if t == n:
            if start <= index < stop:
                out.append(index)
            return
        for v in range(p):
            digits[t] = v
            for lin, bil in at[t]:
                value = 0
                for s, c in lin:
                    value += digits[s] * c
                for s, u, c in bil:
                    value += digits[s] * digits[u] * c
                if value % p:
                    break
            else:
                visit(t + 1, index * p + v)

    visit(0, 0)
    return out


def scan_lie_morphisms(p, dom_br, cod_br, rows, cols, start, stop):
    """Indices of F with F[e_i, e_j] = [F e_i, F e_j] on every ordered pair
    (i, j): the derivation law with the zero action, each distinct
    constraint once."""
    return _walk(p, _constraints(p, dom_br, None, cod_br, rows, cols),
                 start, stop)


def scan_derivations(p, dom_br, act, cod_br, rows, cols, start, stop):
    """Indices of D obeying the derivation law on every ordered pair (i, j),
    each distinct constraint once:

        D[e_i, e_j] = f0(e_i).D(e_j) - f0(e_j).D(e_i) + [D(e_i), D(e_j)]

    with the action of f0 precomputed into act.
    """
    return _walk(p, _constraints(p, dom_br, act, cod_br, rows, cols),
                 start, stop)
