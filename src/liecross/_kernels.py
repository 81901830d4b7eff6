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
the brackets alternating.

A Law is the one compiled form: each distinct constraint once (_distinct),
filed under its highest position.  It has two readers, so a filing defect
shows in both:

* The scans walk the digits of the derivation law's Law depth first
  (below).
* Law.holds evaluates it at a point.  validate_crossed_morphism and
  is_f0_derivation first evaluate their Law at the lifted entries of the
  maps under test and return the passing report when every constraint
  vanishes; only an input that fails goes through the checks on vectors
  that build the witnesses.

A candidate index names a rows x cols matrix over GF(p): entries are base-p
digits of the index in row-major order, first entry most significant.  Each
scan returns the indices in a contiguous range whose matrix passes the
kernel's condition, in ascending order.

The scan is a depth-first walk over digit positions that solves each
constrained digit instead of trying its p values.  Every (i, j, r)
constraint of the law is linear or bilinear in the digits, so its value is
fixed once the digits up to its highest position t are; it is filed under t
and, with the digits before t fixed, it is affine in digit t (quadratic in
it only for an i = j constraint of a bracket that does not alternate).  At
each node the walk solves the affine constraints filed at t for the one
value of digit t they allow, if any, checks the quadratic ones on the values
left and goes one digit deeper only on those, so no failing prefix is
extended.  Once no constraint is filed at or after a position, every
completion survives, and the block of indices is emitted as one range.
Survivors arrive in ascending index order, clipped to the range: those of a
candidate-by-candidate walk.

All tensor arguments are flat tuples of lifted numbers (residues over
GF(p)): bracket tensors are indexed by (i*dim + j)*dim + k, action tensors
by (i*acted + j)*acted + k, and the action table of a derivation law by
(i*rows + b)*rows + r, where act[(i*rows + b)*rows + r] is the r-th
coordinate of f0(e_i) acting on the b-th codomain basis vector.
"""

from __future__ import annotations

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
    """Constraints compiled once, filed for the scans' walk and for holds.

    Each distinct constraint (_distinct) is filed under its highest
    position t as (terms, slope, q), read as a + b*v + q*v^2 in the entry v
    at t: a sums c*x[s]*x[u] over terms (s, u, c), the monomials without t,
    and b sums c*x[s] over slope (s, c), where position size reads as the
    constant 1.  q is nonzero only for a bracket that does not alternate.
    at[t] lists the constraints filed under t in first-seen order; p is the
    modulus over GF(p) and None over QQ.
    """

    def __init__(self, p, size, constraints):
        at = [[] for _ in range(size)]
        for merged in _distinct(p, constraints):
            t = max(map(max, merged))
            terms, slope, q = [], [], 0
            for key, c in merged.items():
                if key == (t, t):
                    q = c
                elif key[-1] == t:
                    slope.append((key[0] if len(key) == 2 else size, c))
                else:
                    terms.append((key[0], key[-1] if len(key) == 2 else size, c))
            at[t].append((terms, slope, q))
        self.p = p
        self.at = at

    def holds(self, x) -> bool:
        """True exactly when every constraint vanishes at x, the size
        entries of the maps under test as lifted numbers: mod p over GF(p),
        exactly over QQ."""
        x = [*x, 1]
        p = self.p
        for t, filed in enumerate(self.at):
            v = x[t]
            for terms, slope, q in filed:
                a = b = 0
                for s, u, c in terms:
                    a += x[s] * x[u] * c
                for s, c in slope:
                    b += x[s] * c
                a += (b + q * v) * v
                if a % p if p else a:
                    return False
        return True


def _walk(law, start, stop):
    """Survivors in [start, stop) of law over GF(law.p), depth first.

    At digit t an affine constraint (q = 0) pins v = -a/b when b != 0 and
    needs a = 0 when b = 0; quadratic ones are checked on each value left.
    """
    p, at = law.p, law.at
    n = len(at)
    free = max([t + 1 for t in range(n) if at[t]], default=0)
    width = p ** (n - free)
    inverse = [0] + [pow(b, -1, p) for b in range(1, p)]
    digits = [0] * n + [1]
    out = []

    def visit(t, index):
        v, quadratic = None, ()
        for terms, slope, q in at[t]:
            a = b = 0
            for s, u, c in terms:
                a += digits[s] * digits[u] * c
            for s, c in slope:
                b += digits[s] * c
            if q:
                quadratic += ((a, b, q),)
            elif v is not None:
                if (a + b * v) % p:
                    return
            elif b % p:
                v = -a * inverse[b % p] % p
            elif a % p:
                return
        index *= p
        for v in range(p) if v is None else (v,):
            if quadratic and any((a + (b + q * v) * v) % p for a, b, q in quadratic):
                continue
            if t + 1 < free:
                digits[t] = v
                visit(t + 1, index + v)
            elif width == 1:
                if start <= index + v < stop:
                    out.append(index + v)
            else:
                low = (index + v) * width
                out.extend(range(max(start, low), min(stop, low + width)))

    if free:
        visit(0, 0)
    else:
        out.extend(range(start, min(stop, width)))
    return out


def scan_lie_morphisms(p, dom_br, cod_br, rows, cols, start, stop):
    """Indices of F with F[e_i, e_j] = [F e_i, F e_j] on every ordered pair
    (i, j): the derivation law with the zero action, each distinct
    constraint once."""
    return _walk(Law(p, rows * cols, derivation_law(dom_br, None, cod_br, rows, cols)),
                 start, stop)


def scan_derivations(p, dom_br, act, cod_br, rows, cols, start, stop):
    """Indices of D obeying the derivation law on every ordered pair (i, j),
    each distinct constraint once:

        D[e_i, e_j] = f0(e_i).D(e_j) - f0(e_j).D(e_i) + [D(e_i), D(e_j)]

    with the action of f0 precomputed into act.
    """
    return _walk(Law(p, rows * cols, derivation_law(dom_br, act, cod_br, rows, cols)),
                 start, stop)
