"""Enumeration kernels: the two scans behind morphism and derivation search.

A candidate index names a rows x cols matrix over GF(p): entries are base-p
digits of the index in row-major order, first entry most significant.  Each
scan walks a contiguous index range in odometer order and returns the indices
whose matrix passes the kernel's condition, in ascending order.

The walk prunes by prefix.  Every (i, j, r) constraint of the law is linear
or bilinear in the digits, so its value is fixed once the digits up to its
highest position h are.  Constraints are tested in ascending order of h;
when one fails, no candidate sharing digits 0..h can pass, and the walk jumps
to the next value of that prefix instead of stepping through the whole block.
After a step or a jump that changed digits from position t on, only the
constraints with h >= t are tested again: the others passed and their digits
did not move.  The survivors are exactly those of a candidate-by-candidate
walk over the same range.

All tensor arguments are flat tuples of residues: bracket tensors are indexed
by (i*dim + j)*dim + k, the action table by (i*rows + b)*rows + r where
act[(i*rows + b)*rows + r] is the r-th coordinate of f0(e_i) acting on the
b-th codomain basis vector.
"""

from __future__ import annotations

from bisect import bisect_left

# Reported as liecross.KERNEL_BACKEND: the kernels are plain Python.
BACKEND = "pure"


def decode(index: int, p: int, n: int) -> list[int]:
    """The n base-p digits of index, most significant first."""
    digits = [0] * n
    for t in range(n - 1, -1, -1):
        index, digits[t] = divmod(index, p)
    return digits


def _constraints(p, dom_br, act, cod_br, rows, cols):
    """The law as (h, linear terms, bilinear terms), sorted by h.

    Constraint (i, j, r) for i < j is the r-th coordinate of

        D[e_i, e_j] - f0(e_i).D(e_j) + f0(e_j).D(e_i) - [D(e_i), D(e_j)]

    written over digit positions: linear terms (t, c) and bilinear terms
    (s, t, c), coefficients reduced mod p and zero terms dropped.  h is the
    highest position involved.  A constraint with no terms always holds and
    is left out.  act=None stands for the zero action.
    """
    out = []
    for i in range(cols):
        for j in range(i + 1, cols):
            for r in range(rows):
                lin: dict[int, int] = {}
                base = (i * cols + j) * cols
                for k in range(cols):
                    lin[r * cols + k] = lin.get(r * cols + k, 0) + dom_br[base + k]
                if act is not None:
                    for b in range(rows):
                        lin[b * cols + j] = (lin.get(b * cols + j, 0)
                                             - act[(i * rows + b) * rows + r])
                        lin[b * cols + i] = (lin.get(b * cols + i, 0)
                                             + act[(j * rows + b) * rows + r])
                bil_terms = []
                for a in range(rows):
                    for b in range(rows):
                        c = -cod_br[(a * rows + b) * rows + r] % p
                        if c:
                            bil_terms.append((a * cols + i, b * cols + j, c))
                lin_terms = [(t, c % p) for t, c in sorted(lin.items()) if c % p]
                if lin_terms or bil_terms:
                    h = max([t for t, _ in lin_terms]
                            + [max(s, t) for s, t, _ in bil_terms])
                    out.append((h, lin_terms, bil_terms))
    out.sort(key=lambda con: con[0])
    return out


def _pruned_scan(p, constraints, n, start, stop):
    """Survivors in [start, stop) of the sorted constraints, by prefix jumps."""
    # first[t]: index of the first constraint whose highest position is >= t.
    highest = [con[0] for con in constraints]
    first = [bisect_left(highest, t) for t in range(n + 1)]
    # block[t]: candidates sharing digits 0..t.
    block = [p ** (n - 1 - t) for t in range(n)]
    out = []
    digits = decode(start, p, n)
    idx = start
    changed = 0
    while idx < stop:
        h = n - 1
        for con_h, lin, bil in constraints[first[changed]:]:
            value = 0
            for t, c in lin:
                value += digits[t] * c
            for s, t, c in bil:
                value += digits[s] * digits[t] * c
            if value % p:
                h = con_h
                break
        else:
            out.append(idx)
        if n == 0:
            break
        # Next candidate with a new digit at position h: zero the digits
        # after it and carry into it.
        idx += block[h] - idx % block[h]
        for t in range(h + 1, n):
            digits[t] = 0
        t = h
        while t >= 0:
            digits[t] += 1
            if digits[t] == p:
                digits[t] = 0
                t -= 1
            else:
                break
        changed = max(t, 0)
    return out


def scan_lie_morphisms(p, dom_br, cod_br, rows, cols, start, stop):
    """Indices of F with F[e_i, e_j] = [F e_i, F e_j] for all i < j.

    This is the derivation law with the zero action.  Valid (antisymmetric)
    bracket tensors make the i > j and i = j cases redundant, so only i < j
    pairs are tested.
    """
    return _pruned_scan(p, _constraints(p, dom_br, None, cod_br, rows, cols),
                        rows * cols, start, stop)


def scan_derivations(p, dom_br, act, cod_br, rows, cols, start, stop):
    """Indices of D obeying the derivation law on all pairs i < j:

        D[e_i, e_j] = f0(e_i).D(e_j) - f0(e_j).D(e_i) + [D(e_i), D(e_j)]

    with the action of f0 precomputed into act.  Both sides are antisymmetric
    in (i, j) and vanish at i = j, so i < j pairs suffice.
    """
    return _pruned_scan(p, _constraints(p, dom_br, act, cod_br, rows, cols),
                        rows * cols, start, stop)
