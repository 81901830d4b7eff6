"""Enumeration kernels: the two scans behind morphism and derivation search.

A candidate index names a rows x cols matrix over GF(p): entries are base-p
digits of the index in row-major order, first entry most significant.  Each
scan returns the indices in a contiguous range whose matrix passes the
kernel's condition, in ascending order.

The scan is a depth-first walk over digit positions.  Every (i, j, r)
constraint of the law is linear or bilinear in the digits, so its value is
fixed once the digits up to its highest position are; it is filed under that
position.  The walk sets digit t to 0..p-1, tests only the constraints filed
at t and goes one digit deeper only when they all hold, so no failing prefix
is extended.  Leaves arrive in ascending index order and are kept when their
index lies in the range: the survivors of a candidate-by-candidate walk.

All tensor arguments are flat tuples of residues: bracket tensors are indexed
by (i*dim + j)*dim + k, the action table by (i*rows + b)*rows + r where
act[(i*rows + b)*rows + r] is the r-th coordinate of f0(e_i) acting on the
b-th codomain basis vector.
"""

from __future__ import annotations

# Reported as liecross.KERNEL_BACKEND: the kernels are plain Python.
BACKEND = "pure"


def decode(index: int, p: int, n: int) -> list[int]:
    """The n base-p digits of index, most significant first."""
    digits = [0] * n
    for t in range(n - 1, -1, -1):
        index, digits[t] = divmod(index, p)
    return digits


def _constraints(p, dom_br, act, cod_br, rows, cols):
    """The law as (linear terms, bilinear terms), filed by highest position.

    Constraint (i, j, r) for i < j is the r-th coordinate of

        D[e_i, e_j] - f0(e_i).D(e_j) + f0(e_j).D(e_i) - [D(e_i), D(e_j)]

    written over digit positions: linear terms (t, c) and bilinear terms
    (s, t, c), coefficients reduced mod p and zero terms dropped.  Entry h
    of the result lists the constraints whose highest position is h.  A
    constraint with no terms always holds and is left out.  act=None stands
    for the zero action.
    """
    at = [[] for _ in range(rows * cols)]
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
                    at[h].append((lin_terms, bil_terms))
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
    """Indices of F with F[e_i, e_j] = [F e_i, F e_j] for all i < j.

    This is the derivation law with the zero action.  Valid (antisymmetric)
    bracket tensors make the i > j and i = j cases redundant, so only i < j
    pairs are tested.
    """
    return _walk(p, _constraints(p, dom_br, None, cod_br, rows, cols),
                 start, stop)


def scan_derivations(p, dom_br, act, cod_br, rows, cols, start, stop):
    """Indices of D obeying the derivation law on all pairs i < j:

        D[e_i, e_j] = f0(e_i).D(e_j) - f0(e_j).D(e_i) + [D(e_i), D(e_j)]

    with the action of f0 precomputed into act.  Both sides are antisymmetric
    in (i, j) and vanish at i = j, so i < j pairs suffice.
    """
    return _walk(p, _constraints(p, dom_br, act, cod_br, rows, cols),
                 start, stop)
